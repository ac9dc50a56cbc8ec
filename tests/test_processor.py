"""The composed socket model: stepping, capping behaviour, counters."""

import pytest

from repro.errors import SimulationError
from repro.hardware.processor import PhaseWork, SimulatedProcessor

from tests.conftest import settle


class TestStepping:
    def test_state_before_step_raises(self, processor):
        with pytest.raises(SimulationError):
            _ = processor.state

    def test_nonpositive_dt_rejected(self, processor, compute_work):
        with pytest.raises(SimulationError):
            processor.step(0.0, compute_work)

    @pytest.mark.parametrize("work", [None, "compute"])
    def test_nan_dt_rejected(self, processor, compute_work, work):
        work = compute_work if work == "compute" else None
        with pytest.raises(SimulationError):
            processor.step(float("nan"), work)
        assert processor.now_s == 0.0
        assert processor.package_energy_j == 0.0
        with pytest.raises(SimulationError):
            _ = processor.state

    def test_time_advances(self, processor, compute_work):
        processor.step(0.01, compute_work)
        processor.step(0.02, compute_work)
        assert processor.now_s == pytest.approx(0.03)

    def test_progress_returned(self, processor):
        # A phase sized to one second of compute: 10 ms ~ 1 % progress.
        work = PhaseWork(flops=16 * 4 * 2.8e9, bytes=0.0, fpc=4.0)
        progress = processor.step(0.01, work)
        assert progress == pytest.approx(0.01, rel=0.05)

    def test_idle_step_makes_no_progress(self, processor):
        assert processor.step(0.01, None) == 0.0

    def test_counters_accumulate(self, processor, compute_work):
        settle(processor, compute_work, steps=100)
        assert processor.flops_retired > 0
        expected = processor.state.flops_rate * processor.now_s
        assert processor.flops_retired == pytest.approx(expected, rel=0.01)

    def test_energy_integrates_power(self, processor, memory_work):
        settle(processor, memory_work, steps=100)
        avg_power = processor.package_energy_j / processor.now_s
        assert avg_power == pytest.approx(
            processor.state.package.total_w, rel=0.1
        )


class TestDefaultBehaviour:
    def test_default_runs_at_turbo(self, processor, compute_work):
        s = settle(processor, compute_work)
        assert s.core_freq_hz == pytest.approx(2.8e9)

    def test_default_uncore_high_when_busy(self, processor, compute_work):
        s = settle(processor, compute_work)
        assert s.uncore_freq_hz >= 2.2e9

    def test_default_power_within_budget(self, processor, balanced_work):
        s = settle(processor, balanced_work)
        assert s.package.total_w <= 125.5

    def test_memory_bound_power_near_budget(self, processor, balanced_work):
        # The paper: default CG sits "almost at the maximum budget".
        s = settle(processor, balanced_work)
        assert s.package.total_w > 110.0


class TestPowerCapping:
    def test_cap_reduces_power(self, socket_cfg, balanced_work):
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(100.0, 100.0)
        s = settle(p, balanced_work, steps=300)
        assert s.package.total_w <= 101.0

    def test_cap_reduces_core_frequency(self, socket_cfg, balanced_work):
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(100.0, 100.0)
        s = settle(p, balanced_work, steps=300)
        assert s.core_freq_hz < 2.8e9

    def test_deep_cap_hits_frequency_floor(self, socket_cfg, memory_work):
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(65.0, 65.0)
        s = settle(p, memory_work, steps=300)
        assert s.core_freq_hz == pytest.approx(1.0e9)

    def test_memory_phase_unharmed_at_floor_cap(self, socket_cfg, memory_work):
        # Fig. 1b/1c: the 65 W cap does not slow the memory phase.
        p_ref = SimulatedProcessor(socket_cfg)
        ref = settle(p_ref, memory_work, steps=300)
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(65.0, 65.0)
        s = settle(p, memory_work, steps=300)
        assert s.flops_rate == pytest.approx(ref.flops_rate, rel=0.01)

    def test_compute_phase_slowed_by_cap(self, socket_cfg, compute_work):
        p_ref = SimulatedProcessor(socket_cfg)
        ref = settle(p_ref, compute_work)
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(90.0, 90.0)
        s = settle(p, compute_work, steps=300)
        assert s.flops_rate < ref.flops_rate * 0.95

    def test_floor_cap_may_overshoot(self, socket_cfg, memory_work):
        # RAPL cannot clock below the minimum P-state, so a 65 W cap on
        # a memory-saturating phase consumes slightly above the cap —
        # the situation DUFP's margin absorbs.
        p = SimulatedProcessor(socket_cfg)
        p.rapl.set_limits(65.0, 65.0)
        s = settle(p, memory_work, steps=300)
        assert 64.0 < s.package.total_w < 65.0 * 1.04


class TestUncoreInteraction:
    def test_pinned_uncore_cuts_bandwidth(self, socket_cfg, memory_work):
        p = SimulatedProcessor(socket_cfg)
        p.uncore.pin(1.2e9)
        s = settle(p, memory_work, steps=200)
        assert s.bytes_rate < 70e9

    def test_pinned_uncore_saves_power_on_compute(self, socket_cfg, compute_work):
        p_ref = SimulatedProcessor(socket_cfg)
        ref = settle(p_ref, compute_work)
        p = SimulatedProcessor(socket_cfg)
        p.uncore.pin(1.2e9)
        s = settle(p, compute_work)
        assert s.package.total_w < ref.package.total_w - 10.0
        assert s.flops_rate == pytest.approx(ref.flops_rate, rel=1e-6)


class TestPowerBoost:
    def test_boost_raises_power(self, socket_cfg):
        plain = PhaseWork(flops=1e12, bytes=4e11, fpc=7.0)
        boosted = PhaseWork(flops=1e12, bytes=4e11, fpc=7.0, power_boost=1.4)
        p1 = settle(SimulatedProcessor(socket_cfg), plain)
        p2 = settle(SimulatedProcessor(socket_cfg), boosted)
        assert p2.package.core_w > p1.package.core_w

    def test_boost_throttles_under_cap(self, socket_cfg):
        boosted = PhaseWork(flops=1e12, bytes=4e11, fpc=7.0, power_boost=1.5)
        p_free = SimulatedProcessor(socket_cfg)
        free = settle(p_free, boosted, steps=300)
        p_capped = SimulatedProcessor(socket_cfg)
        p_capped.rapl.set_limits(100.0, 100.0)
        capped = settle(p_capped, boosted, steps=300)
        assert capped.core_freq_hz < free.core_freq_hz


class TestOverfetch:
    def test_overfetch_raises_dram_power_below_saturation(self, socket_cfg):
        plain = PhaseWork(flops=2.5e10, bytes=1e11, fpc=1.0)
        fetchy = PhaseWork(flops=2.5e10, bytes=1e11, fpc=1.0, overfetch=0.5)
        for proc_pin in (True,):
            p1 = SimulatedProcessor(socket_cfg)
            p1.uncore.pin(1.5e9)
            s1 = settle(p1, plain, steps=100)
            p2 = SimulatedProcessor(socket_cfg)
            p2.uncore.pin(1.5e9)
            s2 = settle(p2, fetchy, steps=100)
            assert s2.dram_power_w > s1.dram_power_w

    def test_no_overfetch_at_saturated_uncore(self, socket_cfg):
        fetchy = PhaseWork(flops=2.5e10, bytes=1e11, fpc=1.0, overfetch=0.5)
        plain = PhaseWork(flops=2.5e10, bytes=1e11, fpc=1.0)
        s1 = settle(SimulatedProcessor(socket_cfg), plain, steps=100)
        s2 = settle(SimulatedProcessor(socket_cfg), fetchy, steps=100)
        assert s2.dram_power_w == pytest.approx(s1.dram_power_w, rel=0.01)


class TestPreview:
    def test_preview_matches_settled_rate(self, processor, balanced_work):
        settle(processor, balanced_work, steps=50)
        preview = processor.preview_progress_rate(balanced_work)
        actual = processor.step(0.01, balanced_work) / 0.01
        assert preview == pytest.approx(actual, rel=0.05)

    def test_preview_of_empty_work_is_zero(self, processor):
        assert processor.preview_progress_rate(
            PhaseWork(flops=0.0, bytes=0.0, fpc=1.0)
        ) == 0.0
