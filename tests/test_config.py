"""Configuration validation and the yeti presets."""

from dataclasses import replace

import pytest

from repro.config import (
    ControllerConfig,
    CoreConfig,
    EngineConfig,
    MachineConfig,
    MemoryConfig,
    NoiseConfig,
    PowerModelConfig,
    RAPLConfig,
    SocketConfig,
    UncoreConfig,
    with_slowdown,
    yeti_machine_config,
    yeti_socket_config,
)
from repro.errors import ConfigurationError


class TestCoreConfig:
    def test_default_is_valid(self):
        CoreConfig().validate()

    def test_table1_frequencies(self):
        cfg = CoreConfig()
        assert cfg.count == 16
        assert cfg.max_freq_hz == pytest.approx(2.8e9)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(CoreConfig(), count=0).validate()

    def test_inverted_freqs_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(CoreConfig(), min_freq_hz=3e9).validate()

    def test_non_positive_step_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(CoreConfig(), step_hz=0.0).validate()

    def test_voltage_endpoints(self):
        cfg = CoreConfig()
        assert cfg.voltage_at(cfg.min_freq_hz) == pytest.approx(cfg.v_min)
        assert cfg.voltage_at(cfg.max_freq_hz) == pytest.approx(cfg.v_max)

    def test_voltage_clamps_outside_range(self):
        cfg = CoreConfig()
        assert cfg.voltage_at(0.1e9) == pytest.approx(cfg.v_min)
        assert cfg.voltage_at(9e9) == pytest.approx(cfg.v_max)

    def test_voltage_monotonic(self):
        cfg = CoreConfig()
        freqs = [1.0e9, 1.5e9, 2.0e9, 2.5e9, 2.8e9]
        volts = [cfg.voltage_at(f) for f in freqs]
        assert volts == sorted(volts)


class TestUncoreConfig:
    def test_table1_range(self):
        cfg = UncoreConfig()
        assert cfg.min_freq_hz == pytest.approx(1.2e9)
        assert cfg.max_freq_hz == pytest.approx(2.4e9)

    def test_inverted_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(UncoreConfig(), min_freq_hz=3e9).validate()

    def test_voltage_midpoint(self):
        cfg = UncoreConfig()
        mid = (cfg.min_freq_hz + cfg.max_freq_hz) / 2
        assert cfg.v_min < cfg.voltage_at(mid) < cfg.v_max


class TestRAPLConfig:
    def test_table1_limits(self):
        cfg = RAPLConfig()
        assert cfg.pl1_default_w == 125.0
        assert cfg.pl2_default_w == 150.0

    def test_pl1_above_pl2_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(RAPLConfig(), pl1_default_w=200.0).validate()

    def test_bad_counter_width_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(RAPLConfig(), counter_bits=48).validate()

    def test_min_limit_above_pl1_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(RAPLConfig(), min_limit_w=130.0).validate()

    def test_energy_unit_is_2_pow_neg14(self):
        assert RAPLConfig().energy_unit_j == pytest.approx(2.0**-14)


class TestPowerModelConfig:
    def test_default_valid(self):
        PowerModelConfig().validate()

    def test_negative_static_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(PowerModelConfig(), static_w=-1.0).validate()

    def test_idle_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            replace(PowerModelConfig(), core_idle_fraction=1.5).validate()


class TestMemoryConfig:
    def test_default_valid(self):
        MemoryConfig().validate()

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(MemoryConfig(), peak_bw_bytes=0.0).validate()

    def test_core_bw_covers_peak_at_min_freq(self):
        # The 65 W floor argument: 16 cores at 1.0 GHz must still
        # (barely) saturate the memory channels.
        mem = MemoryConfig()
        core = CoreConfig()
        assert mem.bw_per_core_hz * core.count * core.min_freq_hz >= mem.peak_bw_bytes


class TestControllerConfig:
    def test_paper_defaults(self):
        cfg = ControllerConfig()
        assert cfg.interval_s == pytest.approx(0.2)
        assert cfg.cap_step_w == 5.0
        assert cfg.cap_floor_w == 65.0
        assert cfg.uncore_step_hz == pytest.approx(1e8)
        assert cfg.oi_highly_memory == pytest.approx(0.02)
        assert cfg.oi_highly_cpu == pytest.approx(100.0)

    def test_slowdown_bounds(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(tolerated_slowdown=1.0).validate()
        with pytest.raises(ConfigurationError):
            ControllerConfig(tolerated_slowdown=-0.1).validate()

    def test_oi_threshold_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            replace(ControllerConfig(), oi_highly_memory=2.0).validate()

    def test_phase_jump_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            replace(ControllerConfig(), phase_flops_jump=0.9).validate()

    def test_with_slowdown(self):
        cfg = with_slowdown(ControllerConfig(), 10.0)
        assert cfg.tolerated_slowdown == pytest.approx(0.10)

    def test_with_slowdown_preserves_other_fields(self):
        base = replace(ControllerConfig(), cap_step_w=10.0)
        assert with_slowdown(base, 20.0).cap_step_w == 10.0


class TestMachineConfig:
    def test_yeti_machine(self):
        cfg = yeti_machine_config()
        assert cfg.socket_count == 4
        assert cfg.total_cores == 64

    def test_socket_preset(self):
        yeti_socket_config().validate()

    def test_zero_sockets_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(socket_count=0).validate()


class TestNoiseAndEngine:
    def test_noise_default_valid(self):
        NoiseConfig().validate()

    def test_excess_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(NoiseConfig(), counter_noise=0.5).validate()

    def test_engine_default_valid(self):
        EngineConfig().validate()

    def test_engine_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(dt_s=0.0).validate()

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_engine_nan_or_infinite_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt_s"):
            EngineConfig(dt_s=dt).validate()

    def test_engine_nan_time_limit_rejected(self):
        # A NaN limit would silently disable the stuck-run check.
        with pytest.raises(ConfigurationError, match="max_sim_time_s"):
            EngineConfig(max_sim_time_s=float("nan")).validate()


class TestSocketConfigComposition:
    def test_validate_cascades(self):
        bad = replace(
            SocketConfig(), rapl=replace(RAPLConfig(), pl1_default_w=500.0)
        )
        with pytest.raises(ConfigurationError):
            bad.validate()
