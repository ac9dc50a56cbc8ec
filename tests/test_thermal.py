"""Thermal model: RC dynamics, PROCHOT, MSR readouts, integration."""

from dataclasses import replace

import pytest

from repro.config import ThermalConfig, yeti_socket_config
from repro.errors import ConfigurationError, HardwareError
from repro.hardware.processor import SimulatedProcessor
from repro.hardware.thermal import (
    MSR_IA32_THERM_STATUS,
    MSR_TEMPERATURE_TARGET,
    ThermalModel,
)
from repro.hardware.msr import get_bits

from tests.conftest import settle


def hot_config(**kwargs):
    """A deliberately undersized cooler for throttle tests."""
    defaults = dict(r_thermal_c_per_w=0.8, tau_s=2.0)
    defaults.update(kwargs)
    return ThermalConfig(**defaults)


class TestConfig:
    def test_default_valid(self):
        ThermalConfig().validate()

    def test_tdp_guarantee(self):
        # Sustained TDP (125 W) settles safely below the PROCHOT trip.
        cfg = ThermalConfig()
        assert cfg.steady_state_c(125.0) < cfg.t_prochot_c - 5.0

    def test_max_dissipation_above_tdp(self):
        assert ThermalConfig().max_dissipation_w > 125.0

    def test_bad_resistance_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(ThermalConfig(), r_thermal_c_per_w=0.0).validate()

    def test_ambient_must_be_below_trip(self):
        with pytest.raises(ConfigurationError):
            replace(ThermalConfig(), ambient_c=100.0).validate()


class TestRCDynamics:
    def test_starts_at_ambient(self):
        m = ThermalModel(ThermalConfig())
        assert m.temperature_c == pytest.approx(40.0)

    def test_converges_to_steady_state(self):
        m = ThermalModel(ThermalConfig())
        for _ in range(100):
            m.step(1.0, 100.0)
        assert m.temperature_c == pytest.approx(
            ThermalConfig().steady_state_c(100.0), abs=0.1
        )

    def test_first_order_lag(self):
        m = ThermalModel(ThermalConfig(tau_s=8.0))
        m.step(8.0, 100.0)  # one time constant
        target = ThermalConfig().steady_state_c(100.0)
        expected = 40.0 + (target - 40.0) * (1.0 - 2.718281828**-1)
        assert m.temperature_c == pytest.approx(expected, rel=0.01)

    def test_cooling_when_power_drops(self):
        m = ThermalModel(ThermalConfig())
        for _ in range(100):
            m.step(1.0, 125.0)
        hot = m.temperature_c
        for _ in range(100):
            m.step(1.0, 30.0)
        assert m.temperature_c < hot

    def test_step_validation(self):
        m = ThermalModel(ThermalConfig())
        with pytest.raises(HardwareError):
            m.step(0.0, 10.0)
        with pytest.raises(HardwareError):
            m.step(1.0, -1.0)

    @pytest.mark.parametrize("args", [(float("nan"), 10.0), (1.0, float("nan"))])
    def test_step_rejects_nan(self, args):
        m = ThermalModel(ThermalConfig())
        with pytest.raises(HardwareError):
            m.step(*args)
        assert m.temperature_c == ThermalConfig().ambient_c


class TestProchot:
    def test_asserts_above_trip(self):
        m = ThermalModel(hot_config())
        for _ in range(50):
            m.step(1.0, 125.0)  # steady state 140 C with the bad cooler
        assert m.prochot
        assert m.freq_clamp_hz() == pytest.approx(1.2e9)

    def test_hysteresis(self):
        m = ThermalModel(hot_config())
        for _ in range(50):
            m.step(1.0, 125.0)
        assert m.prochot
        # Cool gradually: just under the trip it stays asserted.
        while m.temperature_c > 94.5:
            m.step(0.02, 20.0)
        assert m.prochot
        while m.temperature_c > 90.0:
            m.step(0.02, 20.0)
        assert not m.prochot

    def test_no_clamp_when_cool(self):
        m = ThermalModel(ThermalConfig())
        assert m.freq_clamp_hz() == float("inf")


class TestMSRs:
    def test_therm_status_readout(self):
        from repro.hardware.msr import MSRFile

        m = ThermalModel(ThermalConfig())
        msrs = MSRFile()
        m.attach_msrs(msrs)
        v = msrs.read(MSR_IA32_THERM_STATUS)
        assert get_bits(v, 0, 0) == 0  # no PROCHOT
        assert get_bits(v, 22, 16) == int(m.headroom_c)
        assert get_bits(v, 31, 31) == 1  # valid

    def test_temperature_target(self):
        from repro.hardware.msr import MSRFile

        m = ThermalModel(ThermalConfig())
        msrs = MSRFile()
        m.attach_msrs(msrs)
        v = msrs.read(MSR_TEMPERATURE_TARGET)
        assert get_bits(v, 23, 16) == 96


class TestProcessorIntegration:
    def test_disabled_by_default(self, processor, compute_work):
        s = settle(processor, compute_work)
        assert processor.thermal is None
        assert s.temperature_c is None

    def test_enabled_tracks_temperature(self, compute_work):
        cfg = replace(yeti_socket_config(), thermal=ThermalConfig())
        p = SimulatedProcessor(cfg)
        s = settle(p, compute_work, steps=500, dt=0.1)
        target = ThermalConfig().steady_state_c(s.package.total_w)
        assert s.temperature_c == pytest.approx(target, abs=1.0)

    def test_no_throttle_within_tdp(self, compute_work):
        cfg = replace(yeti_socket_config(), thermal=ThermalConfig())
        p = SimulatedProcessor(cfg)
        s = settle(p, compute_work, steps=500, dt=0.1)
        assert s.core_freq_hz == pytest.approx(2.8e9)

    def test_undersized_cooler_throttles(self, compute_work):
        cfg = replace(yeti_socket_config(), thermal=hot_config())
        p = SimulatedProcessor(cfg)
        s = settle(p, compute_work, steps=600, dt=0.1)
        assert p.thermal.prochot
        assert s.core_freq_hz <= 1.2e9 + 1e6

    def test_prochot_bounds_temperature(self, compute_work):
        # The safety property: with PROCHOT active the package may
        # limit-cycle around the trip but never runs away above it.
        cfg = replace(yeti_socket_config(), thermal=hot_config())
        p = SimulatedProcessor(cfg)
        settle(p, compute_work, steps=600, dt=0.1)
        peak = 0.0
        for _ in range(300):
            p.step(0.1, compute_work)
            peak = max(peak, p.thermal.temperature_c)
        assert peak < hot_config().t_prochot_c + 2.0
