"""Core DVFS: P-states, governors, clamps, APERF/MPERF."""

import pytest

from repro.config import CoreConfig
from repro.errors import FrequencyError
from repro.hardware.dvfs import PerformanceGovernor, PowersaveGovernor, PStateDriver
from repro.hardware.msr import MSR, MSRFile, set_bits


@pytest.fixture
def driver():
    return PStateDriver(CoreConfig())


class TestPStates:
    def test_pstate_grid(self, driver):
        states = driver.available_pstates()
        assert states[0] == pytest.approx(1.0e9)
        assert states[-1] == pytest.approx(2.8e9)
        assert len(states) == 19  # 1.0 .. 2.8 in 100 MHz steps

    def test_snap_floors_to_grid(self, driver):
        assert driver.snap(2.349e9) == pytest.approx(2.3e9)

    def test_snap_clamps_low(self, driver):
        assert driver.snap(0.5e9) == pytest.approx(1.0e9)

    def test_snap_clamps_high(self, driver):
        assert driver.snap(5e9) == pytest.approx(2.8e9)


class TestGovernors:
    def test_performance_requests_max(self, driver):
        assert driver.effective_freq() == pytest.approx(2.8e9)

    def test_powersave_requests_min(self):
        d = PStateDriver(CoreConfig(), governor=PowersaveGovernor())
        assert d.effective_freq() == pytest.approx(1.0e9)

    def test_governor_names(self):
        assert PerformanceGovernor().name == "performance"
        assert PowersaveGovernor().name == "powersave"


class TestClamps:
    def test_rapl_clamp_limits_frequency(self, driver):
        driver.set_rapl_clamp(2.0e9)
        assert driver.effective_freq() == pytest.approx(2.0e9)

    def test_rapl_clamp_clamped_to_range(self, driver):
        driver.set_rapl_clamp(0.1e9)
        assert driver.effective_freq() == pytest.approx(1.0e9)

    def test_clear_rapl_clamp(self, driver):
        driver.set_rapl_clamp(1.5e9)
        driver.clear_rapl_clamp()
        assert driver.effective_freq() == pytest.approx(2.8e9)

    def test_lowest_clamp_wins(self, driver):
        driver.set_rapl_clamp(2.2e9)
        driver.perf_ctl_ceiling_hz = 2.0e9
        assert driver.effective_freq() == pytest.approx(2.0e9)


class TestAperfMperf:
    def test_accumulation_at_full_speed(self, driver):
        driver.advance(1.0)
        assert driver.aperf == pytest.approx(2.8e9, rel=1e-9)
        assert driver.mperf == pytest.approx(2.1e9, rel=1e-9)

    def test_measured_freq_formula(self, driver):
        driver.advance(1.0)
        f = driver.measured_freq(driver.aperf, driver.mperf)
        assert f == pytest.approx(2.8e9, rel=1e-6)

    def test_measured_freq_under_clamp(self, driver):
        driver.set_rapl_clamp(1.4e9)
        driver.advance(2.0)
        f = driver.measured_freq(driver.aperf, driver.mperf)
        assert f == pytest.approx(1.4e9, rel=1e-6)

    def test_negative_dt_rejected(self, driver):
        with pytest.raises(FrequencyError):
            driver.advance(-0.1)

    def test_nan_dt_rejected(self, driver):
        with pytest.raises(FrequencyError):
            driver.advance(float("nan"))
        assert driver.aperf == 0 and driver.mperf == 0

    def test_resolved_clock_matches_effective_freq(self, driver):
        driver.set_rapl_clamp(1.4e9)
        other = PStateDriver(CoreConfig())
        other.set_rapl_clamp(1.4e9)
        driver.advance(0.01)
        other.advance(0.01, other.effective_freq())
        assert driver._aperf_cycles == other._aperf_cycles

    def test_zero_mperf_delta_rejected(self, driver):
        with pytest.raises(FrequencyError):
            driver.measured_freq(100, 0)


class TestMSRWiring:
    @pytest.fixture
    def wired(self, driver):
        msrs = MSRFile()
        driver.attach_msrs(msrs)
        return driver, msrs

    def test_perf_status_reports_ratio(self, wired):
        driver, msrs = wired
        status = msrs.read(MSR.IA32_PERF_STATUS)
        assert (status >> 8) & 0xFF == 28  # 2.8 GHz = ratio 28

    def test_perf_ctl_sets_ceiling(self, wired):
        driver, msrs = wired
        msrs.write(MSR.IA32_PERF_CTL, set_bits(0, 15, 8, 20))
        assert driver.effective_freq() == pytest.approx(2.0e9)

    def test_perf_ctl_zero_ratio_faults(self, wired):
        _, msrs = wired
        with pytest.raises(FrequencyError):
            msrs.write(MSR.IA32_PERF_CTL, 0)

    def test_aperf_mperf_registers(self, wired):
        driver, msrs = wired
        driver.advance(0.5)
        assert msrs.read(MSR.IA32_APERF) == driver.aperf
        assert msrs.read(MSR.IA32_MPERF) == driver.mperf

    def test_aperf_is_read_only(self, wired):
        _, msrs = wired
        from repro.errors import MSRPermissionError

        with pytest.raises(MSRPermissionError):
            msrs.write(MSR.IA32_APERF, 0)
