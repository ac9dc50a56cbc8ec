"""RAPL model: limits, latching, energy counters, MSR layout."""

import math

import pytest

from repro.config import RAPLConfig
from repro.errors import RAPLError
from repro.hardware.msr import MSR, MSRFile, get_bits, set_bits
from repro.hardware.rapl import RAPLDomain, RAPLPackage


@pytest.fixture
def rapl():
    return RAPLPackage(RAPLConfig())


class TestDomainCounters:
    def test_energy_accumulates(self):
        d = RAPLDomain("pkg", 2.0**-14)
        d.accumulate(1.0)
        assert d.total_energy_j == pytest.approx(1.0)

    def test_counter_in_units(self):
        d = RAPLDomain("pkg", 2.0**-14)
        d.accumulate(1.0)
        assert d.counter == int(2**14)

    def test_counter_wraps_at_32_bits(self):
        d = RAPLDomain("pkg", 2.0**-14)
        wrap_j = (1 << 32) * 2.0**-14  # ~262 kJ
        d.accumulate(wrap_j + 16.0)
        assert d.counter == pytest.approx(16.0 * 2**14, abs=2)

    def test_energy_between_handles_wrap(self):
        d = RAPLDomain("pkg", 2.0**-14)
        before = (1 << 32) - 100
        after = 50
        assert d.energy_between(before, after) == pytest.approx(150 * 2.0**-14)

    def test_negative_energy_rejected(self):
        with pytest.raises(RAPLError):
            RAPLDomain("pkg", 1.0).accumulate(-1.0)


class TestLimitProgramming:
    def test_defaults(self, rapl):
        assert rapl.pl1.limit_w == 125.0
        assert rapl.pl2.limit_w == 150.0

    def test_set_limits_latches_after_delay(self, rapl):
        rapl.set_limits(100.0, 100.0)
        # Before the actuation delay elapses the old limits hold.
        assert rapl.pl1.limit_w == 125.0
        rapl.step(0.01, 100.0, 20.0)
        assert rapl.pl1.limit_w == 100.0
        assert rapl.pl2.limit_w == 100.0

    def test_reset_restores_defaults(self, rapl):
        rapl.set_limits(80.0, 80.0)
        rapl.step(0.01, 100.0, 20.0)
        rapl.reset_limits()
        rapl.step(0.01, 100.0, 20.0)
        assert rapl.pl1.limit_w == 125.0
        assert rapl.pl2.limit_w == 150.0

    def test_pl1_above_pl2_rejected(self, rapl):
        with pytest.raises(RAPLError):
            rapl.set_limits(120.0, 100.0)

    def test_below_hardware_floor_rejected(self, rapl):
        with pytest.raises(RAPLError):
            rapl.set_limits(10.0, 10.0)

    def test_newer_write_supersedes_pending(self, rapl):
        rapl.set_limits(100.0, 100.0)
        rapl.set_limits(90.0, 90.0)
        rapl.step(0.01, 100.0, 20.0)
        assert rapl.pl1.limit_w == 90.0

    @pytest.mark.parametrize("window", [math.nan, -1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["pl1_window_s", "pl2_window_s"])
    def test_bad_window_rejected(self, rapl, which, window):
        with pytest.raises(RAPLError, match=repr(window)):
            rapl.set_limits(100.0, 100.0, **{which: window})
        # Nothing was queued: five steps at 90 W behave as on a fresh socket.
        fresh = RAPLPackage(RAPLConfig())
        for r in (rapl, fresh):
            for _ in range(5):
                r.step(0.01, 90.0, 10.0)
        assert rapl._avg_pl1_w == fresh._avg_pl1_w
        assert rapl.allowed_power() == fresh.allowed_power()

    @pytest.mark.parametrize("window", [None, 0.0])
    def test_none_or_zero_window_keeps_current(self, rapl, window):
        rapl.set_limits(100.0, 100.0, pl1_window_s=window, pl2_window_s=window)
        rapl.step(0.01, 100.0, 20.0)
        assert rapl.pl1.window_s == RAPLConfig().pl1_window_s
        assert rapl.pl2.window_s == RAPLConfig().pl2_window_s

    def test_good_window_latches(self, rapl):
        rapl.set_limits(100.0, 100.0, pl1_window_s=0.5, pl2_window_s=0.002)
        rapl.step(0.01, 100.0, 20.0)
        assert (rapl.pl1.window_s, rapl.pl2.window_s) == (0.5, 0.002)


class TestBudget:
    def test_headroom_allows_burst_up_to_pl2(self, rapl):
        # Average well below PL1: budget hits the PL2 ceiling.
        for _ in range(300):
            rapl.step(0.01, 60.0, 10.0)
        assert rapl.allowed_power() == pytest.approx(150.0)

    def test_sustained_load_converges_to_pl1(self, rapl):
        for _ in range(1000):
            budget = rapl.allowed_power()
            rapl.step(0.01, min(budget, 200.0), 20.0)
        assert rapl._avg_pl1_w <= 126.5

    def test_overage_pulls_budget_below_pl1(self, rapl):
        for _ in range(200):
            rapl.step(0.01, 160.0, 20.0)
        assert rapl.allowed_power() < 125.0

    def test_disabled_limits_give_infinite_budget(self, rapl):
        rapl.pl1.enabled = False
        rapl.pl2.enabled = False
        assert math.isinf(rapl.allowed_power())

    def test_step_validates_inputs(self, rapl):
        with pytest.raises(RAPLError):
            rapl.step(0.0, 100.0, 10.0)
        with pytest.raises(RAPLError):
            rapl.step(0.01, -1.0, 10.0)

    @pytest.mark.parametrize(
        "args",
        [
            (float("nan"), 100.0, 10.0),
            (0.01, float("nan"), 10.0),
            (0.01, 100.0, float("nan")),
        ],
    )
    def test_step_rejects_nan(self, rapl, args):
        with pytest.raises(RAPLError):
            rapl.step(*args)
        assert rapl.package.total_energy_j == 0.0
        assert rapl.dram.total_energy_j == 0.0
        assert not math.isnan(rapl._avg_pl1_w)


class TestEnergyMetering:
    def test_package_energy_integral(self, rapl):
        for _ in range(100):
            rapl.step(0.01, 100.0, 25.0)
        assert rapl.package.total_energy_j == pytest.approx(100.0)
        assert rapl.dram.total_energy_j == pytest.approx(25.0)


class TestMSRLayout:
    @pytest.fixture
    def wired(self, rapl):
        msrs = MSRFile()
        rapl.attach_msrs(msrs)
        return rapl, msrs

    def test_power_unit_register(self, wired):
        _, msrs = wired
        v = msrs.read(MSR.MSR_RAPL_POWER_UNIT)
        assert get_bits(v, 3, 0) == 3  # 1/8 W
        assert get_bits(v, 12, 8) == 14  # 2^-14 J
        assert get_bits(v, 19, 16) == 10  # ~976 us

    def test_limit_register_encodes_defaults(self, wired):
        _, msrs = wired
        v = msrs.read(MSR.MSR_PKG_POWER_LIMIT)
        assert get_bits(v, 14, 0) * 0.125 == pytest.approx(125.0)
        assert get_bits(v, 46, 32) * 0.125 == pytest.approx(150.0)
        assert get_bits(v, 15, 15) == 1  # PL1 enabled
        assert get_bits(v, 47, 47) == 1  # PL2 enabled

    def test_limit_register_write_programs_limits(self, wired):
        rapl, msrs = wired
        v = msrs.read(MSR.MSR_PKG_POWER_LIMIT)
        v = set_bits(v, 14, 0, int(100 / 0.125))
        v = set_bits(v, 46, 32, int(110 / 0.125))
        msrs.write(MSR.MSR_PKG_POWER_LIMIT, v)
        rapl.step(0.01, 100.0, 10.0)
        assert rapl.pl1.limit_w == pytest.approx(100.0)
        assert rapl.pl2.limit_w == pytest.approx(110.0)

    def test_energy_status_wraps(self, wired):
        rapl, msrs = wired
        assert msrs.read(MSR.MSR_PKG_ENERGY_STATUS) == 0
        rapl.step(1.0, 100.0, 10.0)
        assert msrs.read(MSR.MSR_PKG_ENERGY_STATUS) == rapl.package.counter

    def test_dram_energy_status(self, wired):
        rapl, msrs = wired
        rapl.step(1.0, 100.0, 30.0)
        assert msrs.read(MSR.MSR_DRAM_ENERGY_STATUS) == rapl.dram.counter
