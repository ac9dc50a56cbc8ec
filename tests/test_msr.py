"""MSR register file: bitfields, window codec, access semantics."""

import math

import pytest

from repro.errors import MSRError, MSRPermissionError
from repro.hardware.msr import (
    MSR,
    MSRFile,
    decode_rapl_window,
    encode_rapl_window,
    get_bits,
    set_bits,
)


class TestBitfields:
    def test_get_low_bits(self):
        assert get_bits(0b1011, 1, 0) == 0b11

    def test_get_high_bits(self):
        assert get_bits(0xFF00, 15, 8) == 0xFF

    def test_get_single_bit(self):
        assert get_bits(1 << 63, 63, 63) == 1

    def test_set_bits_replaces_field(self):
        assert set_bits(0xFFFF, 7, 4, 0) == 0xFF0F

    def test_set_bits_keeps_others(self):
        v = set_bits(0, 14, 8, 0x7F)
        assert get_bits(v, 14, 8) == 0x7F
        assert get_bits(v, 7, 0) == 0

    def test_set_bits_top_of_register(self):
        v = set_bits(0, 63, 63, 1)
        assert v == 1 << 63

    def test_roundtrip_many_fields(self):
        v = 0
        v = set_bits(v, 6, 0, 24)
        v = set_bits(v, 14, 8, 12)
        v = set_bits(v, 46, 32, 880)
        assert get_bits(v, 6, 0) == 24
        assert get_bits(v, 14, 8) == 12
        assert get_bits(v, 46, 32) == 880

    def test_invalid_range_rejected(self):
        with pytest.raises(MSRError):
            get_bits(0, 3, 5)
        with pytest.raises(MSRError):
            get_bits(0, 64, 0)

    def test_oversized_field_value_rejected(self):
        with pytest.raises(MSRError):
            set_bits(0, 3, 0, 16)


class TestRAPLWindowCodec:
    TIME_UNIT = 2.0**-10  # Skylake default ~976 us

    def test_one_second_roundtrip(self):
        field = encode_rapl_window(1.0, self.TIME_UNIT)
        assert decode_rapl_window(field, self.TIME_UNIT) == pytest.approx(1.0, rel=0.15)

    def test_ten_ms_roundtrip(self):
        field = encode_rapl_window(0.01, self.TIME_UNIT)
        assert decode_rapl_window(field, self.TIME_UNIT) == pytest.approx(0.01, rel=0.25)

    def test_decode_formula(self):
        # Y=0, Z=0 -> exactly one time unit.
        assert decode_rapl_window(0, self.TIME_UNIT) == pytest.approx(self.TIME_UNIT)

    def test_decode_z_fraction(self):
        # Z=1 adds a quarter: 2^0 * 1.25 * unit.
        field = (1 << 5) | 0
        assert decode_rapl_window(field, self.TIME_UNIT) == pytest.approx(
            1.25 * self.TIME_UNIT
        )

    def test_field_is_7_bits(self):
        with pytest.raises(MSRError):
            decode_rapl_window(0x80, self.TIME_UNIT)

    def test_encode_rejects_nonpositive(self):
        with pytest.raises(MSRError):
            encode_rapl_window(0.0, self.TIME_UNIT)

    def test_monotone_windows(self):
        w1 = decode_rapl_window(
            encode_rapl_window(0.01, self.TIME_UNIT), self.TIME_UNIT
        )
        w2 = decode_rapl_window(
            encode_rapl_window(1.0, self.TIME_UNIT), self.TIME_UNIT
        )
        assert w1 < w2

    @pytest.mark.parametrize(
        "seconds, unit",
        [
            (math.nan, TIME_UNIT),
            (math.inf, TIME_UNIT),
            (-math.inf, TIME_UNIT),
            (-1.0, TIME_UNIT),
            (1.0, math.nan),
            (1.0, math.inf),
            (1.0, 0.0),
        ],
    )
    def test_encode_rejects_non_finite(self, seconds, unit):
        with pytest.raises(MSRError):
            encode_rapl_window(seconds, unit)


def _brute_force_window(seconds, time_unit_s):
    """Every (Y, Z) pair in Y-major, Z-minor order; the first of the
    smallest errors wins."""
    best_field, best_err = 0, float("inf")
    for y in range(32):
        for z in range(4):
            w = (2.0**y) * (1.0 + z / 4.0) * time_unit_s
            err = abs(w - seconds)
            if err < best_err:
                best_err, best_field = err, (z << 5) | y
    return best_field


class TestRAPLWindowSearch:
    """The neighbour search returns exactly the brute force's field."""

    UNITS = (2.0**-10, 1e-3, 0.37, 5e-324, 1e-300, 1e300)

    def _check(self, seconds, unit):
        if 0.0 < seconds < math.inf:
            assert encode_rapl_window(seconds, unit) == _brute_force_window(
                seconds, unit
            ), (seconds, unit)

    @pytest.mark.parametrize("unit", UNITS)
    def test_dense_log_grid(self, unit):
        # 2**-60 .. 2**60 unit lengths, 16 points per octave.
        for i in range(-960, 961):
            self._check(unit * 2.0 ** (i / 16), unit)

    @pytest.mark.parametrize("unit", UNITS)
    def test_every_window_and_midpoint(self, unit):
        windows = [decode_rapl_window(f, unit) for f in range(0x80)]
        ascending = sorted(w for w in windows if w < math.inf)
        for lo, hi in zip(ascending, ascending[1:]):
            # The exact midpoint is a tie: the lower field must win.
            for seconds in (lo, (lo + hi) / 2, lo + (hi - lo) / 2):
                self._check(seconds, unit)
                self._check(math.nextafter(seconds, 0.0), unit)
                self._check(math.nextafter(seconds, math.inf), unit)
        self._check(ascending[-1], unit)

    def test_extremes(self):
        for seconds in (5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308):
            for unit in self.UNITS:
                self._check(seconds, unit)


class TestMSRFile:
    def test_define_read_write(self):
        f = MSRFile()
        f.define(0x10, initial=42)
        assert f.read(0x10) == 42
        f.write(0x10, 99)
        assert f.read(0x10) == 99

    def test_unknown_address_faults_on_read(self):
        with pytest.raises(MSRError, match="#GP"):
            MSRFile().read(0xDEAD)

    def test_unknown_address_faults_on_write(self):
        with pytest.raises(MSRError, match="#GP"):
            MSRFile().write(0xDEAD, 1)

    def test_double_define_rejected(self):
        f = MSRFile()
        f.define(0x10)
        with pytest.raises(MSRError):
            f.define(0x10)

    def test_readonly_register(self):
        f = MSRFile()
        f.define(0x611, writable=False)
        with pytest.raises(MSRPermissionError):
            f.write(0x611, 1)

    def test_write_hook_invoked(self):
        seen = []
        f = MSRFile()
        f.define(0x620, write_hook=seen.append)
        f.write(0x620, 0x1818)
        assert seen == [0x1818]

    def test_read_hook_supplies_value(self):
        f = MSRFile()
        f.define(0xE8, read_hook=lambda: 12345)
        assert f.read(0xE8) == 12345

    def test_poke_bypasses_hooks(self):
        seen = []
        f = MSRFile()
        f.define(0x10, write_hook=seen.append)
        f.poke(0x10, 7)
        assert f.read(0x10) == 7
        assert seen == []

    def test_value_must_fit_64_bits(self):
        f = MSRFile()
        f.define(0x10)
        with pytest.raises(MSRError):
            f.write(0x10, 1 << 64)

    def test_defined(self):
        f = MSRFile()
        f.define(0x10)
        assert f.defined(0x10)
        assert not f.defined(0x11)

    def test_well_known_addresses(self):
        assert MSR.MSR_UNCORE_RATIO_LIMIT == 0x620
        assert MSR.MSR_PKG_POWER_LIMIT == 0x610
        assert MSR.MSR_PKG_ENERGY_STATUS == 0x611
        assert MSR.MSR_RAPL_POWER_UNIT == 0x606
        assert MSR.MSR_DRAM_ENERGY_STATUS == 0x619
