"""Unit helpers and conversions used across the simulator.

The library stores physical quantities in SI base units as plain floats:

* time — seconds
* frequency — hertz
* power — watts
* energy — joules
* bandwidth — bytes per second

The helpers here exist to make call sites read unambiguously
(``ghz(2.4)`` instead of a bare ``2.4e9``) and to centralise the handful
of non-trivial conversions (RAPL register units, percent ratios).
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Scalar constructors
# ---------------------------------------------------------------------------

KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

KB = 1e3
MB = 1e6
GB = 1e9
KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3

MICRO = 1e-6
MILLI = 1e-3


def khz(value: float) -> float:
    """Kilohertz to hertz."""
    return value * KHZ


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return value * MHZ


def ghz(value: float) -> float:
    """Gigahertz to hertz."""
    return value * GHZ


def to_ghz(hz: float) -> float:
    """Hertz to gigahertz."""
    return hz / GHZ


def gb_per_s(value: float) -> float:
    """GB/s (decimal) to bytes per second."""
    return value * GB


def to_gb_per_s(bps: float) -> float:
    """Bytes per second to GB/s (decimal)."""
    return bps / GB


def gflops(value: float) -> float:
    """GFLOP/s to FLOP/s."""
    return value * 1e9


def to_gflops(flops: float) -> float:
    """FLOP/s to GFLOP/s."""
    return flops / 1e9


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * MILLI


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * MICRO


def watts_to_uw(watts: float) -> int:
    """Watts to integer microwatts (powercap sysfs unit)."""
    return int(round(watts / MICRO))


def uw_to_watts(uw: float) -> float:
    """Microwatts to watts."""
    return uw * MICRO


def seconds_to_us(seconds: float) -> int:
    """Seconds to integer microseconds (powercap sysfs time unit)."""
    return int(round(seconds / MICRO))


def us_to_seconds(micro: float) -> float:
    """Microseconds to seconds."""
    return micro * MICRO


# ---------------------------------------------------------------------------
# Ratios and percentages
# ---------------------------------------------------------------------------


def percent(fraction: float) -> float:
    """Fraction (0.05) to percent (5.0)."""
    return fraction * 100.0


def fraction(pct: float) -> float:
    """Percent (5.0) to fraction (0.05)."""
    return pct / 100.0


def ratio_over(value: float, reference: float) -> float:
    """``value / reference`` guarding against a zero reference."""
    if reference == 0.0:
        raise ZeroDivisionError("ratio_over: reference value is zero")
    return value / reference


def percent_change(value: float, reference: float) -> float:
    """Signed percent change of ``value`` relative to ``reference``.

    Positive means ``value`` is larger than ``reference`` — for an
    execution time this is a slowdown, for power it is an increase.
    """
    return percent(ratio_over(value, reference) - 1.0)


def percent_savings(value: float, reference: float) -> float:
    """Percent *reduction* of ``value`` relative to ``reference``.

    Positive means ``value`` improved (is lower than ``reference``):
    ``percent_savings(90, 100) == 10.0``.
    """
    return -percent_change(value, reference)


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into ``[lo, hi]``; ``lo`` must not exceed ``hi``."""
    if lo > hi:
        raise ValueError(f"clamp: lo={lo!r} > hi={hi!r}")
    return min(max(value, lo), hi)


def snap_to_step(value: float, step: float, *, base: float = 0.0) -> float:
    """Snap ``value`` to the nearest multiple of ``step`` above ``base``.

    Used for frequency steps (100 MHz) and power-cap steps (5 W) so that
    actuators only take values the hardware exposes.
    """
    if step <= 0:
        raise ValueError(f"snap_to_step: non-positive step {step!r}")
    return base + round((value - base) / step) * step


def smooth_max(a: float, b: float, sharpness: float = 6.0) -> float:
    """A differentiable approximation of ``max(a, b)`` (p-norm).

    Used by the roofline execution model: the true execution time of a
    phase lies between perfect compute/memory overlap (``max``) and no
    overlap (``a + b``); the p-norm with ``sharpness`` ≈ 6 sits close to
    ``max`` with a small additive penalty when the two terms are
    comparable, matching measured behaviour on balanced phases.
    """
    if a < 0 or b < 0:
        raise ValueError("smooth_max: operands must be non-negative")
    if a == 0.0 and b == 0.0:
        return 0.0
    m = max(a, b)
    # Factor out the max for numerical stability.
    return m * ((a / m) ** sharpness + (b / m) ** sharpness) ** (1.0 / sharpness)


def time_weighted_mean(values, durations) -> float:
    """Mean of ``values`` weighted by the matching ``durations``."""
    values = list(values)
    durations = list(durations)
    if len(values) != len(durations):
        raise ValueError("time_weighted_mean: length mismatch")
    total = math.fsum(durations)
    if total <= 0.0:
        raise ValueError("time_weighted_mean: total duration is not positive")
    return math.fsum(v * d for v, d in zip(values, durations)) / total


# ---------------------------------------------------------------------------
# Exact memo keys
# ---------------------------------------------------------------------------


def zero_signs(*values: float) -> tuple[float, ...]:
    """The sign of each value as ``±1.0``, for memo keys holding a zero.

    ``-0.0 == 0.0``, so the two zeros are one dict key, yet a zero's
    sign can survive arithmetic into a result.  A memo whose key holds a
    zero appends these signs, so each zero keeps its own entry.
    """
    return tuple(math.copysign(1.0, v) for v in values)


def nan_free(key: tuple) -> bool:
    """True when no element of ``key`` is NaN.

    NaN never equals itself, so a NaN key could only ever miss; memos
    check this before they store.
    """
    return all(v == v for v in key)
