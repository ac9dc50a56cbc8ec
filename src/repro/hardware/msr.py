"""Simulated model-specific registers (MSRs) with real bit layouts.

DUF drives the uncore through ``MSR_UNCORE_RATIO_LIMIT`` (0x620) and the
RAPL machinery lives behind 0x606/0x610/0x611/0x619.  This module
reproduces those registers bit-for-bit so the controller code exercises
the same encode/decode paths an on-metal implementation would: ratios in
100 MHz units, power limits in 1/8 W units, energy counters in
2⁻¹⁴ J units wrapping at 32 bits, and the RAPL ``2^Y·(1+Z/4)``
time-window float format.

The :class:`MSRFile` is a per-socket register store.  Devices (the RAPL
model, the P-state driver, …) attach read/write hooks so that register
traffic reaches the behavioural models, exactly like a kernel driver
sitting behind ``/dev/cpu/*/msr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import MSRError, MSRPermissionError

__all__ = [
    "MSR",
    "MSRFile",
    "get_bits",
    "set_bits",
    "encode_rapl_window",
    "decode_rapl_window",
]

# ---------------------------------------------------------------------------
# Architectural addresses (Intel SDM vol. 4, Skylake-SP)
# ---------------------------------------------------------------------------


class MSR:
    """Well-known MSR addresses used by the tool stack."""

    IA32_MPERF = 0xE7
    IA32_APERF = 0xE8
    IA32_PERF_STATUS = 0x198
    IA32_PERF_CTL = 0x199
    IA32_ENERGY_PERF_BIAS = 0x1B0
    #: Package C-state residency counters (Skylake-SP layout).
    MSR_PKG_C2_RESIDENCY = 0x60D
    MSR_PKG_C6_RESIDENCY = 0x3F9
    MSR_RAPL_POWER_UNIT = 0x606
    MSR_PKG_POWER_LIMIT = 0x610
    MSR_PKG_ENERGY_STATUS = 0x611
    MSR_DRAM_ENERGY_STATUS = 0x619
    MSR_UNCORE_RATIO_LIMIT = 0x620
    MSR_UNCORE_PERF_STATUS = 0x621
    IA32_HWP_REQUEST = 0x774
    #: Synthetic TPMI uncore-frequency-scaling register block: each die
    #: *i* gets a control register at ``TPMI_UFS_BASE + 2·i`` (min/max
    #: ratio, same 0x620 field layout) and a status register at
    #: ``TPMI_UFS_BASE + 2·i + 1`` (current ratio).
    TPMI_UFS_BASE = 0x2000


_MASK64 = (1 << 64) - 1


def get_bits(value: int, hi: int, lo: int) -> int:
    """Extract bits ``hi:lo`` (inclusive, SDM convention) of ``value``."""
    if not 0 <= lo <= hi <= 63:
        raise MSRError(f"invalid bit range {hi}:{lo}")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def set_bits(value: int, hi: int, lo: int, bits: int) -> int:
    """Return ``value`` with bits ``hi:lo`` replaced by ``bits``."""
    if not 0 <= lo <= hi <= 63:
        raise MSRError(f"invalid bit range {hi}:{lo}")
    width = hi - lo + 1
    if bits < 0 or bits >= (1 << width):
        raise MSRError(f"field value {bits!r} does not fit in {width} bits")
    mask = ((1 << width) - 1) << lo
    return (value & ~mask & _MASK64) | (bits << lo)


# ---------------------------------------------------------------------------
# RAPL time-window float format: window = 2^Y * (1 + Z/4) * time_unit
# ---------------------------------------------------------------------------


#: ``2^Y * (1 + Z/4)`` for every 7-bit field, in field-search order
#: (Y-major, Z-minor), which is also ascending order.
_WINDOW_STEPS = tuple(
    (2.0**y) * (1.0 + z / 4.0) for y in range(32) for z in range(4)
)


def encode_rapl_window(seconds: float, time_unit_s: float) -> int:
    """Encode a window length into the 7-bit RAPL ``(Y, Z)`` format.

    Returns the 7-bit field (Z in bits 6:5, Y in bits 4:0) whose decoded
    value is nearest ``seconds``; of equally near fields, the first in
    Y-major, Z-minor order wins.

    The representable windows ascend in that order, so the rounded
    errors fall and then rise.  The search starts at the field at or
    just below ``seconds``, found from the binary exponent of
    ``seconds / time_unit_s``, and steps to its neighbours while the
    error does not grow.
    """
    if not (0.0 < seconds < math.inf and 0.0 < time_unit_s < math.inf):
        raise MSRError(
            f"window {seconds!r} s and time unit {time_unit_s!r} s must be "
            "positive and finite"
        )

    def err(k: int) -> float:
        return abs(_WINDOW_STEPS[k] * time_unit_s - seconds)

    last = len(_WINDOW_STEPS) - 1
    ratio = seconds / time_unit_s
    if ratio < 1.0:
        k = 0
    elif ratio == math.inf:
        k = last
    else:
        mantissa, exp = math.frexp(ratio)  # ratio = mantissa * 2**exp
        k = min(4 * (exp - 1) + int((2.0 * mantissa - 1.0) * 4.0), last)
    # Past any run of ties to the first rise, then back to the first
    # of the smallest errors.
    while k < last and err(k + 1) <= err(k):
        k += 1
    while k > 0 and err(k - 1) <= err(k):
        k -= 1
    return ((k & 3) << 5) | (k >> 2)


def decode_rapl_window(field7: int, time_unit_s: float) -> float:
    """Decode the 7-bit RAPL ``(Y, Z)`` window field into seconds."""
    if field7 < 0 or field7 > 0x7F:
        raise MSRError(f"window field {field7!r} exceeds 7 bits")
    y = field7 & 0x1F
    z = (field7 >> 5) & 0x3
    return (2.0**y) * (1.0 + z / 4.0) * time_unit_s


# ---------------------------------------------------------------------------
# Register file
# ---------------------------------------------------------------------------


@dataclass
class _Register:
    value: int = 0
    writable: bool = True
    read_hook: Callable[[], int] | None = None
    write_hook: Callable[[int], None] | None = None


@dataclass
class MSRFile:
    """A per-socket MSR store with device hooks.

    Unknown addresses fault (raise :class:`MSRError`), mirroring the #GP
    a real ``rdmsr`` raises, so typos in controller code fail loudly.
    """

    _regs: dict[int, _Register] = field(default_factory=dict)

    def define(
        self,
        address: int,
        *,
        initial: int = 0,
        writable: bool = True,
        read_hook: Callable[[], int] | None = None,
        write_hook: Callable[[int], None] | None = None,
    ) -> None:
        """Register an MSR at ``address``.

        ``read_hook`` (if set) supplies the value on every read;
        ``write_hook`` observes the raw 64-bit value after it is stored.
        """
        if not 0 <= address <= 0xFFFFFFFF:
            raise MSRError(f"MSR address {address:#x} out of range")
        if address in self._regs:
            raise MSRError(f"MSR {address:#x} already defined")
        if not 0 <= initial <= _MASK64:
            raise MSRError("initial value must fit in 64 bits")
        self._regs[address] = _Register(
            value=initial, writable=writable, read_hook=read_hook, write_hook=write_hook
        )

    def defined(self, address: int) -> bool:
        return address in self._regs

    def read(self, address: int) -> int:
        """``rdmsr``: return the 64-bit register value."""
        reg = self._regs.get(address)
        if reg is None:
            raise MSRError(f"rdmsr {address:#x}: unknown MSR (#GP)")
        if reg.read_hook is not None:
            reg.value = reg.read_hook() & _MASK64
        return reg.value

    def write(self, address: int, value: int) -> None:
        """``wrmsr``: store a 64-bit value, invoking any device hook."""
        reg = self._regs.get(address)
        if reg is None:
            raise MSRError(f"wrmsr {address:#x}: unknown MSR (#GP)")
        if not reg.writable:
            raise MSRPermissionError(f"wrmsr {address:#x}: register is read-only")
        if not 0 <= value <= _MASK64:
            raise MSRError(f"wrmsr {address:#x}: value must fit in 64 bits")
        reg.value = value
        if reg.write_hook is not None:
            reg.write_hook(value)

    def poke(self, address: int, value: int) -> None:
        """Device-side update of a register without firing hooks.

        Behavioural models use this to refresh status registers
        (energy counters, APERF/MPERF) as simulated time advances.
        """
        reg = self._regs.get(address)
        if reg is None:
            raise MSRError(f"poke {address:#x}: unknown MSR")
        if not 0 <= value <= _MASK64:
            raise MSRError(f"poke {address:#x}: value must fit in 64 bits")
        reg.value = value
