"""RAPL (Running Average Power Limit) model: limits, counters, firmware.

RAPL exposes two package-domain constraints: a long-term limit PL1 that
the running average of power must respect over a ~1 s window, and a
short-term limit PL2 that bounds bursts over a ~10 ms window.  The
firmware enforces them with DVFS: every control period it derives the
allowed instantaneous power from the windowed average and clamps the
core frequency so demand fits.

The model reproduces the properties DUFP's cap logic depends on:

* **both constraints are real** — DUFP sets PL1 = PL2 on a decrease and
  re-opens PL2 after a reset once consumption falls below the cap;
* **limit writes latch with a delay** (``actuation_delay_s``), so the
  interval right after a decrease can consume above the new cap — the
  situation the paper handles by resetting the cap;
* **energy counters wrap**: 32-bit registers in units of 2⁻¹⁴ J, read
  exactly like ``MSR_PKG_ENERGY_STATUS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..config import RAPLConfig
from ..errors import RAPLError
from .msr import (
    MSR,
    MSRFile,
    decode_rapl_window,
    encode_rapl_window,
    get_bits,
    set_bits,
)

__all__ = ["PowerLimit", "RAPLDomain", "RAPLPackage"]


@dataclass
class PowerLimit:
    """One RAPL constraint (PL1 or PL2)."""

    limit_w: float
    window_s: float
    enabled: bool = True
    clamping: bool = True


@dataclass
class RAPLDomain:
    """An energy-metering domain (package or dram)."""

    name: str
    energy_unit_j: float
    counter_bits: int = 32
    _energy_j: float = 0.0

    def accumulate(self, energy_j: float) -> None:
        if energy_j < 0:
            raise RAPLError(f"{self.name}: negative energy increment")
        self._energy_j += energy_j

    @property
    def total_energy_j(self) -> float:
        """Un-wrapped total energy since construction (model-side view)."""
        return self._energy_j

    @property
    def counter(self) -> int:
        """The wrapped register value, in energy units."""
        units = int(self._energy_j / self.energy_unit_j)
        return units % (1 << self.counter_bits)

    def energy_between(self, counter_before: int, counter_after: int) -> float:
        """Joules between two counter reads, handling one wraparound."""
        span = 1 << self.counter_bits
        delta = (counter_after - counter_before) % span
        return delta * self.energy_unit_j


@dataclass
class RAPLPackage:
    """Package-domain RAPL: PL1/PL2 enforcement plus energy metering."""

    cfg: RAPLConfig
    pl1: PowerLimit = field(init=False)
    pl2: PowerLimit = field(init=False)
    package: RAPLDomain = field(init=False)
    dram: RAPLDomain = field(init=False)
    #: Exponential running average of package power per window.
    _avg_pl1_w: float = 0.0
    _avg_pl2_w: float = 0.0
    #: Pending limit write: (time_due_s, pl1, pl2).
    _pending: tuple[float, PowerLimit, PowerLimit] | None = None
    _now_s: float = 0.0
    #: Optional fault hook consulted on every limit write; returns
    #: ``(dropped, extra_delay_s)``.  A dropped write is silently lost
    #: — the firmware never latches the new limits, reproducing the
    #: paper's "the cap did not latch in time" failure — and a positive
    #: extra delay stretches this write's actuation latency.  ``None``
    #: (the default) is the fault-free fast path.
    latch_fault: Callable[[], tuple[bool, float]] | None = None
    #: The last step's ``(dt, pl1 window, pl2 window, a1, a2)``, with
    #: ``a = 1 - exp(-dt/window)`` the PL1/PL2 averaging factors.  Steps
    #: are a fixed ``dt`` except at phase boundaries and windows change
    #: only on limit writes, so the next step almost always reuses them.
    _last_decay: tuple[float, float, float, float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.cfg.validate()
        self.pl1 = PowerLimit(self.cfg.pl1_default_w, self.cfg.pl1_window_s)
        self.pl2 = PowerLimit(self.cfg.pl2_default_w, self.cfg.pl2_window_s)
        self.package = RAPLDomain(
            "package", self.cfg.energy_unit_j, self.cfg.counter_bits
        )
        self.dram = RAPLDomain("dram", self.cfg.energy_unit_j, self.cfg.counter_bits)
        self._avg_pl1_w = self.cfg.pl1_default_w * 0.8
        self._avg_pl2_w = self.cfg.pl1_default_w * 0.8

    # -- limit programming -------------------------------------------------------

    def set_limits(
        self,
        pl1_w: float,
        pl2_w: float,
        *,
        pl1_window_s: float | None = None,
        pl2_window_s: float | None = None,
    ) -> None:
        """Program both constraints; they latch after the actuation delay.

        A window of ``None`` (or ``0``) keeps that constraint's current
        window; any other window must be positive and finite.
        """
        self.check_limits(pl1_w, pl2_w)
        for window in (pl1_window_s, pl2_window_s):
            # NaN, ±inf and negatives would poison the running averages.
            if window and not 0.0 < window < math.inf:
                raise RAPLError(
                    f"time window {window!r} s is not positive and finite"
                )
        extra_delay_s = 0.0
        if self.latch_fault is not None:
            dropped, extra_delay_s = self.latch_fault()
            if dropped:
                return
        new_pl1 = PowerLimit(pl1_w, pl1_window_s or self.pl1.window_s)
        new_pl2 = PowerLimit(pl2_w, pl2_window_s or self.pl2.window_s)
        self._pending = (
            self._now_s + self.cfg.actuation_delay_s + extra_delay_s,
            new_pl1,
            new_pl2,
        )

    def check_limits(self, pl1_w: float, pl2_w: float) -> None:
        """Raise :class:`RAPLError` on limits :meth:`set_limits` refuses."""
        for w in (pl1_w, pl2_w):
            if not self.cfg.min_limit_w <= w <= 10 * self.cfg.pl2_default_w:
                raise RAPLError(f"power limit {w!r} W outside accepted range")
        if pl1_w > pl2_w:
            raise RAPLError(f"PL1 ({pl1_w} W) must not exceed PL2 ({pl2_w} W)")

    def reset_limits(self) -> None:
        """Restore both constraints to their architecture defaults."""
        self.set_limits(
            self.cfg.pl1_default_w,
            self.cfg.pl2_default_w,
            pl1_window_s=self.cfg.pl1_window_s,
            pl2_window_s=self.cfg.pl2_window_s,
        )

    @property
    def effective_pl1_w(self) -> float:
        return self.pl1.limit_w

    @property
    def effective_pl2_w(self) -> float:
        return self.pl2.limit_w

    @property
    def pending_pl1_w(self) -> float | None:
        """The PL1 limit a staged write will latch, or ``None`` when no
        write is waiting out its actuation delay."""
        pending = self._pending
        return pending[1].limit_w if pending is not None else None

    # -- firmware step -------------------------------------------------------------

    def allowed_power(self) -> float:
        """Instantaneous power budget derived from the windowed averages.

        While the long-window average sits below PL1 the package may
        burst up to PL2; once it reaches PL1 the budget converges to
        PL1.  The ``2×`` headroom gain reproduces the observed RAPL
        behaviour of allowing a short overshoot proportional to the
        accumulated deficit.
        """
        if not self.pl1.enabled and not self.pl2.enabled:
            return math.inf
        budget = math.inf
        if self.pl1.enabled:
            headroom = self.pl1.limit_w - self._avg_pl1_w
            budget = self.pl1.limit_w + 2.0 * max(headroom, 0.0)
            if headroom < 0.0:
                # Average above the limit: pull below PL1 to recover.
                budget = self.pl1.limit_w + 2.0 * headroom
                budget = max(budget, 0.0)
        if self.pl2.enabled:
            budget = min(budget, self.pl2.limit_w)
        return budget

    def step(self, dt_s: float, package_power_w: float, dram_power_w: float) -> None:
        """Advance time: latch pending limits, meter energy, update averages."""
        if not dt_s > 0:  # NaN too: it would poison energy and averages
            raise RAPLError(f"step: dt {dt_s!r} is not positive")
        if not (package_power_w >= 0 and dram_power_w >= 0):
            raise RAPLError(
                f"step: power ({package_power_w!r} W package, "
                f"{dram_power_w!r} W dram) is not non-negative"
            )
        self._now_s += dt_s
        if self._pending is not None and self._now_s >= self._pending[0]:
            _, self.pl1, self.pl2 = self._pending
            self._pending = None
        self.package.accumulate(package_power_w * dt_s)
        self.dram.accumulate(dram_power_w * dt_s)
        w1, w2 = self.pl1.window_s, self.pl2.window_s
        last = self._last_decay
        # Float ``==``, not tuple ``==``: a NaN window never matches.
        if (
            last is not None
            and last[0] == dt_s
            and last[1] == w1
            and last[2] == w2
        ):
            a1, a2 = last[3], last[4]
        else:
            a1 = 1.0 - math.exp(-dt_s / w1)
            a2 = 1.0 - math.exp(-dt_s / w2)
            self._last_decay = (dt_s, w1, w2, a1, a2)
        self._avg_pl1_w += a1 * (package_power_w - self._avg_pl1_w)
        self._avg_pl2_w += a2 * (package_power_w - self._avg_pl2_w)

    # -- MSR wiring ------------------------------------------------------------------

    def attach_msrs(self, msrs: MSRFile) -> None:
        """Expose 0x606/0x610/0x611/0x619 with architectural layouts."""
        pu = int(round(-math.log2(self.cfg.power_unit_w)))
        esu = int(round(-math.log2(self.cfg.energy_unit_j)))
        tu = 10  # 2**-10 s ≈ 976 µs, the Skylake default time unit
        unit_reg = set_bits(set_bits(set_bits(0, 3, 0, pu), 12, 8, esu), 19, 16, tu)
        time_unit_s = 2.0**-tu

        def _encode_limit_reg() -> int:
            v = 0
            v = set_bits(v, 14, 0, int(round(self.pl1.limit_w / self.cfg.power_unit_w)))
            v = set_bits(v, 15, 15, int(self.pl1.enabled))
            v = set_bits(v, 16, 16, int(self.pl1.clamping))
            v = set_bits(v, 23, 17, encode_rapl_window(self.pl1.window_s, time_unit_s))
            v = set_bits(v, 46, 32, int(round(self.pl2.limit_w / self.cfg.power_unit_w)))
            v = set_bits(v, 47, 47, int(self.pl2.enabled))
            v = set_bits(v, 48, 48, int(self.pl2.clamping))
            v = set_bits(v, 55, 49, encode_rapl_window(self.pl2.window_s, time_unit_s))
            return v

        def _write_limit_reg(value: int) -> None:
            pl1_w = get_bits(value, 14, 0) * self.cfg.power_unit_w
            pl2_w = get_bits(value, 46, 32) * self.cfg.power_unit_w
            pl1_win = decode_rapl_window(get_bits(value, 23, 17), time_unit_s)
            pl2_win = decode_rapl_window(get_bits(value, 55, 49), time_unit_s)
            self.set_limits(
                pl1_w, pl2_w, pl1_window_s=pl1_win, pl2_window_s=pl2_win
            )

        msrs.define(MSR.MSR_RAPL_POWER_UNIT, initial=unit_reg, writable=False)
        msrs.define(
            MSR.MSR_PKG_POWER_LIMIT,
            initial=_encode_limit_reg(),
            read_hook=_encode_limit_reg,
            write_hook=_write_limit_reg,
        )
        msrs.define(
            MSR.MSR_PKG_ENERGY_STATUS,
            writable=False,
            read_hook=lambda: self.package.counter,
        )
        msrs.define(
            MSR.MSR_DRAM_ENERGY_STATUS,
            writable=False,
            read_hook=lambda: self.dram.counter,
        )
