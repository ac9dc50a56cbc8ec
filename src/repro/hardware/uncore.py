"""Uncore clock domain and the default hardware uncore governor.

The uncore (LLC, mesh interconnect, memory controllers) has its own
clock, bounded by ``MSR_UNCORE_RATIO_LIMIT`` (0x620): bits 6:0 hold the
maximum ratio and bits 14:8 the minimum ratio, both in 100 MHz units.
Writing min == max pins the uncore — this is how DUF actuates it.

When the window is left open the hardware's own governor (UFS) picks a
frequency inside it from observed stall/traffic pressure.  The paper's
baseline ("default uncore frequency scaling") is exactly this governor;
its laziness — it tracks demand only coarsely and keeps the uncore high
whenever any traffic flows — is what DUF improves on, so the model here
errs on the high side the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import UncoreConfig
from ..errors import FrequencyError
from .msr import MSR, MSRFile, get_bits, set_bits

__all__ = [
    "UncoreDriver",
    "DefaultUncoreGovernor",
    "TpmiUncore",
    "build_uncore",
]

#: One uncore ratio unit corresponds to 100 MHz.
RATIO_HZ = 100e6


@dataclass
class DefaultUncoreGovernor:
    """The stock hardware UFS policy.

    The real firmware raises the uncore with *any* pressure signal —
    memory traffic or plain core activity — and keeps a generous
    guard-band, so under the ``performance`` cpufreq governor the
    uncore rides near its window maximum whenever the socket is busy,
    even for compute-only work that gets nothing from it.  That
    pessimism is the waste DUF exploits, and the paper's observation
    that the default policy "fails to adapt to the application needs".
    """

    #: Traffic utilisation above which the governor requests the window max.
    saturation_util: float = 0.25
    #: Demand floor applied whenever the cores are busy at all.
    busy_floor: float = 0.95
    #: Core-activity level that counts as "busy".
    busy_threshold: float = 0.02
    #: Per-step smoothing factor (0 = frozen, 1 = immediate).
    response: float = 0.6
    _current_demand: float = 0.0

    def target_freq(
        self, traffic_util: float, busy_util: float, lo_hz: float, hi_hz: float
    ) -> float:
        """Pick a frequency in ``[lo_hz, hi_hz]`` for the observed pressure."""
        if not 0.0 <= traffic_util <= 1.0:
            raise FrequencyError(
                f"traffic utilisation {traffic_util!r} outside [0, 1]"
            )
        if not 0.0 <= busy_util <= 1.0:
            raise FrequencyError(f"busy utilisation {busy_util!r} outside [0, 1]")
        demand = min(traffic_util / self.saturation_util, 1.0)
        if busy_util >= self.busy_threshold:
            demand = max(demand, self.busy_floor)
        self._current_demand += self.response * (demand - self._current_demand)
        return lo_hz + self._current_demand * (hi_hz - lo_hz)


@dataclass
class UncoreDriver:
    """Uncore clock domain of one socket."""

    config: UncoreConfig
    governor: DefaultUncoreGovernor = field(default_factory=DefaultUncoreGovernor)
    #: Window programmed through MSR 0x620 (Hz).
    window_lo_hz: float = 0.0
    window_hi_hz: float = 0.0
    _freq_hz: float = 0.0
    #: Optional EPB/EPP bias: a callable returning the factor (in
    #: ``[0, 1]``) by which the governor's effective window ceiling is
    #: pulled toward the floor.  ``None`` (the default, and the only
    #: state without an :class:`~repro.config.EPBConfig`) keeps the
    #: legacy window arithmetic untouched.
    epp_bias: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        self.config.validate()
        if self.window_lo_hz == 0.0:
            self.window_lo_hz = self.config.min_freq_hz
        if self.window_hi_hz == 0.0:
            self.window_hi_hz = self.config.max_freq_hz
        if self._freq_hz == 0.0:
            self._freq_hz = self.window_hi_hz

    # -- ratio grid ----------------------------------------------------------

    def snap(self, freq_hz: float) -> float:
        """Snap onto the 100 MHz uncore ratio grid within the config range."""
        cfg = self.config
        if freq_hz <= cfg.min_freq_hz:
            return cfg.min_freq_hz
        if freq_hz >= cfg.max_freq_hz:
            return cfg.max_freq_hz
        steps = round((freq_hz - cfg.min_freq_hz) / cfg.step_hz)
        return cfg.min_freq_hz + steps * cfg.step_hz

    def available_frequencies(self) -> tuple[float, ...]:
        cfg = self.config
        n = int(round((cfg.max_freq_hz - cfg.min_freq_hz) / cfg.step_hz))
        return tuple(cfg.min_freq_hz + i * cfg.step_hz for i in range(n + 1))

    # -- window control (what DUF manipulates) --------------------------------

    def set_window(self, lo_hz: float, hi_hz: float) -> None:
        """Program the min/max ratio window; pins the clock when lo == hi."""
        lo = self.snap(lo_hz)
        hi = self.snap(hi_hz)
        if lo > hi:
            raise FrequencyError(f"uncore window inverted: {lo_hz!r} > {hi_hz!r}")
        self.window_lo_hz = lo
        self.window_hi_hz = hi
        self._freq_hz = min(max(self._freq_hz, lo), hi)

    def pin(self, freq_hz: float) -> None:
        """Pin the uncore to a single frequency (min == max)."""
        f = self.snap(freq_hz)
        self.set_window(f, f)
        self._freq_hz = f

    def release(self) -> None:
        """Re-open the full hardware window (default UFS resumes control)."""
        self.set_window(self.config.min_freq_hz, self.config.max_freq_hz)

    @property
    def frequency_hz(self) -> float:
        return self._freq_hz

    @property
    def pinned(self) -> bool:
        return self.window_lo_hz == self.window_hi_hz

    def advance(self, traffic_util: float, busy_util: float = 0.0) -> None:
        """One simulation step: let the HW governor move inside the window."""
        if self.window_lo_hz == self.window_hi_hz:  # pinned
            self._freq_hz = self.window_lo_hz
            return
        hi_hz = self.window_hi_hz
        if self.epp_bias is not None:
            # An energy-leaning EPP shrinks the ceiling the governor may
            # reach; the programmed window (what 0x620 reads back) is
            # unchanged, exactly like firmware-mediated HWP.
            hi_hz = self.window_lo_hz + (
                self.window_hi_hz - self.window_lo_hz
            ) * self.epp_bias()
        target = self.governor.target_freq(
            traffic_util, busy_util, self.window_lo_hz, hi_hz
        )
        self._freq_hz = self.snap(target)

    # -- MSR wiring ----------------------------------------------------------

    def attach_msrs(self, msrs: MSRFile) -> None:
        """Expose MSR_UNCORE_RATIO_LIMIT / MSR_UNCORE_PERF_STATUS."""

        def _write_ratio_limit(value: int) -> None:
            max_ratio = get_bits(value, 6, 0)
            min_ratio = get_bits(value, 14, 8)
            if max_ratio == 0:
                raise FrequencyError("MSR 0x620: zero max ratio")
            self.set_window(min_ratio * RATIO_HZ, max_ratio * RATIO_HZ)

        def _read_perf_status() -> int:
            return set_bits(0, 6, 0, int(round(self._freq_hz / RATIO_HZ)))

        initial = set_bits(
            set_bits(0, 6, 0, int(round(self.config.max_freq_hz / RATIO_HZ))),
            14,
            8,
            int(round(self.config.min_freq_hz / RATIO_HZ)),
        )
        msrs.define(
            MSR.MSR_UNCORE_RATIO_LIMIT, initial=initial, write_hook=_write_ratio_limit
        )
        msrs.define(
            MSR.MSR_UNCORE_PERF_STATUS, writable=False, read_hook=_read_perf_status
        )


@dataclass
class TpmiUncore(UncoreDriver):
    """Multi-die uncore: N independently clocked dies behind one socket.

    TPMI-era parts (Sapphire Rapids onward, pepc's ``Tpmi``/``Uncore``
    modules) expose one uncore frequency domain per compute die.  Each
    die here is a full :class:`UncoreDriver` with its own hardware
    governor; memory traffic lands unevenly across dies according to
    the configured ``die_traffic_spread`` (die 0 hottest), so under the
    stock governor the dies genuinely declock independently.

    Compatibility surface: the legacy socket-wide MSR 0x620 *broadcasts*
    its window to every die (how legacy tooling drives TPMI parts), MSR
    0x621 reads the die-weighted aggregate frequency, and each die *i*
    additionally gets a TPMI-style control/status register pair at
    ``TPMI_UFS_BASE + 2i``.  Single-die configs never construct this
    class — :func:`build_uncore` returns the plain driver, keeping the
    legacy path bit-for-bit.
    """

    dies: list[UncoreDriver] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.config.die_count
        if n < 2:
            raise FrequencyError(
                "TpmiUncore requires die_count >= 2; the single-die case "
                "is the legacy UncoreDriver"
            )
        if not self.dies:
            self.dies = [
                UncoreDriver(self.config, governor=DefaultUncoreGovernor())
                for _ in range(n)
            ]

    # -- die layout -----------------------------------------------------------

    def die_weight(self, die: int) -> float:
        """Traffic multiplier of one die (weights average to 1.0)."""
        n = len(self.dies)
        spread = self.config.die_traffic_spread
        return 1.0 + spread * (n - 1 - 2 * die) / (n - 1)

    def die_traffic(self, traffic_util: float, die: int) -> float:
        """The share of socket traffic pressure one die observes."""
        return min(max(traffic_util * self.die_weight(die), 0.0), 1.0)

    def die_loads(self, traffic_util: float) -> tuple[tuple[float, float], ...]:
        """Per-die ``(frequency_hz, traffic_util)`` pairs for the power model."""
        return tuple(
            (d.frequency_hz, self.die_traffic(traffic_util, i))
            for i, d in enumerate(self.dies)
        )

    @property
    def die_frequencies(self) -> tuple[float, ...]:
        return tuple(d.frequency_hz for d in self.dies)

    def _aggregate(self) -> float:
        """Die-weight-averaged frequency: what socket-wide telemetry sees."""
        n = len(self.dies)
        return (
            sum(d.frequency_hz * self.die_weight(i) for i, d in enumerate(self.dies))
            / n
        )

    # -- overridden domain control --------------------------------------------

    def set_window(self, lo_hz: float, hi_hz: float) -> None:
        """Broadcast the socket-wide window (0x620 semantics) to every die."""
        super().set_window(lo_hz, hi_hz)
        for d in self.dies:
            d.set_window(lo_hz, hi_hz)
        self._freq_hz = self._aggregate()

    def advance(self, traffic_util: float, busy_util: float = 0.0) -> None:
        """Advance every die's governor under its share of the traffic."""
        for i, d in enumerate(self.dies):
            d.epp_bias = self.epp_bias
            d.advance(self.die_traffic(traffic_util, i), busy_util)
        self._freq_hz = self._aggregate()

    # -- MSR wiring -----------------------------------------------------------

    def attach_msrs(self, msrs: MSRFile) -> None:
        """Legacy 0x620/0x621 plus one TPMI register pair per die."""
        super().attach_msrs(msrs)
        for i, d in enumerate(self.dies):
            self._attach_die(msrs, i, d)

    def _attach_die(self, msrs: MSRFile, index: int, die: UncoreDriver) -> None:
        def _write_control(value: int) -> None:
            max_ratio = get_bits(value, 6, 0)
            min_ratio = get_bits(value, 14, 8)
            if max_ratio == 0:
                raise FrequencyError(
                    f"TPMI die {index}: zero max ratio"
                )
            die.set_window(min_ratio * RATIO_HZ, max_ratio * RATIO_HZ)
            self._freq_hz = self._aggregate()

        def _read_status() -> int:
            return set_bits(0, 6, 0, int(round(die.frequency_hz / RATIO_HZ)))

        initial = set_bits(
            set_bits(0, 6, 0, int(round(self.config.max_freq_hz / RATIO_HZ))),
            14,
            8,
            int(round(self.config.min_freq_hz / RATIO_HZ)),
        )
        msrs.define(
            MSR.TPMI_UFS_BASE + 2 * index,
            initial=initial,
            write_hook=_write_control,
        )
        msrs.define(
            MSR.TPMI_UFS_BASE + 2 * index + 1,
            writable=False,
            read_hook=_read_status,
        )


def build_uncore(config: UncoreConfig) -> UncoreDriver:
    """The uncore driver for one socket: legacy single-domain, or TPMI.

    ``die_count == 1`` (the default) returns the plain
    :class:`UncoreDriver` — the pre-TPMI code path, untouched — so the
    multi-die surface can never perturb legacy runs.
    """
    if config.die_count > 1:
        return TpmiUncore(config)
    return UncoreDriver(config)

