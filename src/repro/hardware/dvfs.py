"""Core DVFS: P-states, governors and the frequency clamp chain.

The simulated socket scales all of its cores together (package-scoped
DVFS), which matches the paper's observation that "all cores have
equivalent behaviors" under both DUF and DUFP.  The effective core
frequency is the minimum of three inputs:

* the governor's request (``performance`` pins it to the turbo maximum,
  as on the testbed, which runs intel_pstate/performance);
* the RAPL clamp, updated by the power limiter each step;
* the P-state ceiling written through ``IA32_PERF_CTL``.

``IA32_APERF``/``IA32_MPERF`` accumulate so that measured average
frequency (Fig. 5 of the paper) can be derived exactly the way Linux
derives it: ``f_avg = base_freq · ΔAPERF / ΔMPERF``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CoreConfig
from ..errors import FrequencyError
from .msr import MSR, MSRFile, get_bits, set_bits

__all__ = ["PStateDriver", "PerformanceGovernor", "PowersaveGovernor"]

#: One P-state ratio unit corresponds to 100 MHz on Intel parts.
RATIO_HZ = 100e6


class PerformanceGovernor:
    """The ``performance`` cpufreq governor: always request the maximum."""

    name = "performance"

    def requested_freq(self, config: CoreConfig) -> float:
        return config.max_freq_hz


class PowersaveGovernor:
    """The ``powersave`` governor floor: always request the minimum.

    Not used by the experiments (the testbed runs ``performance``) but
    kept for completeness and for tests that need a non-trivial request.
    """

    name = "powersave"

    def requested_freq(self, config: CoreConfig) -> float:
        return config.min_freq_hz


@dataclass
class PStateDriver:
    """Core clock domain of one socket."""

    config: CoreConfig
    governor: PerformanceGovernor | PowersaveGovernor = field(
        default_factory=PerformanceGovernor
    )
    #: Ceiling written via IA32_PERF_CTL (Hz); defaults to the turbo max.
    perf_ctl_ceiling_hz: float = 0.0
    #: Clamp imposed by the RAPL limiter (Hz).
    rapl_clamp_hz: float = 0.0
    _aperf_cycles: float = 0.0
    _mperf_cycles: float = 0.0
    #: The last :meth:`effective_freq` result with the inputs it came
    #: from: ``(governor, perf_ctl_ceiling_hz, rapl_clamp_hz, freq_hz)``.
    _last_freq: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.config.validate()
        if self.perf_ctl_ceiling_hz == 0.0:
            self.perf_ctl_ceiling_hz = self.config.max_freq_hz
        if self.rapl_clamp_hz == 0.0:
            self.rapl_clamp_hz = self.config.max_freq_hz

    # -- frequency resolution ------------------------------------------------

    def available_pstates(self) -> tuple[float, ...]:
        """All selectable core frequencies (Hz), ascending."""
        cfg = self.config
        n = int(round((cfg.max_freq_hz - cfg.min_freq_hz) / cfg.step_hz))
        return tuple(cfg.min_freq_hz + i * cfg.step_hz for i in range(n + 1))

    def snap(self, freq_hz: float) -> float:
        """Snap an arbitrary frequency onto the P-state grid (floor)."""
        cfg = self.config
        if freq_hz <= cfg.min_freq_hz:
            return cfg.min_freq_hz
        if freq_hz >= cfg.max_freq_hz:
            return cfg.max_freq_hz
        steps = int((freq_hz - cfg.min_freq_hz) / cfg.step_hz)
        return cfg.min_freq_hz + steps * cfg.step_hz

    def effective_freq(self) -> float:
        """Resolve the current core frequency (Hz).

        The last result is reused while the governor object is the same
        one and both ceilings compare equal (float ``==``, so a NaN
        never matches): a governor's request depends only on the core
        config.  Inputs are read afresh on every call, so direct
        attribute writes need no invalidation.
        """
        gov = self.governor
        ctl = self.perf_ctl_ceiling_hz
        clamp = self.rapl_clamp_hz
        last = self._last_freq
        if last is not None and last[0] is gov and last[1] == ctl and last[2] == clamp:
            return last[3]
        freq = self.snap(min(gov.requested_freq(self.config), ctl, clamp))
        self._last_freq = (gov, ctl, clamp, freq)
        return freq

    @property
    def requested_hz(self) -> float:
        """The clock the governor requests, before the ceilings."""
        return self.governor.requested_freq(self.config)

    def set_rapl_clamp(self, freq_hz: float) -> None:
        """RAPL limiter entry point; clamped to the P-state range."""
        cfg = self.config
        self.rapl_clamp_hz = min(max(freq_hz, cfg.min_freq_hz), cfg.max_freq_hz)

    def clear_rapl_clamp(self) -> None:
        self.rapl_clamp_hz = self.config.max_freq_hz

    # -- APERF/MPERF ---------------------------------------------------------

    def advance(self, dt_s: float, freq_hz: float | None = None) -> None:
        """Accumulate APERF (actual) and MPERF (reference) cycles.

        ``freq_hz`` is the clock :meth:`effective_freq` already resolved
        this step; ``None`` resolves it here.
        """
        if not dt_s >= 0:  # NaN too: it would poison APERF/MPERF
            raise FrequencyError(f"advance: time step {dt_s!r} is not non-negative")
        if freq_hz is None:
            freq_hz = self.effective_freq()
        self._aperf_cycles += freq_hz * dt_s
        self._mperf_cycles += self.config.base_freq_hz * dt_s

    @property
    def aperf(self) -> int:
        return int(self._aperf_cycles)

    @property
    def mperf(self) -> int:
        return int(self._mperf_cycles)

    def measured_freq(self, aperf_delta: int, mperf_delta: int) -> float:
        """Average frequency over an interval from counter deltas (Hz)."""
        if mperf_delta <= 0:
            raise FrequencyError("measured_freq: non-positive MPERF delta")
        return self.config.base_freq_hz * aperf_delta / mperf_delta

    # -- MSR wiring ----------------------------------------------------------

    def attach_msrs(self, msrs: MSRFile) -> None:
        """Expose IA32_PERF_CTL/STATUS and APERF/MPERF on ``msrs``."""
        max_ratio = int(round(self.config.max_freq_hz / RATIO_HZ))

        def _write_perf_ctl(value: int) -> None:
            ratio = get_bits(value, 15, 8)
            if ratio == 0:
                raise FrequencyError("IA32_PERF_CTL: zero ratio")
            self.perf_ctl_ceiling_hz = min(
                ratio * RATIO_HZ, self.config.max_freq_hz
            )

        def _read_perf_status() -> int:
            ratio = int(round(self.effective_freq() / RATIO_HZ))
            return set_bits(0, 15, 8, ratio)

        msrs.define(
            MSR.IA32_PERF_CTL,
            initial=set_bits(0, 15, 8, max_ratio),
            write_hook=_write_perf_ctl,
        )
        msrs.define(MSR.IA32_PERF_STATUS, writable=False, read_hook=_read_perf_status)
        msrs.define(MSR.IA32_APERF, writable=False, read_hook=lambda: self.aperf)
        msrs.define(MSR.IA32_MPERF, writable=False, read_hook=lambda: self.mperf)
