"""Roofline execution model: how fast a phase runs at given clocks.

A phase is a bundle of ``flops`` floating-point operations interleaved
with ``bytes`` of memory traffic.  At core frequency ``f`` and uncore
frequency ``fu`` the phase needs

* compute time ``t_c = flops / (N · fpc · f)`` — ``fpc`` is the phase's
  achieved FLOPs per cycle per core (vectorisation × port pressure);
* memory time ``t_m = bytes / BW(f, fu)`` — the bandwidth roofline from
  :class:`repro.hardware.memory.MemorySystem`, optionally inflated by a
  latency term for pointer-chasing phases where a slower uncore hurts
  beyond the bandwidth cut.

Real cores overlap the two imperfectly, so the phase time is a p-norm
``smooth_max(t_c, t_m)``: equal to the larger term when one dominates,
up to ~12 % above it when they balance.  From the phase time we derive
what the counters will show (FLOPS/s, bytes/s) and what the power model
needs (core activity, traffic utilisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CoreConfig
from ..units import nan_free, smooth_max, zero_signs
from .memory import MemorySystem

__all__ = ["ExecutionRates", "PhaseExecutionModel"]


@dataclass(frozen=True)
class ExecutionRates:
    """Instantaneous execution state of a phase at fixed clocks."""

    #: Achieved floating-point rate, FLOP/s.
    flops_rate: float
    #: Achieved memory traffic, bytes/s.
    bytes_rate: float
    #: Fraction of core cycles doing work (for the power model).
    core_activity: float
    #: Fraction of peak memory bandwidth in use (for the power model).
    traffic_util: float
    #: Inverse phase time: fraction of the phase completed per second.
    progress_rate: float
    #: "compute" | "memory" | "balanced" — which roof binds.
    bound: str


@dataclass
class PhaseExecutionModel:
    """Maps (phase character, clocks) to achieved rates."""

    core_cfg: CoreConfig
    memory: MemorySystem
    #: p-norm sharpness for the compute/memory overlap.  Calibrated so
    #: CG's slowdown under whole-run caps tracks the paper's Fig. 1a
    #: (7 %/12 % at 110/100 W) with a gradual onset rather than a knee.
    overlap_sharpness: float = 3.5
    #: Two rooflines within this ratio of each other count as balanced.
    balance_band: float = 1.15
    #: ``instantaneous`` results by exact argument tuple.  Clocks sit on
    #: 100 MHz grids and a phase's work is fixed, so a run revisits a
    #: few hundred inputs; the memo dies with its model.
    _rates: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def phase_time(
        self,
        flops: float,
        bytes_: float,
        fpc: float,
        core_hz: float,
        uncore_hz: float,
        latency_sensitivity: float = 0.0,
        uncore_sensitivity: float = 0.0,
    ) -> float:
        """Wall time to execute the phase at the given clocks, seconds."""
        t_c, t_m = self._roof_times(
            flops,
            bytes_,
            fpc,
            core_hz,
            uncore_hz,
            latency_sensitivity,
            uncore_sensitivity,
        )
        return smooth_max(t_c, t_m, self.overlap_sharpness)

    def instantaneous(
        self,
        flops: float,
        bytes_: float,
        fpc: float,
        core_hz: float,
        uncore_hz: float,
        latency_sensitivity: float = 0.0,
        uncore_sensitivity: float = 0.0,
    ) -> ExecutionRates:
        """Rates and power-model inputs while the phase executes.

        Memoised on the exact arguments: a hit returns the frozen
        result an earlier call computed, and validated, from equal
        inputs.  The sensitivities act only when positive, so just the
        volumes' zero signs join the key.
        """
        args = (
            flops,
            bytes_,
            fpc,
            core_hz,
            uncore_hz,
            latency_sensitivity,
            uncore_sensitivity,
        )
        key = args if flops and bytes_ else args + zero_signs(flops, bytes_)
        rates = self._rates.get(key)
        if rates is None:
            rates = self._compute_rates(*args)
            if nan_free(key):
                self._rates[key] = rates
        return rates

    # -- internals --------------------------------------------------------------

    def _compute_rates(
        self,
        flops: float,
        bytes_: float,
        fpc: float,
        core_hz: float,
        uncore_hz: float,
        latency_sensitivity: float,
        uncore_sensitivity: float,
    ) -> ExecutionRates:
        t_c, t_m = self._roof_times(
            flops,
            bytes_,
            fpc,
            core_hz,
            uncore_hz,
            latency_sensitivity,
            uncore_sensitivity,
        )
        t = smooth_max(t_c, t_m, self.overlap_sharpness)
        if t <= 0.0:
            raise ValueError("phase with no work: flops and bytes both zero")

        if t_m == 0.0 or (t_c > 0 and t_c / max(t_m, 1e-300) > self.balance_band):
            bound = "compute"
        elif t_c == 0.0 or t_m / max(t_c, 1e-300) > self.balance_band:
            bound = "memory"
        else:
            bound = "balanced"

        bytes_rate = bytes_ / t
        return ExecutionRates(
            flops_rate=flops / t,
            bytes_rate=bytes_rate,
            # Cores retire for the compute-time share of the phase; a
            # floor reflects that stalled cores still clock and issue.
            core_activity=min(t_c / t, 1.0),
            traffic_util=self.memory.traffic_utilisation(bytes_rate),
            progress_rate=1.0 / t,
            bound=bound,
        )

    def _roof_times(
        self,
        flops: float,
        bytes_: float,
        fpc: float,
        core_hz: float,
        uncore_hz: float,
        latency_sensitivity: float,
        uncore_sensitivity: float,
    ) -> tuple[float, float]:
        if flops < 0 or bytes_ < 0:
            raise ValueError("phase volumes must be non-negative")
        if fpc <= 0:
            raise ValueError("flops-per-cycle must be positive")
        if core_hz <= 0 or uncore_hz <= 0:
            raise ValueError("clock frequencies must be positive")
        if latency_sensitivity < 0 or uncore_sensitivity < 0:
            raise ValueError("sensitivities must be non-negative")

        peak_flops = self.core_cfg.count * fpc * core_hz
        t_c = flops / peak_flops
        if uncore_sensitivity > 0.0 and flops > 0.0:
            # LLC-fed compute (DGEMM tiles, stencil sweeps): the kernel's
            # working set streams through the shared cache, so a slower
            # uncore starves the pipelines even when DRAM traffic is low.
            ratio = self.memory.uncore_cfg.max_freq_hz / uncore_hz
            t_c *= 1.0 + uncore_sensitivity * (ratio - 1.0)

        if bytes_ == 0.0:
            return t_c, 0.0

        bw = self.memory.achievable_bandwidth(core_hz, uncore_hz)
        t_m = bytes_ / bw
        if latency_sensitivity > 0.0:
            # Pointer-chasing penalty: each miss waits on the uncore, so
            # time inflates with the uncore slowdown ratio.
            ratio = self.memory.uncore_cfg.max_freq_hz / uncore_hz
            t_m *= 1.0 + latency_sensitivity * (ratio - 1.0)
        return t_c, t_m
