"""Baseline controllers the experiments compare against.

* :class:`DefaultController` — the untouched machine (default uncore
  governor, default RAPL limits): the denominator of every ratio in
  the paper's figures.
* :class:`StaticPowerCap` — a fixed cap applied before the run and
  never changed, with the default uncore scaling underneath: the
  configuration of the motivating experiment (Fig. 1a).
* :class:`TimeWindowCap` — a cap applied only during a time window,
  used by Fig. 1b/1c to cap CG's initial memory phase.
* :class:`StaticUncore` — the uncore pinned to a fixed frequency.
* :class:`DNPCLike` — a frequency-model dynamic capper in the spirit
  of DNPC (Sharma et al., CLUSTER 2021): assumes performance scales
  linearly with core frequency, which the paper criticises for
  memory-intensive and vectorised workloads.
"""

from __future__ import annotations

import numpy as np

from ..config import ControllerConfig
from ..errors import ControllerError
from ..papi.highlevel import Measurement
from ..units import watts_to_uw
from .base import Controller, LaneTickForm, TickLog
from .duf import LANE_HOLD

__all__ = [
    "Controller",
    "LogOnlyController",
    "LOG_ONLY_FORM",
    "DefaultController",
    "StaticPowerCap",
    "StaticUncore",
    "TimeWindowCap",
    "DNPCLike",
]


class LogOnlyController(Controller):
    """A baseline that acts only at attach: every tick just logs.

    Each tick logs the latched cap and the uncore clock the hardware
    runs at.  :data:`LOG_ONLY_FORM` is the same tick over batch lanes.
    """

    def tick(self, now_s: float, m: Measurement) -> None:
        self.log(
            TickLog(
                time_s=now_s,
                cap_w=self.ctx.cap.cap_w,
                uncore_hz=self.ctx.processor.uncore.frequency_hz,
            )
        )

    @staticmethod
    def tick_lanes(st, idx, fl, by, pk, oi):
        """Lane-parallel :meth:`tick`: no decision, ``hold`` everywhere."""
        n = len(idx)
        return np.zeros(n, dtype=bool), None, np.full(n, LANE_HOLD, np.int8)


#: The lane-parallel tick shared by every :class:`LogOnlyController`.
LOG_ONLY_FORM = LaneTickForm(LogOnlyController.tick_lanes, log_only=True)


class DefaultController(LogOnlyController):
    """No-op: the architecture's default configuration."""

    name = "default"


class StaticPowerCap(LogOnlyController):
    """A fixed package power cap for the whole run (Fig. 1a)."""

    def __init__(self, cap_w: float):
        super().__init__()
        if cap_w <= 0:
            raise ControllerError("static cap must be positive")
        self.cap_w = cap_w
        self.name = f"static-{cap_w:.0f}W"

    def attach(self, ctx) -> None:
        super().attach(ctx)
        cap_uw = watts_to_uw(self.cap_w)
        ctx.cap.zone.set_both_limits_uw(cap_uw, cap_uw)


class TimeWindowCap(Controller):
    """A cap active only inside ``[start_s, end_s)`` (Fig. 1b/1c).

    The paper applies the cap to CG's initial memory phase and resets
    it to the default once the phase completes.
    """

    def __init__(self, cap_w: float, start_s: float, end_s: float):
        super().__init__()
        if cap_w <= 0:
            raise ControllerError("cap must be positive")
        if not 0.0 <= start_s < end_s:
            raise ControllerError("need 0 <= start < end")
        self.cap_w = cap_w
        self.start_s = start_s
        self.end_s = end_s
        self.name = f"window-{cap_w:.0f}W"
        self._active = False

    def attach(self, ctx) -> None:
        super().attach(ctx)
        if self.start_s == 0.0:
            self._apply()

    def _apply(self) -> None:
        cap_uw = watts_to_uw(self.cap_w)
        self.ctx.cap.zone.set_both_limits_uw(cap_uw, cap_uw)
        self._active = True

    def tick(self, now_s: float, m: Measurement) -> None:
        if not self._active and self.start_s <= now_s < self.end_s:
            self._apply()
        elif self._active and now_s >= self.end_s:
            self.ctx.cap.zone.reset()
            self._active = False
        self.log(
            TickLog(
                time_s=now_s,
                cap_w=self.ctx.cap.cap_w,
                uncore_hz=self.ctx.processor.uncore.frequency_hz,
            )
        )


class StaticUncore(LogOnlyController):
    """The uncore pinned to one frequency for the whole run."""

    def __init__(self, freq_hz: float):
        super().__init__()
        if freq_hz <= 0:
            raise ControllerError("uncore frequency must be positive")
        self.freq_hz = freq_hz
        self.name = f"uncore-{freq_hz / 1e9:.1f}GHz"

    def attach(self, ctx) -> None:
        super().attach(ctx)
        ctx.processor.uncore.pin(self.freq_hz)


class DNPCLike(Controller):
    """Frequency-linear dynamic capping (DNPC-style related work).

    Estimates performance degradation as ``1 − f/f_max`` from the
    measured average core frequency and steps the cap to keep the
    estimate at the tolerated slowdown.  On memory-bound phases the
    frequency model overestimates degradation, so this baseline leaves
    savings on the table relative to DUFP — the comparison the paper
    draws qualitatively in its related work.
    """

    name = "dnpc"

    def __init__(self, cfg: ControllerConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg

    def tick(self, now_s: float, m: Measurement) -> None:
        ctx = self.ctx
        f = ctx.processor.dvfs.effective_freq()
        f_max = ctx.processor.config.core.max_freq_hz
        degradation = 1.0 - f / f_max
        slack = self.cfg.tolerated_slowdown - degradation
        if slack > self.cfg.measurement_error:
            action = "decrease" if ctx.cap.decrease() else "hold"
        elif slack < -self.cfg.measurement_error:
            action = "increase" if ctx.cap.increase() else "hold"
        else:
            action = "hold"
        self.log(
            TickLog(
                time_s=now_s,
                cap_w=ctx.cap.cap_w,
                uncore_hz=ctx.processor.uncore.frequency_hz,
                cap_action=action,
            )
        )
