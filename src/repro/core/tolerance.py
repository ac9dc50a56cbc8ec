"""Tolerated-slowdown accounting for one monitored metric.

DUF and DUFP compare the current FLOPS/s (and memory bandwidth) to the
maximum observed in the current phase.  Three outcomes drive the
actuators (paper, Fig. 2):

* **WITHIN** — the metric is above ``max · (1 − slowdown)`` with margin:
  there is room, keep lowering the knob;
* **AT_BOUNDARY** — the metric is equivalent to the slowdown limit
  within measurement error: hold steady;
* **BELOW** — the metric dropped more than tolerated: back off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ControllerError

__all__ = [
    "ToleranceVerdict",
    "SlowdownTracker",
    "VERDICT_WITHIN",
    "VERDICT_AT_BOUNDARY",
    "VERDICT_BELOW",
    "SlowdownLanes",
    "tolerance_bid",
]


class ToleranceVerdict(enum.Enum):
    """Where a metric sits relative to the tolerated slowdown."""

    WITHIN = "within"
    AT_BOUNDARY = "at_boundary"
    BELOW = "below"


def tolerance_bid(
    verdict: ToleranceVerdict,
    power_w: float,
    limit_w: float,
    step_w: float,
    floor_w: float,
) -> float:
    """A capped device's power bid for the next budget round.

    Below the tolerance the device is throttled: it bids two steps
    above its limit.  Within it, with room to spare, it offers a step
    of its draw back, never below its floor.  At the boundary it bids
    its draw.
    """
    if verdict is ToleranceVerdict.BELOW:
        return limit_w + 2 * step_w
    if verdict is ToleranceVerdict.WITHIN:
        return max(power_w - step_w, floor_w)
    return power_w


#: Integer verdict codes used by the lane-parallel judge
#: (:class:`SlowdownLanes`); one per :class:`ToleranceVerdict` member.
VERDICT_WITHIN, VERDICT_AT_BOUNDARY, VERDICT_BELOW = 0, 1, 2


@dataclass
class SlowdownTracker:
    """Tracks one metric's phase maximum and judges the current value."""

    #: Tolerated slowdown as a fraction (0.05 = 5 %).
    tolerated_slowdown: float
    #: Relative half-width of the "equivalent" band around the limit.
    measurement_error: float
    #: Highest value seen in the current phase.
    phase_max: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerated_slowdown < 1.0:
            raise ControllerError("tolerated_slowdown must be in [0, 1)")
        if not 0.0 <= self.measurement_error < 0.5:
            raise ControllerError("measurement_error must be in [0, 0.5)")
        if self.phase_max < 0.0:
            raise ControllerError("phase_max must be non-negative")

    def reset(self, value: float = 0.0) -> None:
        """Start a new phase; ``value`` seeds the maximum."""
        if value < 0.0:
            raise ControllerError("metric values must be non-negative")
        self.phase_max = value

    def observe(self, value: float) -> None:
        """Fold a new sample into the phase maximum."""
        if value < 0.0:
            raise ControllerError("metric values must be non-negative")
        self.phase_max = max(self.phase_max, value)

    @property
    def effective_slowdown(self) -> float:
        """The slowdown actually enforced.

        A drop smaller than the measurement error is indistinguishable
        from no drop, so the enforceable tolerance is floored at the
        error: with a 0 % user tolerance the controller still lowers
        the knobs as long as performance stays within noise of the
        maximum — this is what lets the paper report (small) savings at
        0 % tolerated slowdown.
        """
        return max(self.tolerated_slowdown, self.measurement_error)

    @property
    def threshold(self) -> float:
        """The lowest acceptable value, ``max · (1 − slowdown)``."""
        return self.phase_max * (1.0 - self.effective_slowdown)

    def judge(self, value: float) -> ToleranceVerdict:
        """Classify ``value`` against the slowdown limit.

        Does not fold ``value`` into the maximum; call :meth:`observe`
        for that (the controllers observe first, then judge).
        """
        if value < 0.0:
            raise ControllerError("metric values must be non-negative")
        if self.phase_max <= 0.0:
            # Nothing measured yet this phase: no basis to hold back.
            return ToleranceVerdict.WITHIN
        band = self.measurement_error * self.phase_max
        if value >= self.threshold + 0.5 * band:
            return ToleranceVerdict.WITHIN
        if value >= self.threshold - band:
            return ToleranceVerdict.AT_BOUNDARY
        return ToleranceVerdict.BELOW


class SlowdownLanes:
    """Lane-parallel mirror of :class:`SlowdownTracker`.

    One instance replaces an array of trackers: ``phase_max`` holds
    every lane's phase maximum and each method takes a fancy index of
    the lanes it acts on.  The float expressions replicate the scalar
    tracker's operation order exactly (``max · (1 − effective)``,
    ``error · max``) so that a lane-parallel judge is bit-identical to
    judging each lane with its own :class:`SlowdownTracker` — the
    batch engine's differential-equivalence suite depends on it.
    """

    __slots__ = ("phase_max", "_error", "_one_minus_eff")

    def __init__(self, tolerated: np.ndarray, error: np.ndarray):
        self._error = np.asarray(error, dtype=float)
        effective = np.maximum(np.asarray(tolerated, dtype=float), self._error)
        self._one_minus_eff = 1.0 - effective
        self.phase_max = np.zeros(len(self._error))

    def reset(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Start a new phase on ``idx``; ``values`` seed the maxima."""
        self.phase_max[idx] = values

    def observe(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Fold new samples into the phase maxima of ``idx``."""
        self.phase_max[idx] = np.maximum(self.phase_max[idx], values)

    def judge(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Verdict codes for ``values`` on ``idx`` (no observation)."""
        pm = self.phase_max[idx]
        threshold = pm * self._one_minus_eff[idx]
        band = self._error[idx] * pm
        out = np.full(len(idx), VERDICT_BELOW, dtype=np.int8)
        out[values >= threshold - band] = VERDICT_AT_BOUNDARY
        out[values >= threshold + 0.5 * band] = VERDICT_WITHIN
        # Nothing measured yet this phase: no basis to hold back.
        out[pm <= 0.0] = VERDICT_WITHIN
        return out
