"""The power-cap actuator: DUFP's constraint-handling rules.

DUFP treats the two RAPL constraints asymmetrically (paper, §III):

* on a **decrease**, both constraints are set to the same (new, lower)
  value — the short-term burst allowance is removed so the average
  cannot hide above the cap;
* on an **increase**, the cap rises by one step with the constraints
  still tied; if the long-term constraint reaches its default value the
  cap is **reset** instead, restoring both constraints to their
  defaults (PL1 125 W / PL2 150 W on the testbed);
* one tick after a reset, if consumption is already below the cap, the
  short-term constraint is pulled down to the long-term value.

All writes go through the powercap zone (microwatt units), the same
interface the real tool uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import ControllerConfig
from ..errors import ControllerError
from ..interfaces.powercap import PowercapZone
from ..units import MICRO, watts_to_uw

__all__ = ["CapActuator", "CapLanes"]


@dataclass
class CapActuator:
    """Stepped control of one socket's package power cap."""

    zone: PowercapZone
    cfg: ControllerConfig
    #: Set after a reset; consumed by :meth:`after_reset_tighten`.
    just_reset: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.cfg.validate()
        if self.zone.domain != "package":
            raise ControllerError("cap actuator needs the package zone")

    # -- views -------------------------------------------------------------------

    @property
    def cap_w(self) -> float:
        """The long-term constraint (what "the power cap" means)."""
        return self.zone.rapl.pl1.limit_w

    @property
    def short_term_w(self) -> float:
        return self.zone.rapl.pl2.limit_w

    @property
    def default_cap_w(self) -> float:
        return self.zone.rapl.cfg.pl1_default_w

    @property
    def at_default(self) -> bool:
        return self.cap_w >= self.default_cap_w

    @property
    def at_floor(self) -> bool:
        return self.cap_w <= self.cfg.cap_floor_w

    # -- actions -----------------------------------------------------------------

    def decrease(self) -> bool:
        """Lower the cap one step (floored); ties both constraints.

        Returns ``False`` if already at the floor.
        """
        if self.at_floor:
            return False
        new_w = max(self.cap_w - self.cfg.cap_step_w, self.cfg.cap_floor_w)
        self.zone.set_both_limits_uw(watts_to_uw(new_w), watts_to_uw(new_w))
        self.just_reset = False
        return True

    def increase(self) -> bool:
        """Raise the cap one step, resetting if it reaches the default.

        Returns ``False`` if the cap was already at its default.
        """
        if self.at_default:
            return False
        new_w = self.cap_w + self.cfg.cap_step_w
        if new_w >= self.default_cap_w:
            self.reset()
        else:
            self.zone.set_both_limits_uw(watts_to_uw(new_w), watts_to_uw(new_w))
            self.just_reset = False
        return True

    def reset(self) -> None:
        """Restore both constraints to their architecture defaults."""
        self.zone.reset()
        self.just_reset = True

    def after_reset_tighten(self, package_power_w: float) -> bool:
        """The tick after a reset: tie PL2 to PL1 if power already fits.

        Returns ``True`` if the short-term constraint was tightened.
        """
        if not self.just_reset:
            return False
        self.just_reset = False
        # NaN power (a dropped meter read) must not tighten the cap;
        # the comparison below would be False for NaN anyway, but be
        # explicit — this is a hardware write gated on telemetry.
        if math.isfinite(package_power_w) and package_power_w < self.cap_w:
            cap_uw = watts_to_uw(self.cap_w)
            self.zone.set_both_limits_uw(cap_uw, cap_uw)
            return True
        return False


class CapLanes:
    """Lane-parallel mirror of :class:`CapActuator`.

    Operates directly on the batch engine's latched-limit arrays: every
    action stages a *pending* RAPL write through ``stage(idx, pl1 W,
    pl1 window, pl2 W, pl2 window)``, which the engine makes due after
    the actuation delay, exactly like the scalar actuator's
    ``set_limits`` path — the cap the decisions read (``pl1_w``) only
    moves when the batch physics latches the pending write.

    Tied writes quantize through the microwatt round trip
    (``rint(w / MICRO) · MICRO``) that the scalar path performs via
    ``watts_to_uw``/``uw_to_watts``, and reuse each lane's currently
    latched windows; resets restore the architecture defaults with
    their explicit windows.  Masked writes are issued in scalar program
    order, so a lane written twice in one tick keeps the last write —
    the same overwrite semantics as the single pending slot in
    :class:`~repro.hardware.rapl.RAPL`.
    """

    __slots__ = (
        "pl1_w",
        "_pl1_win",
        "_pl2_win",
        "_stage",
        "_step_w",
        "_floor_w",
        "default_w",
        "_defaults",
        "just_reset",
    )

    def __init__(
        self,
        *,
        pl1_w: np.ndarray,
        pl1_win: np.ndarray,
        pl2_win: np.ndarray,
        stage: Callable[..., None],
        step_w: np.ndarray,
        floor_w: np.ndarray,
        default_w: float,
        default_pl2_w: float,
        default_win1: float,
        default_win2: float,
    ):
        self.pl1_w = pl1_w
        self._pl1_win = pl1_win
        self._pl2_win = pl2_win
        self._stage = stage
        self._step_w = np.asarray(step_w, dtype=float)
        self._floor_w = np.asarray(floor_w, dtype=float)
        self.default_w = default_w
        self._defaults = (default_w, default_win1, default_pl2_w, default_win2)
        self.just_reset = np.zeros(len(self._step_w), dtype=bool)

    def _write_tied(self, idx: np.ndarray, new_w: np.ndarray) -> None:
        """Stage PL1 = PL2 = quantized ``new_w``, current windows."""
        q = np.rint(new_w / MICRO) * MICRO
        self._stage(idx, q, self._pl1_win[idx], q, self._pl2_win[idx])

    def _write_defaults(self, idx: np.ndarray) -> None:
        """Stage the architecture-default limits and windows."""
        self._stage(idx, *self._defaults)

    def decrease(self, idx: np.ndarray) -> np.ndarray:
        """Lower one step (floored), tied; ``False`` marks floored lanes."""
        cap = self.pl1_w[idx]
        can = cap > self._floor_w[idx]
        sub = idx[can]
        self._write_tied(
            sub, np.maximum(self.pl1_w[sub] - self._step_w[sub], self._floor_w[sub])
        )
        self.just_reset[sub] = False
        return can

    def increase(self, idx: np.ndarray) -> np.ndarray:
        """Raise one step (reset at the default); ``False`` at default."""
        cap = self.pl1_w[idx]
        can = cap < self.default_w
        sub = idx[can]
        new_w = self.pl1_w[sub] + self._step_w[sub]
        to_default = new_w >= self.default_w
        self.reset(sub[to_default])
        tied = sub[~to_default]
        self._write_tied(tied, new_w[~to_default])
        self.just_reset[tied] = False
        return can

    def reset(self, idx: np.ndarray) -> None:
        """Restore defaults on ``idx`` and mark them just-reset."""
        self._write_defaults(idx)
        self.just_reset[idx] = True

    def after_reset_tighten(self, idx: np.ndarray, package_power_w: np.ndarray) -> None:
        """The tick after a reset: tie PL2 to PL1 where power fits."""
        jr = self.just_reset[idx]
        sub = idx[jr]
        if len(sub) == 0:
            return
        self.just_reset[sub] = False
        power = package_power_w[jr]
        fits = np.isfinite(power) & (power < self.pl1_w[sub])
        self._write_tied(sub[fits], self.pl1_w[sub][fits])
