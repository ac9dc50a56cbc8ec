"""Controller protocol shared by DUF, DUFP and the baselines."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..lazy import built_on_read
from ..papi.highlevel import Measurement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import SocketContext

__all__ = ["Controller", "LaneTickForm", "TickLog"]


@dataclass
class TickLog:
    """What a controller did on one tick, for traces and tests."""

    time_s: float
    cap_w: float
    uncore_hz: float
    phase_change: bool = False
    cap_action: str = "hold"  # hold | decrease | increase | reset
    uncore_action: str = "hold"


@dataclass(frozen=True)
class LaneTickForm:
    """A controller's lane-parallel tick, as the batch engine runs it.

    ``tick(state, idx, fl, by, pk, oi)`` decides for the lanes in
    ``idx`` and returns ``(phase_change, cap_actions, uncore_actions)``
    (see ``DUF.tick_lanes``).
    """

    tick: Callable
    #: The controller acts only at attach: its ticks log the latched
    #: cap and the uncore clock the hardware runs at, and the engine
    #: replays no actuator state into the objects after the run.  An
    #: acting form logs its uncore pin and has that state replayed.
    log_only: bool = False


class Controller(abc.ABC):
    """A per-socket runtime attached to the measurement/actuation stack.

    Lifecycle: the runtime calls :meth:`attach` once with the socket's
    context (meter, actuators, sysfs views), then :meth:`tick` every
    ``interval_s`` of simulated time with the interval's measurement.
    """

    #: Human-readable controller name (used in experiment labels).
    name: str = "controller"

    def __init__(self) -> None:
        self._ctx: "SocketContext | None" = None

    @built_on_read
    def ticks(self) -> list[TickLog]:
        """One :class:`TickLog` per tick, in tick order.

        The scalar tick appends each entry as it logs it.  A run the
        batch engine ticked lane-parallel keeps its log as columns and
        attaches a source (:func:`repro.lazy.attach`) when the run
        ends; the entries are built from it on first read (plain
        ``float``/``bool``/``str`` values, equal to the scalar ones),
        and an entry logged later follows them.
        """
        return []

    @property
    def ctx(self) -> "SocketContext":
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: tick before attach")
        return self._ctx

    def attach(self, ctx: "SocketContext") -> None:
        """Bind to a socket; override to program initial actuator state."""
        self._ctx = ctx

    @abc.abstractmethod
    def tick(self, now_s: float, m: Measurement) -> None:
        """One control interval with its measurement."""

    def log(self, entry: TickLog) -> None:
        self.ticks.append(entry)
