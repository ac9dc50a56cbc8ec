"""Node-level power budget distribution (GEOPM-style, beyond the paper).

The paper positions budget-distribution runtimes (GEOPM, DAPS, …) as
complementary: "they propose power budget allocation strategies across
nodes while DUFP provides node-level dynamic power-capping" (§VI), and
its future work asks about sharing a budget between heterogeneous
consumers.  This module supplies that complementary layer on top of the
repro substrate:

:class:`NodeBudgetCoordinator` owns one node-wide power budget and
splits it across sockets every re-allocation period, proportional to
each socket's measured *demand* (its uncapped consumption estimate).
Each socket runs a :class:`BudgetedSocketController` — DUF's dynamic
uncore scaling plus the coordinator-assigned cap — so a socket running
memory-bound work (cheap to cap) donates headroom to a socket running
compute-bound work (expensive to cap).

The coordinator is deliberately simple — demand-proportional water-
filling with per-socket floors — because its role here is to exercise
the multi-socket machinery end-to-end, not to reproduce GEOPM.

:func:`allocate_budget` is the one banded allocator behind every budget
split in the repo: the coordinator's sockets here, and through
:mod:`repro.core.split` a hetero node's devices and a cluster's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import ControllerConfig
from ..errors import ControllerError
from ..papi.highlevel import Measurement
from ..units import watts_to_uw
from .base import Controller, TickLog
from .detector import PhaseDetector
from .duf import UncoreDecisionEngine
from .tolerance import SlowdownTracker, ToleranceVerdict

__all__ = [
    "NodeBudgetCoordinator",
    "BudgetedSocketController",
    "allocate_budget",
    "check_bands",
    "fit_to_bands",
]


def check_bands(
    demands_w: list[float],
    total_w: float,
    floors_w: list[float],
    ceilings_w: list[float],
) -> None:
    """Raise :class:`ControllerError` unless the split is well-posed.

    Well-posed means one finite, non-negative demand and one finite
    ``0 < floor <= ceiling`` band per entry, a finite total, and floors
    the total can cover.  Every budget-split strategy validates through
    here, whatever its entries are (sockets, devices or nodes).
    """
    n = len(floors_w)
    if n == 0 or len(ceilings_w) != n:
        raise ControllerError("need one floor and one ceiling per entry")
    if len(demands_w) != n:
        raise ControllerError(f"{len(demands_w)} demands for {n} entries")
    if not math.isfinite(total_w):
        raise ControllerError(f"budget must be finite, got {total_w} W")
    for d in demands_w:
        if not (math.isfinite(d) and d >= 0):
            raise ControllerError(f"demand must be finite and >= 0, got {d} W")
    for lo, hi in zip(floors_w, ceilings_w):
        if not (math.isfinite(hi) and 0 < lo <= hi):
            raise ControllerError(f"band invalid: floor {lo} W, ceiling {hi} W")
    if sum(floors_w) > total_w + 1e-9:
        raise ControllerError(
            f"budget {total_w} W cannot cover the combined floor "
            f"{sum(floors_w)} W"
        )


def _water_fill(
    demands_w: list[float], total_w: float, floor_w: float, ceiling_w: float
) -> list[float]:
    """Demand clamped to one uniform band, shrunk above the floor to fit."""
    alloc = [min(max(d, floor_w), ceiling_w) for d in demands_w]
    for _ in range(64):
        excess = sum(alloc) - total_w
        if excess <= 1e-9:
            break
        shrinkable = [max(a - floor_w, 0.0) for a in alloc]
        total_shrinkable = sum(shrinkable)
        if total_shrinkable <= 0.0:
            break
        scale = min(excess / total_shrinkable, 1.0)
        alloc = [a - s * scale for a, s in zip(alloc, shrinkable)]
    return alloc


def fit_to_bands(
    alloc: list[float],
    total_w: float,
    floors_w: list[float],
    ceilings_w: list[float],
) -> list[float]:
    """Clamp each entry into its band, then pay back any overshoot.

    Lifting an entry to its floor can push the sum past the budget; the
    excess is taken back from every entry above its floor, in
    proportion to its slack.  Call it on bands :func:`check_bands`
    accepted: feasible floors (``sum(floors) <= total``) guarantee the
    slack covers the excess.
    """
    alloc = [min(max(a, lo), hi) for a, lo, hi in zip(alloc, floors_w, ceilings_w)]
    excess = sum(alloc) - total_w
    if excess <= 1e-9:
        return alloc
    slack = [a - lo for a, lo in zip(alloc, floors_w)]
    span = sum(slack)
    scale = max(span - excess, 0.0) / span
    return [lo + s * scale for lo, s in zip(floors_w, slack)]


def allocate_budget(
    demands_w: list[float],
    total_w: float,
    floors_w: list[float],
    ceilings_w: list[float],
) -> list[float]:
    """Banded water-filling: split ``total_w`` across entries by demand.

    Entry ``i`` (a socket, a device or a node) receives between
    ``floors_w[i]`` and ``ceilings_w[i]``, and the allocations never sum
    past ``total_w``.  Demand above the floor is served proportionally:
    the demands are water-filled within the widest band (lowest floor,
    highest ceiling), each entry is clamped into its own band, and the
    overshoot that clamping introduces is paid back
    (:func:`fit_to_bands`).  Raises :class:`ControllerError` on
    ill-posed input, including floors the budget cannot cover.
    """
    check_bands(demands_w, total_w, floors_w, ceilings_w)
    alloc = _water_fill(demands_w, total_w, min(floors_w), max(ceilings_w))
    return fit_to_bands(alloc, total_w, floors_w, ceilings_w)


@dataclass
class NodeBudgetCoordinator:
    """Shared state: one power budget, N reporting sockets."""

    total_budget_w: float
    cfg: ControllerConfig
    #: Re-allocate every this many controller ticks.
    period_ticks: int = 5
    #: Extra headroom granted above measured demand, watts.
    headroom_w: float = 5.0
    #: Per-socket allocation floor, watts.  Defaults to the cap floor
    #: (65 W); raise it to bound *reference drift* — a socket capped
    #: permanently low re-seeds its phase maxima from throttled
    #: measurements and stays "content" ever lower (the same root
    #: cause as the paper's UA tolerance miss, amplified by standing
    #: caps).
    per_socket_floor_w: float | None = None
    _members: list["BudgetedSocketController"] = field(default_factory=list)
    _reports: dict[int, float] = field(default_factory=dict)
    _tick_count: int = 0
    #: Last computed allocation per member index.
    allocations_w: list[float] = field(default_factory=list)
    #: History of (time_s, allocations) for analysis.
    history: list[tuple[float, tuple[float, ...]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_budget_w) and self.total_budget_w > 0):
            raise ControllerError("budget must be finite and positive")
        if self.period_ticks < 1:
            raise ControllerError("period_ticks must be at least 1")
        self.cfg.validate()

    def socket_controller(self) -> "BudgetedSocketController":
        """Create (and register) the controller for the next socket."""
        member = BudgetedSocketController(self.cfg, self, len(self._members))
        self._members.append(member)
        self.allocations_w.append(self.cfg.cap_floor_w)
        return member

    # -- called by members ---------------------------------------------------------

    def report(self, index: int, now_s: float, demand_w: float) -> None:
        """A member reports its demand; the last report closes a round."""
        self._reports[index] = demand_w
        if len(self._reports) < len(self._members):
            return
        self._tick_count += 1
        if self._tick_count % self.period_ticks == 0:
            demands = [
                self._reports[i] + self.headroom_w
                for i in range(len(self._members))
            ]
            floor = (
                self.per_socket_floor_w
                if self.per_socket_floor_w is not None
                else self.cfg.cap_floor_w
            )
            n = len(demands)
            ceiling = self._members[0].default_cap_w
            self.allocations_w = allocate_budget(
                demands, self.total_budget_w, [floor] * n, [ceiling] * n
            )
            self.history.append((now_s, tuple(self.allocations_w)))
            for member in self._members:
                member.apply_allocation()
        self._reports.clear()

    def allocation_for(self, index: int) -> float:
        return self.allocations_w[index]


class BudgetedSocketController(Controller):
    """Per-socket member: DUF uncore scaling + coordinator-assigned cap.

    The demand signal is *tolerance-aware* — the paper's future-work
    idea of matching each consumer's performance needs:

    * FLOPS/s below the tolerated slowdown → the socket is genuinely
      throttled and bids for more than its current cap;
    * FLOPS/s comfortably within the tolerance → the socket offers
      watts back (memory-bound work is cheap to cap, so it donates
      headroom to compute-bound neighbours);
    * at the boundary → demand equals current consumption.
    """

    name = "budgeted"

    def __init__(
        self,
        cfg: ControllerConfig,
        coordinator: NodeBudgetCoordinator,
        index: int,
    ):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.coordinator = coordinator
        self.index = index
        self.detector = PhaseDetector(cfg)
        self.flops = SlowdownTracker(cfg.tolerated_slowdown, cfg.measurement_error)
        self._engine: UncoreDecisionEngine | None = None

    @property
    def default_cap_w(self) -> float:
        return self.ctx.cap.default_cap_w

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._engine = UncoreDecisionEngine(self.cfg, ctx.uncore)
        ctx.uncore.reset()

    def apply_allocation(self) -> None:
        """Program the coordinator's current allocation as PL1 = PL2."""
        alloc = self.coordinator.allocation_for(self.index)
        cap_uw = watts_to_uw(alloc)
        self.ctx.cap.zone.set_both_limits_uw(cap_uw, cap_uw)

    def tick(self, now_s: float, m: Measurement) -> None:
        assert self._engine is not None
        changed = self.detector.update(m.operational_intensity, m.flops_per_s)
        if changed:
            self._engine.on_phase_change(m)
            self.flops.reset(m.flops_per_s)
            uncore_action = "reset"
        else:
            uncore_action = self._engine.decide(m)
            self.flops.observe(m.flops_per_s)

        cap = self.ctx.cap.cap_w
        verdict = self.flops.judge(m.flops_per_s)
        if verdict is ToleranceVerdict.BELOW:
            # Genuinely throttled: bid above the current cap.
            demand = cap + 2 * self.cfg.cap_step_w
        elif verdict is ToleranceVerdict.WITHIN:
            # Meeting the tolerance with room to spare: offer watts back.
            demand = max(
                m.package_power_w - self.cfg.cap_step_w, self.cfg.cap_floor_w
            )
        else:
            demand = m.package_power_w
        self.coordinator.report(self.index, now_s, demand)
        self.log(
            TickLog(
                time_s=now_s,
                cap_w=self.ctx.cap.cap_w,
                uncore_hz=self.ctx.uncore.pinned_freq_hz,
                phase_change=changed,
                uncore_action=uncore_action,
            )
        )
