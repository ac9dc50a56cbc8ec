"""The fleet round: one budget re-partition, shared by both engines.

Every ``period_s`` of simulated time the fleet coordinator collects one
bid per node, asks the fleet policy to partition the global budget, and
turns each node's allocation into the per-socket RAPL limit to write —
or a skip.  :class:`FleetRound` holds exactly that logic plus the state
it carries between rounds (the ``capped`` flags and the allocation
history), so the scalar :class:`~repro.cluster.engine.ClusterEngine`
and the pooled batch path (:func:`~repro.cluster.engine.run_pooled`)
run the same bids, partitions and writes; each engine only reads its
nodes' package power and stages the returned writes its own way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.split import SplitPolicy
    from ..sim.engine import SimulationEngine

__all__ = ["FleetRound", "FLEET_HEADROOM_W", "stage_writes"]

#: Watts of headroom a running node bids above its measured draw,
#: mirroring :class:`~repro.core.budget.NodeBudgetCoordinator`'s
#: within-node demand signal.
FLEET_HEADROOM_W = 5.0

#: Slack under the ceiling below which an allocation counts as "at the
#: ceiling" and needs no RAPL write (while the node is still uncapped).
_CEILING_EPS = 1e-9


class FleetRound:
    """One fleet's bids, partitions and limit writes, round by round.

    ``ticks_per_period`` is the round cadence in engine ticks (``None``
    for a static policy, which partitions once at t = 0).  A round
    takes each node's last-step package power — one value per socket,
    or ``None`` for a node that finished — and returns, per node, the
    per-socket limit to write (PL1 = PL2) or ``None`` for no write.
    """

    def __init__(
        self,
        policy: "SplitPolicy",
        floors: list[float],
        ceilings: list[float],
        *,
        sockets_per_node: int,
        period_s: float,
        dt_s: float,
    ):
        self.policy = policy
        self.floors = floors
        self.ceilings = ceilings
        self.sockets_per_node = sockets_per_node
        self.dt_s = dt_s
        self.ticks_per_period = (
            None if policy.is_static else max(1, round(period_s / dt_s))
        )
        self.capped = [False] * len(floors)
        #: ``(time_s, (alloc_node0_w, ...))`` at t = 0 and every round.
        self.allocations: list[tuple[float, tuple[float, ...]]] = []

    def start(self) -> list[float | None]:
        """The t = 0 partition's writes."""
        allocs = self.policy.initial(self.floors, self.ceilings)
        self.allocations.append((0.0, tuple(allocs)))
        return self._writes(allocs)

    def due(self, tick: int) -> bool:
        """Whether a round follows engine tick ``tick`` (1-based)."""
        tpp = self.ticks_per_period
        return tpp is not None and tick % tpp == 0

    def round(
        self, tick: int, node_power_w: Sequence[Sequence[float] | None]
    ) -> list[float | None]:
        """Re-partition after tick ``tick``; the writes to stage."""
        allocs = self.policy.allocate(
            self._bids(node_power_w), self.floors, self.ceilings
        )
        self.allocations.append((tick * self.dt_s, tuple(allocs)))
        return self._writes(allocs)

    def _bids(
        self, node_power_w: Sequence[Sequence[float] | None]
    ) -> list[float]:
        """Per-node bids: measured package power + headroom, clamped.

        Ground truth (the last step's package power), not the
        controllers' noisy PAPI view — the fleet coordinator models an
        out-of-band telemetry path (BMC/RAPL energy counters).
        Finished nodes bid their floor, releasing watts to the rest of
        the fleet.
        """
        bids = []
        for power, lo, hi in zip(node_power_w, self.floors, self.ceilings):
            if power is None:
                bids.append(lo)
                continue
            bids.append(min(max(sum(power) + FLEET_HEADROOM_W, lo), hi))
        return bids

    def _writes(self, allocs: list[float]) -> list[float | None]:
        """Each node's per-socket limit, or ``None`` for no write.

        The bit-identity rule: an allocation at the ceiling on a node
        that was never capped needs no write — the hardware default
        already *is* that limit, and skipping keeps the node's
        operation stream identical to a plain uncoordinated run.  Once
        a node has been capped, allocations are always written so a
        later return to the ceiling actually lifts the cap.
        """
        spn = self.sockets_per_node
        writes: list[float | None] = []
        for i, (alloc, hi) in enumerate(zip(allocs, self.ceilings)):
            if not self.capped[i] and alloc >= hi - _CEILING_EPS:
                writes.append(None)
                continue
            self.capped[i] = True
            writes.append(min(alloc, hi) / spn)
        return writes


def stage_writes(
    engines: Sequence[SimulationEngine], writes: Sequence[float | None]
) -> None:
    """Stage each node's fleet write on its sockets' RAPL objects.

    ``writes`` pairs with ``engines`` as a round returns them: PL1 =
    PL2 per socket, staged by ``RAPLPackage.set_limits``, or ``None``
    for no write.
    """
    for engine, per_socket_w in zip(engines, writes):
        if per_socket_w is None:
            continue
        for proc in engine.machine.processors:
            proc.rapl.set_limits(per_socket_w, per_socket_w)
