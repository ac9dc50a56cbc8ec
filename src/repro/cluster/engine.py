"""The cluster engine: N node simulations in fleet-coordinated lockstep.

Each node is one complete :class:`~repro.sim.engine.SimulationEngine`
— its own machine, controllers, RNG stream and fault injector — built
exactly as a plain node run builds it, with a deterministic per-node
seed offset (``NODE_SEED_STRIDE``; node 0 keeps the run seed).  The
cluster engine interleaves one :class:`~repro.sim.engine.
SimulationStepper` per node tick by tick, and every ``period_s`` of
simulated time asks the selected fleet policy to re-partition the
global budget from per-node demand bids (measured package power plus
headroom; finished nodes bid their floor and stop ticking).  Each
node's allocation is applied as a RAPL limit on its sockets — *unless*
the allocation sits at the node's ceiling and no cap was ever applied,
in which case the write is skipped entirely.  That skip is the
bit-identity mechanism: a 1-node ``fleet-static`` cluster with a
covering budget performs exactly the operations of the plain node run,
so its trace and summary are byte-identical (the differential matrix
in ``tests/test_cluster_equivalence.py`` enforces it).

Determinism mirrors the scalar engine's contract: same seed, same
spec, same policy → bit-identical traces, allocations and metrics, at
any node count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import (
    ControllerConfig,
    EngineConfig,
    MachineConfig,
    NoiseConfig,
    SocketConfig,
    yeti_socket_config,
)
from ..core.registry import controller_factory
from ..errors import SimulationError
from ..sim.engine import SimulationStepper
from ..sim.faults import FaultPlan
from ..sim.machine import SimulatedMachine
from ..sim.result import RunResult, TraceSample
from ..sim.run import build_engine
from ..sim.trace import TraceSink
from ..workloads.application import Application
from .metrics import jain_index, percentile, slowdown_ratios
from .spec import ClusterSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.split import SplitPolicy
    from ..sim.faults import FaultEvent

__all__ = [
    "ClusterEngine",
    "ClusterResult",
    "NODE_SEED_STRIDE",
    "FLEET_HEADROOM_W",
]

#: Seed offset between consecutive nodes (a prime far above the
#: protocol's per-run stride of 1009, so node streams never collide
#: across the runs of one cell).  Node 0 keeps the run seed — part of
#: the 1-node bit-identity contract.
NODE_SEED_STRIDE = 100003

#: Watts of headroom a running node bids above its measured draw,
#: mirroring :class:`~repro.core.budget.NodeBudgetCoordinator`'s
#: within-node demand signal.
FLEET_HEADROOM_W = 5.0

#: Slack under the ceiling below which an allocation counts as "at the
#: ceiling" and needs no RAPL write (while the node is still uncapped).
_CEILING_EPS = 1e-9


class _NodeSink(TraceSink):
    """Per-node adapter onto one shared cluster-level trace sink.

    Node-local socket ids shift into the cluster-global id space
    (node ``i``, socket ``s`` → ``i·sockets_per_node + s``), so one
    streamed cluster trace keeps per-node records separable.  The
    shared sink is opened and closed exactly once by the cluster
    engine; the per-node ``open``/``close`` calls the node engines
    make are absorbed here.  Node-wide fault events (socket id −1)
    pass through unshifted.
    """

    def __init__(self, target: TraceSink, base: int):
        self._target = target
        self._base = base

    def open(self, socket_count: int) -> None:
        """Absorbed: the cluster engine opened the shared sink."""

    def close(self) -> None:
        """Absorbed: the cluster engine closes the shared sink."""

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """Forward the sample under its cluster-global socket id."""
        self._target.record(self._base + socket_id, sample)

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Forward the fault event, shifting per-socket ids."""
        if socket_id >= 0:
            event = dataclasses.replace(
                event, socket_id=self._base + socket_id
            )
            self._target.record_event(self._base + socket_id, event)
        else:
            self._target.record_event(socket_id, event)

    def collected(self, socket_id: int) -> list[TraceSample]:
        """Whatever the shared sink retained for the global id."""
        return self._target.collected(self._base + socket_id)

    def events(self) -> "list[FaultEvent]":
        """The shared sink's retained events (already id-shifted)."""
        return self._target.events()


@dataclass
class ClusterResult:
    """Everything one cluster run produced, per node and fleet-wide."""

    #: The global budget the fleet policy partitioned, watts.
    budget_w: float
    #: One complete :class:`~repro.sim.result.RunResult` per node.
    nodes: list[RunResult]
    #: Allocation history: ``(time_s, (alloc_node0_w, ...))`` at t = 0
    #: and after every re-partition (static policies keep only t = 0).
    allocations: list[tuple[float, tuple[float, ...]]] = field(
        default_factory=list
    )
    #: Per-node nominal (uncapped, unjittered) durations, seconds.
    nominal_durations_s: list[float] = field(default_factory=list)

    @property
    def node_makespans_s(self) -> list[float]:
        """Per-node completion times (each node's slowest socket)."""
        return [r.execution_time_s for r in self.nodes]

    @property
    def makespan_s(self) -> float:
        """Fleet completion: the slowest node defines it."""
        return max(self.node_makespans_s)

    @property
    def package_energy_j(self) -> float:
        """Summed package energy across every node's sockets."""
        return sum(r.package_energy_j for r in self.nodes)

    @property
    def dram_energy_j(self) -> float:
        """Summed DRAM energy across every node's sockets."""
        return sum(r.dram_energy_j for r in self.nodes)

    @property
    def total_energy_j(self) -> float:
        """Package + DRAM energy of the whole fleet."""
        return sum(r.total_energy_j for r in self.nodes)

    @property
    def slowdowns(self) -> list[float]:
        """Per-node makespan over nominal duration (1.0 = uncapped)."""
        return slowdown_ratios(self.node_makespans_s, self.nominal_durations_s)

    @property
    def fairness_index(self) -> float:
        """Jain's index over the per-node slowdowns (1.0 = even)."""
        return jain_index(self.slowdowns)

    @property
    def p99_slowdown(self) -> float:
        """Tail slowdown: the p99 of the per-node makespan ratios."""
        return percentile(self.slowdowns, 99.0)

    @property
    def fault_events(self) -> "list[FaultEvent]":
        """Every node's fault events, node order then emission order."""
        return [e for r in self.nodes for e in r.fault_events]


@dataclass
class ClusterEngine:
    """Runs one fleet of node simulations under one global budget."""

    #: One application per node (``len == cluster.node_count``).
    applications: list[Application]
    cluster: ClusterSpec
    #: Fleet budget-partitioning policy, resolved via
    #: :func:`repro.core.registry.split_policy` at ``scope="node"`` —
    #: never constructed from concrete classes outside the registry.
    policy: "SplitPolicy"
    controller_cfg: ControllerConfig = field(default_factory=ControllerConfig)
    engine_cfg: EngineConfig = field(default_factory=EngineConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    socket: SocketConfig | None = None
    seed: int | None = None
    record_trace: bool = True
    #: Optional cluster-level sink receiving every node's samples under
    #: cluster-global socket ids (node i, socket s → i·spn + s).
    trace_sink: TraceSink | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.cluster.validate()
        if len(self.applications) != self.cluster.node_count:
            raise SimulationError(
                "one application per node required "
                f"({self.cluster.node_count} nodes, "
                f"{len(self.applications)} applications)"
            )

    # -- node construction -------------------------------------------------

    def _node_engines(self):
        """One fresh scalar engine per node, plain-run-identical.

        Node ``i`` seeds at ``seed + NODE_SEED_STRIDE·i`` (node 0 keeps
        the run seed) and gets a *fresh* controller factory, so
        stateful stacks (the budget coordinator) never span nodes.
        """
        spn = self.cluster.sockets_per_node
        seed0 = self.seed if self.seed is not None else self.noise.seed
        engines = []
        for i, app in enumerate(self.applications):
            machine = None
            if self.socket is not None:
                machine = SimulatedMachine(
                    MachineConfig(socket=self.socket, socket_count=spn)
                )
            sink = None
            if self.trace_sink is not None:
                sink = _NodeSink(self.trace_sink, i * spn)
            engines.append(
                build_engine(
                    app,
                    controller_factory(
                        self.cluster.node_controller, self.controller_cfg
                    ),
                    controller_cfg=self.controller_cfg,
                    machine=machine,
                    socket_count=spn,
                    noise=self.noise,
                    engine_cfg=self.engine_cfg,
                    seed=seed0 + NODE_SEED_STRIDE * i,
                    record_trace=self.record_trace,
                    trace_sink=sink,
                    faults=self.faults,
                )
            )
        return engines

    def _bounds(self) -> tuple[list[float], list[float]]:
        """Per-node (floors, ceilings) in watts, offered to the policy."""
        spn = self.cluster.sockets_per_node
        socket_cfg = self.socket or yeti_socket_config()
        ceiling = socket_cfg.rapl.pl1_default_w * spn
        floor = self.cluster.node_floor_w
        if floor is None:
            floor = self.controller_cfg.cap_floor_w * spn
        n = self.cluster.node_count
        return [floor] * n, [ceiling] * n

    # -- the fleet loop ----------------------------------------------------

    def _apply(
        self,
        steppers: list[SimulationStepper],
        allocs: list[float],
        ceilings: list[float],
        capped: list[bool],
    ) -> None:
        """Write each node's allocation to its sockets' RAPL limits.

        The bit-identity rule: an allocation at the ceiling on a node
        that was never capped needs no write — the hardware default
        already *is* that limit, and skipping keeps the node's
        operation stream identical to a plain uncoordinated run.  Once
        a node has been capped, allocations are always written so a
        later return to the ceiling actually lifts the cap.
        """
        spn = self.cluster.sockets_per_node
        for i, (stepper, alloc, hi) in enumerate(
            zip(steppers, allocs, ceilings)
        ):
            if not capped[i] and alloc >= hi - _CEILING_EPS:
                continue
            capped[i] = True
            per_socket_w = min(alloc, hi) / spn
            for proc in stepper.engine.machine.processors:
                proc.rapl.set_limits(per_socket_w, per_socket_w)

    def _demands(
        self,
        steppers: list[SimulationStepper],
        floors: list[float],
        ceilings: list[float],
    ) -> list[float]:
        """Per-node bids: measured package power + headroom, clamped.

        Ground truth (``proc.state``), not the controllers' noisy PAPI
        view — the fleet coordinator models an out-of-band telemetry
        path (BMC/RAPL energy counters).  Finished nodes bid their
        floor, releasing watts to the rest of the fleet.
        """
        bids = []
        for stepper, lo, hi in zip(steppers, floors, ceilings):
            if stepper.done:
                bids.append(lo)
                continue
            drawn = sum(
                proc.state.package.total_w
                for proc in stepper.engine.machine.processors
            )
            bids.append(min(max(drawn + FLEET_HEADROOM_W, lo), hi))
        return bids

    def run(self) -> ClusterResult:
        """Execute every node to completion under the fleet policy."""
        engines = self._node_engines()
        floors, ceilings = self._bounds()
        dt = self.engine_cfg.dt_s
        ticks_per_period = max(1, round(self.cluster.period_s / dt))
        steppers: list[SimulationStepper] = []
        if self.trace_sink is not None:
            self.trace_sink.open(
                self.cluster.node_count * self.cluster.sockets_per_node
            )
        try:
            steppers = [engine.stepper() for engine in engines]
            allocs = self.policy.initial(floors, ceilings)
            capped = [False] * self.cluster.node_count
            allocations = [(0.0, tuple(allocs))]
            self._apply(steppers, allocs, ceilings, capped)
            tick = 0
            while not all(s.done for s in steppers):
                for stepper in steppers:
                    if not stepper.done:
                        stepper.tick()
                tick += 1
                if self.policy.is_static or tick % ticks_per_period:
                    continue
                bids = self._demands(steppers, floors, ceilings)
                allocs = self.policy.allocate(bids, floors, ceilings)
                allocations.append((tick * dt, tuple(allocs)))
                self._apply(steppers, allocs, ceilings, capped)
        finally:
            for stepper in steppers:
                stepper.close()
            if self.trace_sink is not None:
                self.trace_sink.close()
        nodes = [stepper.result() for stepper in steppers]
        return ClusterResult(
            budget_w=self.policy.budget_w,
            nodes=nodes,
            allocations=allocations,
            nominal_durations_s=[
                app.nominal_duration(self.socket) for app in self.applications
            ],
        )
