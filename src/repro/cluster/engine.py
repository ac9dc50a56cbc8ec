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

The re-partition itself is a :class:`~repro.cluster.fleet.FleetRound`,
which :func:`run_pooled` drives too: there every node of every pooled
cluster is a lane of one :class:`~repro.sim.batch.
BatchSimulationEngine`, with the same results (docs/CLUSTER.md,
"Pooled execution").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

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
from ..sim.eligibility import batch_fallback_reason, fallback_reason
from ..sim.engine import SimulationEngine, SimulationStepper
from ..sim.faults import FaultPlan
from ..sim.machine import SimulatedMachine
from ..sim.result import RunResult, TraceSample
from ..sim.run import build_engine
from ..sim.trace import TraceSink
from ..workloads.application import Application
from .fleet import FLEET_HEADROOM_W, FleetRound
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
    "run_pooled",
]

#: Seed offset between consecutive nodes (a prime far above the
#: protocol's per-run stride of 1009, so node streams never collide
#: across the runs of one cell).  Node 0 keeps the run seed — part of
#: the 1-node bit-identity contract.
NODE_SEED_STRIDE = 100003

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

    def record_step(self, socket_id: int, *fields) -> None:
        """Forward the step's fields under the cluster-global socket id."""
        self._target.record_step(self._base + socket_id, *fields)

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

    # The protocol's four metrics (docs/CLUSTER.md, "Metric mapping").

    @property
    def execution_time_s(self) -> float:
        """The fleet makespan."""
        return self.makespan_s

    @property
    def avg_package_power_w(self) -> float:
        """Fleet package energy over the makespan."""
        return self.package_energy_j / self.makespan_s

    @property
    def avg_dram_power_w(self) -> float:
        """Fleet DRAM energy over the makespan."""
        return self.dram_energy_j / self.makespan_s

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

    def fleet_round(self) -> FleetRound:
        """A fresh fleet round over this cluster's nodes and policy."""
        floors, ceilings = self._bounds()
        return FleetRound(
            self.policy,
            floors,
            ceilings,
            sockets_per_node=self.cluster.sockets_per_node,
            period_s=self.cluster.period_s,
            dt_s=self.engine_cfg.dt_s,
        )

    def pool_fallback_reason(
        self, engines: list[SimulationEngine]
    ) -> str | None:
        """Why this cluster's node ``engines`` cannot run as batch lanes.

        ``None`` when they can: the cluster passes the fleet rows of
        :mod:`repro.sim.eligibility` and each node its scalar rows.
        """
        return fallback_reason(self, fleet=True) or next(
            filter(None, map(batch_fallback_reason, engines)), None
        )

    # -- the fleet loop ----------------------------------------------------

    def _apply(
        self, steppers: list[SimulationStepper], writes: list[float | None]
    ) -> None:
        """Stage each node's fleet write on its sockets' RAPL limits."""
        for stepper, per_socket_w in zip(steppers, writes):
            if per_socket_w is None:
                continue
            for proc in stepper.engine.machine.processors:
                proc.rapl.set_limits(per_socket_w, per_socket_w)

    def run(self) -> ClusterResult:
        """Execute every node to completion under the fleet policy."""
        engines = self._node_engines()
        fleet = self.fleet_round()
        steppers: list[SimulationStepper] = []
        if self.trace_sink is not None:
            self.trace_sink.open(
                self.cluster.node_count * self.cluster.sockets_per_node
            )
        try:
            steppers = [engine.stepper() for engine in engines]
            self._apply(steppers, fleet.start())
            tick = 0
            while not all(s.done for s in steppers):
                for stepper in steppers:
                    if not stepper.done:
                        stepper.tick()
                tick += 1
                if fleet.due(tick):
                    power = [
                        None
                        if s.done
                        else [
                            proc.state.package.total_w
                            for proc in s.engine.machine.processors
                        ]
                        for s in steppers
                    ]
                    self._apply(steppers, fleet.round(tick, power))
        finally:
            for stepper in steppers:
                stepper.close()
            if self.trace_sink is not None:
                self.trace_sink.close()
        return self.result([stepper.result() for stepper in steppers], fleet)

    def result(self, nodes: list[RunResult], fleet: FleetRound) -> ClusterResult:
        """The cluster result over finished ``nodes`` and their fleet."""
        return ClusterResult(
            budget_w=self.policy.budget_w,
            nodes=nodes,
            allocations=fleet.allocations,
            nominal_durations_s=[
                app.nominal_duration(self.socket) for app in self.applications
            ],
        )


def run_pooled(
    engines: "Sequence[SimulationEngine | ClusterEngine]",
) -> "list[RunResult | ClusterResult]":
    """Run plain and cluster engines, every node as a batch lane.

    Plain engines go to :func:`~repro.sim.batch.run_batch` as they
    would alone.  Each cluster whose nodes can run as lanes
    (:meth:`ClusterEngine.pool_fallback_reason`) adds its node engines
    and its :class:`FleetRound` to the same batches, where the fleet's
    rounds run at their period's ticks; any other cluster runs its
    scalar loop.  Results come back in input order and are identical
    to running each engine alone.
    """
    from ..sim.batch import run_batch

    results: list = [None] * len(engines)
    flat: list[SimulationEngine] = []
    fleets: list[tuple[FleetRound, range]] = []
    pooled: list[tuple[int, ClusterEngine | None, int, FleetRound | None]] = []
    for i, engine in enumerate(engines):
        if not isinstance(engine, ClusterEngine):
            pooled.append((i, None, len(flat), None))
            flat.append(engine)
            continue
        nodes = engine._node_engines()
        if engine.pool_fallback_reason(nodes) is not None:
            results[i] = engine.run()
            continue
        fleet = engine.fleet_round()
        fleets.append((fleet, range(len(flat), len(flat) + len(nodes))))
        pooled.append((i, engine, len(flat), fleet))
        flat.extend(nodes)
    sinks = [
        e for _, e, _, _ in pooled if e is not None and e.trace_sink is not None
    ]
    for e in sinks:
        e.trace_sink.open(e.cluster.node_count * e.cluster.sockets_per_node)
    try:
        out = run_batch(flat, fleets=fleets) if flat else []
    finally:
        for e in sinks:
            e.trace_sink.close()
    for i, engine, lo, fleet in pooled:
        if engine is None:
            results[i] = out[lo]
        else:
            nodes = out[lo : lo + engine.cluster.node_count]
            results[i] = engine.result(nodes, fleet)
    return results
