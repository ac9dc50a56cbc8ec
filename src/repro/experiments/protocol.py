"""The measurement protocol: repeated runs, trimming, ratios.

Implements Section V's statistics: per configuration the harness
performs N (default 10) seeded runs, drops the lowest- and highest-
execution-time runs, and reports every metric averaged over the kept
runs.  Comparisons are expressed as percentages over the application's
default-configuration values, with min/max error bars over the kept
runs — the exact quantities plotted in Figures 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis.stats import ErrorBar, error_bar, keep_indices_drop_extremes
from ..config import (
    ControllerConfig,
    EngineConfig,
    MachineConfig,
    NoiseConfig,
    SocketConfig,
    yeti_socket_config,
)
from ..core.base import Controller
from ..core.registry import PolicySpec, as_spec
from ..errors import ExperimentError
from ..sim.engine import SimulationEngine
from ..sim.faults import FaultPlan
from ..sim.machine import SimulatedMachine
from ..sim.result import RunResult
from ..sim.run import build_engine
from ..sim.trace import TraceSink
from ..workloads.application import Application

__all__ = [
    "ProtocolResult",
    "Comparison",
    "build_protocol",
    "fold_protocol",
    "run_protocol",
    "run_hetero_protocol",
    "run_cluster_protocol",
    "compare",
]

#: Default number of runs per configuration (paper: 10).
DEFAULT_RUNS = 10


@dataclass
class ProtocolResult:
    """Raw per-run metrics for one (application, controller) config."""

    app_name: str
    controller_name: str
    times_s: list[float] = field(default_factory=list)
    package_power_w: list[float] = field(default_factory=list)
    dram_power_w: list[float] = field(default_factory=list)
    total_energy_j: list[float] = field(default_factory=list)
    #: The last run's full result, kept for trace-based figures.
    last_run: RunResult | None = None

    @property
    def keep(self) -> list[int]:
        """Kept run indices after trimming by execution time."""
        return keep_indices_drop_extremes(self.times_s)

    def bar(self, metric: str) -> ErrorBar:
        values = getattr(self, metric)
        return error_bar(values, self.keep)

    @property
    def mean_time_s(self) -> float:
        return self.bar("times_s").mean

    @property
    def mean_package_power_w(self) -> float:
        return self.bar("package_power_w").mean

    @property
    def mean_dram_power_w(self) -> float:
        return self.bar("dram_power_w").mean

    @property
    def mean_total_energy_j(self) -> float:
        return self.bar("total_energy_j").mean


def build_protocol(
    application: Application,
    controller: "PolicySpec | str | Callable[[], Controller]",
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket_count: int = 1,
    record_trace: bool = False,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
) -> tuple[ProtocolResult, list[SimulationEngine]]:
    """The protocol's result shell plus one unrun engine per repetition.

    Splitting construction from execution lets callers choose *how* the
    repetitions run: sequentially (:func:`run_protocol` with the scalar
    engine), or in lockstep through :func:`repro.sim.batch.run_batch` —
    possibly batched together with the engines of *other* protocol
    cells.  Seeds, machines and trace wiring are identical to the
    sequential path, so the folded result does not depend on the
    execution strategy.
    """
    if runs < 1:
        raise ExperimentError("need at least one run")
    noise = noise or NoiseConfig()
    spec: PolicySpec | None = None
    if not callable(controller) or isinstance(controller, str):
        spec = as_spec(controller)
    result = ProtocolResult(
        app_name=application.name,
        controller_name=spec.label if spec is not None else "",
    )
    cfg = controller_cfg or ControllerConfig()
    engines: list[SimulationEngine] = []
    for r in range(runs):
        machine = None
        if socket is not None:
            machine = SimulatedMachine(
                MachineConfig(socket=socket, socket_count=socket_count)
            )
        factory = spec.build(cfg) if spec is not None else controller
        engines.append(
            build_engine(
                application,
                factory,
                controller_cfg=cfg,
                machine=machine,
                noise=noise,
                engine_cfg=engine_cfg,
                socket_count=socket_count,
                seed=noise.seed + 1009 * r + base_seed,
                record_trace=record_trace
                or (trace_sink is None and r == runs - 1),
                trace_sink=trace_sink if r == runs - 1 else None,
                faults=faults,
            )
        )
    return result, engines


def fold_protocol(
    result: ProtocolResult, runs: list[RunResult]
) -> ProtocolResult:
    """Fold per-repetition results into a :func:`build_protocol` shell."""
    for run in runs:
        result.times_s.append(run.execution_time_s)
        result.package_power_w.append(run.avg_package_power_w)
        result.dram_power_w.append(run.avg_dram_power_w)
        result.total_energy_j.append(run.total_energy_j)
        result.last_run = run
        if not result.controller_name:
            result.controller_name = run.controller_name
    return result


def run_protocol(
    application: Application,
    controller: "PolicySpec | str | Callable[[], Controller]",
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket_count: int = 1,
    record_trace: bool = False,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
    engine: str = "scalar",
) -> ProtocolResult:
    """Execute ``runs`` seeded repetitions of one configuration.

    ``controller`` is a registry selection — a
    :class:`~repro.core.registry.PolicySpec`, a policy id string
    (``"dufp"``, ``"budget:watts=95"``) — or, for ad-hoc callers, a
    plain per-socket controller factory.  Registry selections resolve
    to a *fresh* factory every run, so policies with cross-socket
    shared state (the budget coordinator) never leak between runs, and
    the reported controller name comes from registry metadata rather
    than a throwaway instance.

    ``socket`` overrides the default yeti-2 socket model (a fresh
    machine is built from it for every run — machines are stateful).
    ``trace_sink`` is attached to the *last* run — the run whose trace
    the protocol has always kept — replacing the forced in-memory
    recording, so streamed protocols stay O(1) in RAM.  ``faults``
    applies one :class:`~repro.sim.faults.FaultPlan` to every run; each
    run's injector draws from its own per-run seed, so repetitions see
    independent fault realisations of the same plan.

    ``engine`` selects the execution strategy: ``"scalar"`` runs each
    repetition through the per-tick loop, ``"batch"`` advances all
    repetitions in lockstep through the vectorized engine
    (:mod:`repro.sim.batch`).  Results are numerically identical either
    way (see ``docs/BATCHING.md``); batch is simply faster.
    """
    if engine not in ("scalar", "batch"):
        raise ExperimentError(f"unknown engine {engine!r}")
    result, engines = build_protocol(
        application,
        controller,
        controller_cfg=controller_cfg,
        runs=runs,
        base_seed=base_seed,
        noise=noise,
        engine_cfg=engine_cfg,
        socket_count=socket_count,
        record_trace=record_trace,
        socket=socket,
        trace_sink=trace_sink,
        faults=faults,
    )
    if engine == "batch":
        from ..sim.batch import run_batch

        run_results = run_batch(engines)
    else:
        run_results = [e.run() for e in engines]
    return fold_protocol(result, run_results)


def run_hetero_protocol(
    application: Application,
    controller: "PolicySpec | str",
    gpu,
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
) -> ProtocolResult:
    """Execute ``runs`` seeded repetitions of one *heterogeneous* cell.

    The CPU+GPU counterpart of :func:`run_protocol`: ``controller``
    selects a hetero budget-split policy from the registry
    (``hetero-static``, ``hetero-coord``, ``hetero-fair``), ``gpu`` is
    the node's :class:`~repro.hardware.gpu.GPUNodeConfig`, and each
    repetition runs the :class:`~repro.sim.hetero.HeteroEngine` with
    the same per-run seed formula as the scalar protocol
    (``noise.seed + 1009·r + base_seed``), so hetero cells trim, cache
    and compare exactly like CPU-only ones.

    Metric mapping onto the :class:`ProtocolResult` columns (documented
    in docs/HETERO.md): ``times_s`` is the node *makespan*,
    ``package_power_w`` the CPU's average power over the makespan,
    ``dram_power_w`` the combined GPUs' average power, and
    ``total_energy_j`` the whole node's energy — so :func:`compare`
    reads "package savings" as CPU savings and "dram savings" as GPU
    savings for hetero cells.
    """
    from ..core.registry import split_policy
    from ..sim.hetero import HeteroEngine

    if runs < 1:
        raise ExperimentError("need at least one run")
    noise = noise or NoiseConfig()
    cfg = controller_cfg or ControllerConfig()
    engine_cfg = engine_cfg or EngineConfig()
    spec = as_spec(controller)
    result = ProtocolResult(
        app_name=application.name, controller_name=spec.label
    )
    for r in range(runs):
        engine = HeteroEngine(
            application=application,
            node=gpu,
            policy=split_policy(spec, cfg, scope="device"),
            cfg=cfg,
            socket_cfg=socket or yeti_socket_config(),
            dt_s=engine_cfg.dt_s,
            seed=noise.seed + 1009 * r + base_seed,
            noise=noise,
            faults=faults,
            trace_sink=trace_sink if r == runs - 1 else None,
        )
        run = engine.run()
        makespan = run.makespan_s or engine_cfg.dt_s
        result.times_s.append(makespan)
        result.package_power_w.append(run.cpu_energy_j / makespan)
        result.dram_power_w.append(run.gpu_energy_j / makespan)
        result.total_energy_j.append(run.total_energy_j)
    return result


def run_cluster_protocol(
    applications: list[Application],
    controller: "PolicySpec | str",
    cluster,
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
) -> ProtocolResult:
    """Execute ``runs`` seeded repetitions of one *cluster* cell.

    The multi-node counterpart of :func:`run_protocol`: ``controller``
    selects a fleet budget-partitioning policy from the registry
    (``fleet-static``, ``fleet-demand``, ``fleet-fair``), ``cluster``
    is the cell's :class:`~repro.cluster.spec.ClusterSpec`, and
    ``applications`` carries one built application per node.  Each
    repetition runs the :class:`~repro.cluster.engine.ClusterEngine`
    with the same per-run seed formula as the scalar protocol
    (``noise.seed + 1009·r + base_seed``), so cluster cells trim,
    cache and compare exactly like CPU-only ones.

    Metric mapping onto the :class:`ProtocolResult` columns (documented
    in docs/CLUSTER.md): ``times_s`` is the fleet *makespan* (slowest
    node), ``package_power_w`` the fleet's average package power over
    the makespan, ``dram_power_w`` the fleet's average DRAM power, and
    ``total_energy_j`` the whole fleet's energy.  ``trace_sink``
    attaches to the *last* run with cluster-global socket ids
    (node i, socket s → ``i·sockets_per_node + s``).
    """
    from ..cluster.engine import ClusterEngine
    from ..core.registry import split_policy

    if runs < 1:
        raise ExperimentError("need at least one run")
    noise = noise or NoiseConfig()
    cfg = controller_cfg or ControllerConfig()
    engine_cfg = engine_cfg or EngineConfig()
    spec = as_spec(controller)
    app_name = "+".join(dict.fromkeys(a.name for a in applications))
    result = ProtocolResult(app_name=app_name, controller_name=spec.label)
    for r in range(runs):
        engine = ClusterEngine(
            applications=applications,
            cluster=cluster,
            policy=split_policy(spec, cfg, scope="node"),
            controller_cfg=cfg,
            engine_cfg=engine_cfg,
            noise=noise,
            socket=socket,
            seed=noise.seed + 1009 * r + base_seed,
            record_trace=False,
            trace_sink=trace_sink if r == runs - 1 else None,
            faults=faults,
        )
        run = engine.run()
        makespan = run.makespan_s or engine_cfg.dt_s
        result.times_s.append(makespan)
        result.package_power_w.append(run.package_energy_j / makespan)
        result.dram_power_w.append(run.dram_energy_j / makespan)
        result.total_energy_j.append(run.total_energy_j)
    return result


@dataclass(frozen=True)
class Comparison:
    """One configuration expressed relative to the default run.

    Positive ``slowdown_pct`` means the controller made the run slower;
    positive ``*_savings_pct`` means it consumed less than the default.
    Error bars carry the kept runs' min/max, normalised the same way.
    """

    app_name: str
    controller_name: str
    slowdown_pct: ErrorBar
    package_savings_pct: ErrorBar
    dram_savings_pct: ErrorBar
    energy_savings_pct: ErrorBar

    def within_tolerance(self, tolerated_slowdown_pct: float, slack: float = 0.0) -> bool:
        """Did the mean slowdown respect the tolerance (plus slack)?"""
        return self.slowdown_pct.mean <= tolerated_slowdown_pct + slack


def _ratio_bar(values: list[float], keep: list[int], reference: float, *, savings: bool) -> ErrorBar:
    if reference <= 0:
        raise ExperimentError("non-positive reference value")
    if savings:
        pct = [100.0 * (1.0 - values[i] / reference) for i in keep]
    else:
        pct = [100.0 * (values[i] / reference - 1.0) for i in keep]
    return ErrorBar(
        mean=sum(pct) / len(pct), low=min(pct), high=max(pct)
    )


def compare(result: ProtocolResult, default: ProtocolResult) -> Comparison:
    """Express ``result`` as percentages over ``default``'s trimmed means."""
    if result.app_name != default.app_name:
        raise ExperimentError(
            f"comparing different applications: {result.app_name!r} "
            f"vs {default.app_name!r}"
        )
    keep = result.keep
    return Comparison(
        app_name=result.app_name,
        controller_name=result.controller_name,
        slowdown_pct=_ratio_bar(
            result.times_s, keep, default.mean_time_s, savings=False
        ),
        package_savings_pct=_ratio_bar(
            result.package_power_w, keep, default.mean_package_power_w, savings=True
        ),
        dram_savings_pct=_ratio_bar(
            result.dram_power_w, keep, default.mean_dram_power_w, savings=True
        ),
        energy_savings_pct=_ratio_bar(
            result.total_energy_j, keep, default.mean_total_energy_j, savings=True
        ),
    )
