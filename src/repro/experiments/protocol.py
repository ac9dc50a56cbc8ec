"""The measurement protocol: repeated runs, trimming, ratios.

Implements Section V's statistics: per configuration the harness
performs N (default 10) seeded runs, drops the lowest- and highest-
execution-time runs, and reports every metric averaged over the kept
runs.  Comparisons are expressed as percentages over the application's
default-configuration values, with min/max error bars over the kept
runs — the exact quantities plotted in Figures 3 and 4.

One protocol serves every cell kind: CPU-only, hetero (CPU+GPU) and
cluster cells build their repetition engines in :func:`build_protocol`
with the same seeds and trace rule, and :func:`fold_protocol` reads the
same four metrics off every result type.
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
from ..cluster.engine import ClusterEngine
from ..cluster.spec import ClusterSpec
from ..core.base import Controller
from ..core.registry import PolicySpec, as_spec, split_policy
from ..errors import ExperimentError
from ..hardware.gpu import GPUNodeConfig
from ..sim.faults import FaultPlan
from ..sim.hetero import HeteroEngine
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
    #: The last run's full result, kept for trace-based figures.  Its
    #: trace is empty unless the protocol was asked to record one.
    #: ``None`` for hetero and cluster cells.
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
    application: "Application | list[Application]",
    controller: "PolicySpec | str | Callable[[], Controller]",
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket_count: int = 1,
    record_trace: bool = True,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
    gpu: GPUNodeConfig | None = None,
    cluster: ClusterSpec | None = None,
) -> tuple[ProtocolResult, list]:
    """The protocol's result shell plus one unrun engine per repetition.

    Every cell kind builds here, with one seed formula
    (``noise.seed + 1009·r + base_seed``) and one trace rule:

    * a CPU-only cell builds one :class:`~repro.sim.engine.
      SimulationEngine` per repetition;
    * ``gpu`` (a :class:`~repro.hardware.gpu.GPUNodeConfig`) makes it a
      hetero cell: one :class:`~repro.sim.hetero.HeteroEngine` per
      repetition, ``controller`` a device-scope split policy;
    * ``cluster`` (a :class:`~repro.cluster.spec.ClusterSpec`) makes it
      a cluster cell: one :class:`~repro.cluster.engine.ClusterEngine`
      per repetition, ``controller`` a node-scope fleet policy and
      ``application`` the list of per-node applications.

    Splitting construction from execution lets callers choose *how* the
    repetitions run: sequentially (:func:`run_protocol` with the scalar
    engine), or — CPU-only and cluster cells — in lockstep through
    :func:`repro.cluster.engine.run_pooled`, possibly batched together
    with the engines of *other* protocol cells.  Seeds, machines and trace
    wiring are identical either way, so the folded result does not
    depend on the execution strategy.

    Only the *last* repetition is ever traced, and only when a
    ``trace_sink`` is passed or, for CPU-only cells, ``record_trace`` is
    true (an in-memory trace, which a sink replaces).  With
    ``record_trace=False`` and no sink no repetition records anything,
    so the batch engine runs its trace-off path.
    """
    if runs < 1:
        raise ExperimentError("need at least one run")
    noise = noise or NoiseConfig()
    engine_cfg = engine_cfg or EngineConfig()
    spec: PolicySpec | None = None
    if not callable(controller) or isinstance(controller, str):
        spec = as_spec(controller)
    if cluster is not None:
        app_name = "+".join(dict.fromkeys(a.name for a in application))
    else:
        app_name = application.name
    result = ProtocolResult(
        app_name=app_name,
        controller_name=spec.label if spec is not None else "",
    )
    cfg = controller_cfg or ControllerConfig()
    engines = []
    for r in range(runs):
        seed = noise.seed + 1009 * r + base_seed
        sink = trace_sink if r == runs - 1 else None
        if gpu is not None:
            engine = HeteroEngine(
                application=application,
                policy=split_policy(spec, cfg, scope="device"),
                node=gpu,
                cfg=cfg,
                socket_cfg=socket or yeti_socket_config(),
                engine_cfg=engine_cfg,
                seed=seed,
                noise=noise,
                faults=faults,
                trace_sink=sink,
            )
        elif cluster is not None:
            engine = ClusterEngine(
                applications=application,
                cluster=cluster,
                policy=split_policy(spec, cfg, scope="node"),
                controller_cfg=cfg,
                engine_cfg=engine_cfg,
                noise=noise,
                socket=socket,
                seed=seed,
                record_trace=False,
                trace_sink=sink,
                faults=faults,
            )
        else:
            machine = None
            if socket is not None:
                machine = SimulatedMachine(
                    MachineConfig(socket=socket, socket_count=socket_count)
                )
            engine = build_engine(
                application,
                spec.build(cfg) if spec is not None else controller,
                controller_cfg=cfg,
                machine=machine,
                noise=noise,
                engine_cfg=engine_cfg,
                socket_count=socket_count,
                seed=seed,
                record_trace=record_trace and r == runs - 1,
                trace_sink=sink,
                faults=faults,
            )
        engines.append(engine)
    return result, engines


def fold_protocol(result: ProtocolResult, runs: list) -> ProtocolResult:
    """Fold per-repetition results into a :func:`build_protocol` shell.

    Every result type answers the same four questions:
    :class:`~repro.sim.result.RunResult`, :class:`~repro.sim.hetero.
    HeteroResult` and :class:`~repro.cluster.engine.ClusterResult` each
    carry ``execution_time_s``, ``avg_package_power_w``,
    ``avg_dram_power_w`` and ``total_energy_j``.  Only a CPU-only
    cell's last run is kept as ``last_run``.
    """
    for run in runs:
        result.times_s.append(run.execution_time_s)
        result.package_power_w.append(run.avg_package_power_w)
        result.dram_power_w.append(run.avg_dram_power_w)
        result.total_energy_j.append(run.total_energy_j)
        if isinstance(run, RunResult):
            result.last_run = run
            if not result.controller_name:
                result.controller_name = run.controller_name
    return result


def run_protocol(
    application: "Application | list[Application]",
    controller: "PolicySpec | str | Callable[[], Controller]",
    *,
    controller_cfg: ControllerConfig | None = None,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    socket_count: int = 1,
    record_trace: bool = True,
    socket: SocketConfig | None = None,
    trace_sink: TraceSink | None = None,
    faults: FaultPlan | None = None,
    gpu: GPUNodeConfig | None = None,
    cluster: ClusterSpec | None = None,
    engine: str = "scalar",
) -> ProtocolResult:
    """Execute ``runs`` seeded repetitions of one configuration.

    ``controller`` is a registry selection — a
    :class:`~repro.core.registry.PolicySpec`, a policy id string
    (``"dufp"``, ``"budget:watts=95"``) — or, for ad-hoc CPU-only
    callers, a plain per-socket controller factory.  Registry
    selections resolve to a *fresh* factory (or split policy) every
    run, so policies with shared state (the budget coordinator) never
    leak between runs, and the reported controller name comes from
    registry metadata rather than a throwaway instance.

    ``gpu`` and ``cluster`` select the cell kind exactly as on
    :class:`~repro.experiments.executor.RunSpec`; see
    :func:`build_protocol`.  Hetero and cluster cells map their results
    onto the same four columns (the result types' ``execution_time_s``,
    ``avg_package_power_w``, ``avg_dram_power_w`` and
    ``total_energy_j``; docs/HETERO.md and docs/CLUSTER.md), so they
    trim, cache and compare exactly like CPU-only ones.

    ``socket`` overrides the default yeti-2 socket model (a fresh
    machine is built from it for every run — machines are stateful).
    Only the *last* run is traced: in memory when ``record_trace`` is
    true (the default, CPU-only cells), or into ``trace_sink`` when one
    is passed — replacing the in-memory recording, so streamed
    protocols stay O(1) in RAM.  With ``record_trace=False`` and no
    sink nothing is recorded; ``last_run`` still carries its phases and
    fault events, with empty traces.  ``faults`` applies one
    :class:`~repro.sim.faults.FaultPlan` to every run; each run's
    injector draws from its own per-run seed, so repetitions see
    independent fault realisations of the same plan.

    ``engine`` selects the execution strategy: ``"scalar"`` runs each
    repetition through its engine's own loop, ``"batch"`` advances all
    repetitions of a CPU-only cell — or every node of every repetition
    of a cluster cell, under its fleet rounds — in lockstep through the
    vectorized engine (:mod:`repro.sim.batch`).  Results are
    numerically identical either way (see ``docs/BATCHING.md``).
    """
    if engine not in ("scalar", "batch"):
        raise ExperimentError(f"unknown engine {engine!r}")
    if engine == "batch" and gpu is not None:
        raise ExperimentError(
            "the batch engine runs CPU-only and cluster cells; hetero "
            "cells run with engine='scalar'"
        )
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
        gpu=gpu,
        cluster=cluster,
    )
    if engine == "batch":
        from ..cluster.engine import run_pooled

        run_results = run_pooled(engines)
    else:
        run_results = [e.run() for e in engines]
    return fold_protocol(result, run_results)


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
