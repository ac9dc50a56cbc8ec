"""The evaluation sweep behind Figures 3 and 4.

One sweep runs every application under the default configuration, DUF
and DUFP at each tolerated slowdown (the paper uses 0, 5, 10 and 20 %),
through the full measurement protocol.  Figures 3a/3b/3c and 4 are
different projections of the same sweep, so the sweep result carries
all four metrics and the figure modules only format them.

Every cell of the grid — each ``(app, controller, tolerance)`` plus
the per-app default baselines — is an independent :class:`~repro.
experiments.executor.RunSpec`, so the grid fans out over ``workers``
processes and deduplicates through an optional content-addressed
``cache``; see :mod:`repro.experiments.executor`.  Cell seeds derive
from cell identity, making serial and parallel sweeps bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..config import (
    ControllerConfig,
    EngineConfig,
    NoiseConfig,
    SocketConfig,
    with_slowdown,
)
from ..analysis.tables import format_table
from ..cluster.spec import ClusterSpec
from ..core.registry import PolicySpec, as_spec, make_spec
from ..errors import ExperimentError
from ..hardware.gpu import GPUNodeConfig
from ..sim.faults import FaultPlan
from ..workloads.catalog import application_names
from .cache import ResultCache
from .executor import (
    SCOPE_CELLS,
    ExecutionSummary,
    RunSpec,
    cell_scope,
    cell_seed,
    run_specs,
)
from .protocol import Comparison, ProtocolResult, compare

__all__ = ["SweepResult", "run_sweep", "sweep_specs", "SWEEP_TOLERANCES_PCT"]

#: The paper's tolerated-slowdown grid, percent.
SWEEP_TOLERANCES_PCT: tuple[float, ...] = (0.0, 5.0, 10.0, 20.0)

#: The never-revisited split each budget-split scope's savings are
#: measured against.
_STATIC_BASELINES = {"device": "hetero-static", "node": "fleet-static"}


@dataclass
class SweepResult:
    """All comparisons of one evaluation sweep."""

    tolerances_pct: tuple[float, ...]
    apps: tuple[str, ...]
    #: (app, controller, tolerance_pct) -> Comparison
    comparisons: dict[tuple[str, str, float], Comparison] = field(
        default_factory=dict
    )
    #: app -> default-config protocol result (the denominators).
    defaults: dict[str, ProtocolResult] = field(default_factory=dict)
    #: Timing/cache accounting of the execution that produced this sweep.
    execution: ExecutionSummary | None = None

    def get(self, app: str, controller: str, tolerance_pct: float) -> Comparison:
        key = (app.upper(), controller, float(tolerance_pct))
        if key not in self.comparisons:
            raise ExperimentError(f"sweep has no entry {key}")
        return self.comparisons[key]

    def configurations(self) -> Iterable[tuple[str, str, float]]:
        return self.comparisons.keys()

    def respected_count(
        self, controller: str = "dufp", slack: float = 0.5
    ) -> tuple[int, int]:
        """(#configurations within tolerance, #configurations).

        ``slack`` (percentage points) absorbs measurement variation:
        the paper's Fig. 3a counts sub-noise slowdowns at 0 % tolerance
        as respected (its stated violations are ≥ ~1 %).
        """
        total = within = 0
        for (app, ctrl, tol), cmp_ in self.comparisons.items():
            if ctrl != controller:
                continue
            total += 1
            if cmp_.within_tolerance(tol, slack):
                within += 1
        return within, total

    def render(self) -> str:
        """Compact all-metric table, one row per grid cell."""
        rows = [
            (
                app,
                ctrl,
                f"{tol:.0f}%",
                cmp_.slowdown_pct.mean,
                cmp_.package_savings_pct.mean,
                cmp_.dram_savings_pct.mean,
                cmp_.energy_savings_pct.mean,
            )
            for (app, ctrl, tol), cmp_ in sorted(self.comparisons.items())
        ]
        return format_table(
            ["app", "ctrl", "tol", "slow %", "pkg save %", "dram save %", "energy save %"],
            rows,
            title="Evaluation sweep (means over kept runs)",
        )


def sweep_specs(
    *,
    apps: Iterable[str] | None = None,
    tolerances_pct: Iterable[float] = SWEEP_TOLERANCES_PCT,
    runs: int = 10,
    controllers: Iterable[PolicySpec | str] = ("duf", "dufp"),
    base_cfg: ControllerConfig | None = None,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    app_scale: float = 1.0,
    faults: FaultPlan | None = None,
    engine: str = "scalar",
    gpu: GPUNodeConfig | None = None,
    cluster: ClusterSpec | None = None,
    socket: SocketConfig | None = None,
) -> tuple[list[RunSpec], list[tuple[str, str, float] | None]]:
    """The sweep grid as executable specs.

    ``controllers`` accepts any registered policy — a
    :class:`~repro.core.registry.PolicySpec`, a policy id, or the CLI
    syntax ``"name:key=val,..."`` — so baselines like ``dnpc`` or
    ``budget:watts=95`` run through the identical grid/cache
    machinery as DUF and DUFP.  Comparison cells are keyed by the
    policy's parameter-specialised *label* (``static-100W``), keeping
    two parameterisations of one policy distinct within a grid.

    Returns ``(specs, cells)`` of equal length; a ``None`` cell marks
    an app's default-configuration baseline, a tuple the comparison
    cell it belongs to.  Exposed separately from :func:`run_sweep` so
    callers can inspect, shard or pre-warm the grid.

    ``faults`` applies one :class:`~repro.sim.faults.FaultPlan` to
    every cell of the grid (baselines included, so comparisons stay
    apples-to-apples); it folds into each cell's cache digest.

    ``engine`` selects scalar or vectorized-batch execution for every
    cell; results — and cache digests — are identical either way (see
    :class:`~repro.experiments.executor.RunSpec`).

    ``socket`` overrides the platform of every cell (baselines
    included): C-state/EPB models, multi-die uncore, custom frequency
    or power windows.  ``None`` keeps the stock
    :class:`~repro.config.SocketConfig`, whose cache digests are
    byte-identical to grids that never heard of the parameter.

    ``gpu`` turns the grid heterogeneous: every cell carries the
    :class:`~repro.hardware.gpu.GPUNodeConfig` and its ``controllers``
    must be registered hetero budget-split policies (``hetero-coord``,
    ``hetero-fair``, ...).  The per-app baseline is then the naive
    operator configuration — a ``hetero-static`` 50/50 split at the
    first controller's budget — instead of the CPU ``default`` cell,
    so "savings" read as gains over the uncoordinated split.

    ``cluster`` turns the grid multi-node: every cell carries the
    :class:`~repro.cluster.spec.ClusterSpec` and its ``controllers``
    must be registered fleet partitioning policies (``fleet-demand``,
    ``fleet-fair``, ...).  The per-app baseline becomes a
    ``fleet-static`` equal-share partition at the first controller's
    budget, so "savings" read as gains over the never-revisited split.
    """
    app_list = tuple(a.upper() for a in (apps or application_names()))
    tol_list = tuple(float(t) for t in tolerances_pct)
    ctrl_list = tuple(as_spec(c) for c in controllers)
    labels = [c.label for c in ctrl_list]
    if len(set(labels)) != len(labels):
        raise ExperimentError(f"duplicate sweep controllers: {labels}")
    scope = cell_scope(gpu, cluster)
    misfits = [c.name for c in ctrl_list if c.info.scope != scope]
    if misfits:
        raise ExperimentError(
            f"this sweep runs {SCOPE_CELLS[scope]}; {misfits} do not "
            "run on them (see 'repro policies')"
        )
    if scope == "socket":
        baseline: PolicySpec = as_spec("default")
    else:
        baseline = make_spec(
            _STATIC_BASELINES[scope], budget_w=ctrl_list[0].params.budget_w
        )
    base_cfg = base_cfg or ControllerConfig()
    noise = noise or NoiseConfig()
    engine_cfg = engine_cfg or EngineConfig()

    specs: list[RunSpec] = []
    cells: list[tuple[str, str, float] | None] = []
    for app_name in app_list:
        specs.append(
            RunSpec(
                app_name=app_name,
                controller=baseline,
                controller_cfg=base_cfg,
                runs=runs,
                base_seed=cell_seed(app_name, baseline.label),
                app_scale=app_scale,
                noise=noise,
                engine_cfg=engine_cfg,
                faults=faults,
                engine=engine,
                gpu=gpu,
                cluster=cluster,
                socket=socket,
                label=f"{app_name}/{baseline.label}",
            )
        )
        cells.append(None)
        for tol in tol_list:
            cfg = with_slowdown(base_cfg, tol)
            for ctrl in ctrl_list:
                specs.append(
                    RunSpec(
                        app_name=app_name,
                        controller=ctrl,
                        controller_cfg=cfg,
                        runs=runs,
                        base_seed=cell_seed(app_name, ctrl.label, tol),
                        app_scale=app_scale,
                        noise=noise,
                        engine_cfg=engine_cfg,
                        faults=faults,
                        engine=engine,
                        gpu=gpu,
                        cluster=cluster,
                        socket=socket,
                        label=f"{app_name}/{ctrl.label}@{tol:.0f}%",
                    )
                )
                cells.append((app_name, ctrl.label, tol))
    return specs, cells


def run_sweep(
    *,
    apps: Iterable[str] | None = None,
    tolerances_pct: Iterable[float] = SWEEP_TOLERANCES_PCT,
    runs: int = 10,
    controllers: Iterable[PolicySpec | str] = ("duf", "dufp"),
    base_cfg: ControllerConfig | None = None,
    noise: NoiseConfig | None = None,
    engine_cfg: EngineConfig | None = None,
    app_scale: float = 1.0,
    faults: FaultPlan | None = None,
    engine: str = "scalar",
    gpu: GPUNodeConfig | None = None,
    cluster: ClusterSpec | None = None,
    socket: SocketConfig | None = None,
    workers: int = 1,
    cache: ResultCache | str | None = None,
    shard_size: int | None = None,
) -> SweepResult:
    """Run the full evaluation grid.

    ``runs`` trades fidelity for time: the paper's protocol is 10; the
    benchmarks default to fewer to stay interactive.  ``workers``
    parallelises over grid cells (results are identical at any worker
    count); ``cache`` — a directory or :class:`ResultCache` — skips
    cells whose results are already on disk.  ``engine="batch"``
    executes every cell through the vectorized lockstep engine —
    numerically identical results, shared cache entries, and with
    ``workers=1`` all cells advance in one batch.  With more workers
    the grid is bin-packed into per-worker shards, each shard runs as
    one lockstep batch in its process, and completed shards write
    through to the cache as they finish; ``shard_size`` caps cells per
    shard (see :func:`repro.experiments.executor.plan_shards`).

    ``gpu`` runs the whole grid as CPU+GPU co-simulation cells under
    hetero budget-split controllers; ``cluster`` runs it as multi-node
    fleet cells under fleet partitioning policies; see
    :func:`sweep_specs`.
    """
    specs, cells = sweep_specs(
        apps=apps,
        tolerances_pct=tolerances_pct,
        runs=runs,
        controllers=controllers,
        base_cfg=base_cfg,
        noise=noise,
        engine_cfg=engine_cfg,
        app_scale=app_scale,
        faults=faults,
        engine=engine,
        gpu=gpu,
        cluster=cluster,
        socket=socket,
    )
    app_list = tuple(a.upper() for a in (apps or application_names()))
    tol_list = tuple(float(t) for t in tolerances_pct)
    results, summary = run_specs(
        specs, workers=workers, cache=cache, shard_size=shard_size
    )

    result = SweepResult(
        tolerances_pct=tol_list, apps=app_list, execution=summary
    )
    for spec, cell, proto in zip(specs, cells, results):
        if cell is None:
            result.defaults[spec.app_name] = proto
    for spec, cell, proto in zip(specs, cells, results):
        if cell is not None:
            result.comparisons[cell] = compare(
                proto, result.defaults[spec.app_name]
            )
    return result
