"""The benchmark's four workloads: inputs built from a seed, one timed execution.

Each workload is a ``setup`` that builds its inputs through public
functions and configs (``sweep_specs``, ``build_application``,
``ClusterSpec``, ``GPUNodeConfig``) and an ``execute`` that times the program on them and
returns an :class:`Outcome`.  The program receives only the generated
inputs; digests, tick counts and the scorecard are computed afterwards,
outside the timed region.

Layer boundaries are reached through module attributes
(``executor.run_specs``, ``catalog.build_application``) so that the
wrappers :mod:`spans` installs are the ones called.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.spec import ClusterSpec
from repro.config import ControllerConfig, EngineConfig, NoiseConfig, with_slowdown
from repro.core.registry import controller_factory, make_spec
from repro.experiments import executor
from repro.experiments.cache import ResultCache
from repro.experiments.executor import cell_seed
from repro.experiments.protocol import compare
from repro.experiments.scorecard import run_scorecard
from repro.experiments.sweep import SweepResult, sweep_specs
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.run import run_application
from repro.sim.trace import StreamingTraceSink
from repro.workloads import catalog

#: The ``ProtocolResult`` metric columns every cell digest covers.
COLUMNS = ("times_s", "package_power_w", "dram_power_w", "total_energy_j")

#: Tolerated slowdowns of the paper grid, percent.
PAPER_TOLERANCES = (0.0, 5.0, 10.0, 20.0)

#: Tolerances of the fleet and hetero sweeps, percent.
FLEET_TOLERANCES = (0.0, 10.0)

#: Global fleet budget: between the 4 × 65 W floor sum and the
#: 4 × 125 W ceiling sum, so the fleet policies really re-partition.
FLEET_BUDGET_W = 360.0

#: CPU+GPU node budget: between the 65 + 2 × 100 W floor sum and the
#: 125 + 2 × 250 W ceiling sum.
HETERO_BUDGET_W = 450.0

#: Warm replays of the sharded cache fill, each through a new cache.
WARM_REPLAYS = 5


@dataclass(frozen=True)
class Size:
    """How much work one repetition does."""

    app_scale: float
    runs: int
    #: Seeds per (application, controller) of ``traced_scalar``.
    traced_seeds: int
    #: Runs per cell of the fleet and hetero sweeps.
    fleet_runs: int


FULL = Size(app_scale=1.0, runs=10, traced_seeds=3, fleet_runs=3)
#: Smoke-test size; its numbers are not comparable with FULL ones.
QUICK = Size(app_scale=0.05, runs=1, traced_seeds=1, fleet_runs=1)


@dataclass
class Outcome:
    """What one timed execution produced."""

    #: Host seconds of the timed region.
    wall_s: float
    #: ``perf_counter_ns`` bounds of the execution spans are attributed
    #: over: the timed region, and for ``sharded_cache`` the replays too.
    window_ns: tuple[int, int]
    #: Simulated 10 ms steps the timed region computed.
    ticks: float
    #: Cell (or run) label -> digest, in execution order.
    cells: dict[str, str]
    #: Cells whose result the workload itself found wrong.
    failed: int = 0
    #: End-to-end metrics only some workloads have.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics the workload measures itself.
    layer_metrics: dict[str, float] = field(default_factory=dict)


def column_digest(columns, extra: bytes = b"") -> str:
    """sha256 of metric columns, each value rounded to 9 significant digits."""
    h = hashlib.sha256()
    for values in columns:
        h.update(",".join(f"{v:.9g}" for v in values).encode())
        h.update(b"\n")
    h.update(extra)
    return h.hexdigest()


def cell_digest(result) -> str:
    """Digest of one ``ProtocolResult``."""
    return column_digest([getattr(result, c) for c in COLUMNS])


def workload_digest(cells: dict[str, str]) -> str:
    """One digest over every cell digest, in order."""
    h = hashlib.sha256()
    for label, digest in cells.items():
        h.update(f"{label}={digest}\n".encode())
    return h.hexdigest()


def spec_ticks(spec, result) -> float:
    """Simulated steps of one cell: Σ run time × simulated sockets / dt.

    Counted here rather than read from ``CellReport.ticks``, which
    ignores the node and GPU counts of cluster and hetero cells.
    """
    if spec.cluster is not None:
        per_run = spec.cluster.node_count * spec.cluster.sockets_per_node
    elif spec.gpu is not None:
        per_run = 1 + spec.gpu.gpu_count
    else:
        per_run = spec.socket_count
    return sum(result.times_s) * per_run / spec.engine_cfg.dt_s


def _run_specs(specs, **kwargs):
    """``executor.run_specs`` timed; returns results, summary, seconds, window."""
    t0 = time.perf_counter_ns()
    results, summary = executor.run_specs(specs, **kwargs)
    t1 = time.perf_counter_ns()
    return results, summary, (t1 - t0) / 1e9, (t0, t1)


def _cells(specs, results, prefix: str = "") -> dict[str, str]:
    return {prefix + s.display: cell_digest(r) for s, r in zip(specs, results)}


def _executor_metrics(summaries, results) -> dict[str, float]:
    wall = sum(s.wall_s for s in summaries)
    shards = [sh for s in summaries for sh in s.shards]
    if shards:
        procs = len({sh.pid for sh in shards})
        busy = sum(sh.seconds for sh in shards) / (procs * wall)
    else:
        busy = sum(s.executed_cpu_s for s in summaries) / wall
    return {
        "experiments.executor.shards": len(shards),
        "experiments.executor.steals": sum(s.steals for s in summaries),
        "experiments.executor.worker_busy_frac": busy,
        "experiments.executor.result_bytes": len(
            pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        ),
    }


def _sweep(specs, cells, results, summary) -> SweepResult:
    """The ``SweepResult`` ``run_sweep`` would have folded from ``results``.

    ``run_sweep`` keeps only the comparisons, and the digests need every
    cell's ``ProtocolResult``, so the grid runs through ``run_specs``
    and is folded here.
    """
    apps = tuple(dict.fromkeys(s.app_name for s in specs))
    sweep = SweepResult(
        tolerances_pct=PAPER_TOLERANCES, apps=apps, execution=summary
    )
    for spec, cell, proto in zip(specs, cells, results):
        if cell is None:
            sweep.defaults[spec.app_name] = proto
    for spec, cell, proto in zip(specs, cells, results):
        if cell is not None:
            sweep.comparisons[cell] = compare(proto, sweep.defaults[spec.app_name])
    return sweep


# -- paper_grid_batch ---------------------------------------------------------


def setup_paper_grid(seed: int, size: Size, work: Path) -> dict:
    specs, cells = sweep_specs(
        tolerances_pct=PAPER_TOLERANCES,
        runs=size.runs,
        noise=NoiseConfig(seed=seed),
        app_scale=size.app_scale,
        engine="batch",
    )
    return {"specs": specs, "cells": cells, "attempted": len(specs)}


def execute_paper_grid(inp: dict) -> Outcome:
    specs = inp["specs"]
    results, summary, wall, window = _run_specs(specs, workers=1)
    card = run_scorecard(
        _sweep(specs, inp["cells"], results, summary), include_figures=False
    )
    return Outcome(
        wall_s=wall,
        window_ns=window,
        ticks=sum(spec_ticks(s, r) for s, r in zip(specs, results)),
        cells=_cells(specs, results),
        metrics={"scorecard_claims_held": card.passed},
        layer_metrics=_executor_metrics([summary], results),
    )


# -- sharded_cache ------------------------------------------------------------


def setup_sharded_cache(seed: int, size: Size, work: Path) -> dict:
    inp = setup_paper_grid(seed, size, work)
    inp["cache_dir"] = work / "cache"
    inp["workers"] = min(2, os.cpu_count() or 1)
    inp["attempted"] *= 1 + WARM_REPLAYS
    return inp


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def execute_sharded_cache(inp: dict) -> Outcome:
    specs, workers = inp["specs"], inp["workers"]
    cold_cache = ResultCache(inp["cache_dir"])
    results, summary, wall, window = _run_specs(
        specs, workers=workers, cache=cold_cache
    )
    cold_cache.close()
    cells = _cells(specs, results)
    stored = _dir_bytes(inp["cache_dir"])
    failed = 0
    hits = 0
    replay_s = 0.0
    for _ in range(WARM_REPLAYS):
        cache = ResultCache(inp["cache_dir"])
        warm, warm_summary, seconds, (_, end) = _run_specs(
            specs, workers=workers, cache=cache
        )
        cache.close()
        replay_s += seconds
        hits += cache.stats.hits
        # A cell that was recomputed, or read back different, is wrong.
        failed += warm_summary.executed
        failed += sum(
            cells[label] != digest
            for label, digest in _cells(specs, warm).items()
        )
    lookups = len(specs) * (1 + WARM_REPLAYS)
    replayed = len(specs) * WARM_REPLAYS
    return Outcome(
        wall_s=wall,
        window_ns=(window[0], end),
        ticks=sum(spec_ticks(s, r) for s, r in zip(specs, results)),
        cells=cells,
        failed=failed,
        metrics={"replay_cells_per_s": replayed / replay_s},
        layer_metrics={
            **_executor_metrics([summary], results),
            "experiments.cache.hits": hits,
            "experiments.cache.hit_frac": hits / lookups,
            "experiments.cache.bytes_written": stored,
            # Every replay reads the manifest and each stored blob once.
            "experiments.cache.bytes_read": stored * WARM_REPLAYS,
            "experiments.cache.replay_cells_per_s": replayed / replay_s,
        },
    )


# -- traced_scalar ------------------------------------------------------------


def setup_traced_scalar(seed: int, size: Size, work: Path) -> dict:
    cfg = with_slowdown(ControllerConfig(), 10.0)
    noise = NoiseConfig(seed=seed)
    runs = []
    for name in catalog.application_names():
        app = catalog.build_application(name, scale=size.app_scale)
        for ctrl in ("duf", "dufp"):
            base = cell_seed(name, ctrl, 10.0)
            for r in range(size.traced_seeds):
                label = f"{name}/{ctrl}@10%#{r}"
                path = work / f"{name}-{ctrl}-{r}.jsonl"
                runs.append((label, app, ctrl, noise.seed + 1009 * r + base, path))
    return {"cfg": cfg, "noise": noise, "runs": runs, "attempted": len(runs)}


def execute_traced_scalar(inp: dict) -> Outcome:
    cfg, noise = inp["cfg"], inp["noise"]
    t0 = time.perf_counter_ns()
    results = [
        run_application(
            app,
            controller_factory(ctrl, cfg),
            controller_cfg=cfg,
            noise=noise,
            seed=seed,
            record_trace=False,
            trace_sink=StreamingTraceSink(path),
            engine="scalar",
        )
        for _, app, ctrl, seed, path in inp["runs"]
    ]
    t1 = time.perf_counter_ns()
    cells = {}
    trace_bytes = 0
    for (label, _, _, _, path), run in zip(inp["runs"], results):
        data = path.read_bytes()
        path.unlink()
        trace_bytes += len(data)
        cells[label] = column_digest(
            [
                [run.execution_time_s],
                [run.avg_package_power_w],
                [run.avg_dram_power_w],
                [run.total_energy_j],
            ],
            extra=hashlib.sha256(data).digest(),
        )
    return Outcome(
        wall_s=(t1 - t0) / 1e9,
        window_ns=(t0, t1),
        ticks=sum(r.execution_time_s for r in results) / EngineConfig().dt_s,
        cells=cells,
        layer_metrics={"sim.trace.bytes": trace_bytes},
    )


# -- fleet_hetero -------------------------------------------------------------


def setup_fleet_hetero(seed: int, size: Size, work: Path) -> dict:
    noise = NoiseConfig(seed=seed)
    common = dict(
        tolerances_pct=FLEET_TOLERANCES,
        runs=size.fleet_runs,
        noise=noise,
        app_scale=size.app_scale,
    )
    cluster_specs, _ = sweep_specs(
        apps=("CG",),
        controllers=(
            make_spec("fleet-demand", budget_w=FLEET_BUDGET_W),
            make_spec("fleet-fair", budget_w=FLEET_BUDGET_W),
        ),
        cluster=ClusterSpec(node_count=4, node_apps=("WEB", "BATCH", "CG", "EP")),
        **common,
    )
    hetero_specs, _ = sweep_specs(
        apps=("CG", "EP"),
        controllers=(
            make_spec("hetero-coord", budget_w=HETERO_BUDGET_W),
            make_spec("hetero-fair", budget_w=HETERO_BUDGET_W),
        ),
        gpu=GPUNodeConfig(gpu_count=2, kernel_count=8),
        **common,
    )
    return {
        "cluster": cluster_specs,
        "hetero": hetero_specs,
        "attempted": len(cluster_specs) + len(hetero_specs),
    }


def execute_fleet_hetero(inp: dict) -> Outcome:
    cluster, hetero = inp["cluster"], inp["hetero"]
    c_res, c_sum, _, (t0, _) = _run_specs(cluster, workers=1)
    h_res, h_sum, _, (_, t1) = _run_specs(hetero, workers=1)
    specs = cluster + hetero
    results = c_res + h_res
    return Outcome(
        wall_s=(t1 - t0) / 1e9,
        window_ns=(t0, t1),
        ticks=sum(spec_ticks(s, r) for s, r in zip(specs, results)),
        cells={
            **_cells(cluster, c_res, "cluster:"),
            **_cells(hetero, h_res, "hetero:"),
        },
        layer_metrics=_executor_metrics([c_sum, h_sum], results),
    )


#: Workload name -> (setup, execute).
WORKLOADS = {
    "paper_grid_batch": (setup_paper_grid, execute_paper_grid),
    "traced_scalar": (setup_traced_scalar, execute_traced_scalar),
    "fleet_hetero": (setup_fleet_hetero, execute_fleet_hetero),
    "sharded_cache": (setup_sharded_cache, execute_sharded_cache),
}
