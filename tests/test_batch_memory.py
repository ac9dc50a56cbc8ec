"""What one batch lane costs in memory.

The paper's protocol repeats each cell ten times with jittered phase
volumes, so most lanes of a batch are runs of a few applications.  A
jittered run keeps only its drawn volume rows over its application's
table, and the batch keeps every other phase constant once per base
application: a lane pays for what differs between lanes.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import as_spec
from repro.experiments.executor import RunSpec, run_specs
from repro.sim.batch import BatchSimulationEngine
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application
from repro.workloads.phase import PhaseTable

APPS = ("CG", "MG")

#: Traced heap per added lane, in bytes: 29.4 KB measured on the grid
#: below (CPython 3.11, numpy 2), plus 25 % headroom.  Before lanes
#: shared their base tables a lane cost about 77 KB here.
LANE_BUDGET_BYTES = 37_000


def grid(runs: int) -> list[RunSpec]:
    """Two applications under DUF and DUFP, ``runs`` repetitions each."""
    return [
        RunSpec(
            app_name=app,
            controller=controller,
            runs=runs,
            app_scale=0.05,
            engine="batch",
            noise=NoiseConfig(seed=0),
            label=f"{app}/{controller}",
        )
        for app in APPS
        for controller in ("duf", "dufp")
    ]


@pytest.fixture(scope="module")
def observed():
    """One pooled 40-lane batch, with its engine and every table build."""
    mp = pytest.MonkeyPatch()
    built = []
    engines = []
    with_volumes = PhaseTable.with_volumes
    build_lanes = BatchSimulationEngine._build_lanes

    def counting(table, volumes):
        built.append(table.names)
        return with_volumes(table, volumes)

    def keeping(engine, ctxs):
        # ``_build_lanes`` releases the runs' applications; keep them.
        apps = [list(ctx.socket_apps) for ctx in ctxs]
        build_lanes(engine, ctxs)
        engines.append((engine, apps))

    mp.setattr(PhaseTable, "with_volumes", counting)
    mp.setattr(BatchSimulationEngine, "_build_lanes", keeping)
    try:
        results, _ = run_specs(grid(10), workers=1)
    finally:
        mp.undo()
    return results, built, engines


def test_no_jittered_run_builds_its_table(observed):
    results, built, engines = observed
    assert len(results) == 4 and len(engines) == 1
    assert built == []


def test_lanes_of_one_application_share_one_base_block(observed):
    _, _, [(engine, run_apps)] = observed
    bases = {}
    for apps in run_apps:
        for app in apps:
            base, rows = app.volume_rows()
            assert "table" not in vars(app)
            bases.setdefault(app.name, set()).add(id(base))
            assert rows.shape == (2, len(base))
    assert {name: len(ids) for name, ids in bases.items()} == {
        name: 1 for name in APPS
    }
    # One block of constant rows per base, and each lane's first row
    # maps onto its application's block.
    lengths = {
        app.name: len(app.volume_rows()[0]) for apps in run_apps for app in apps
    }
    assert engine._tab.shape[1] == sum(lengths.values())
    first_col = engine._row_first + engine._col_shift
    for name in APPS:
        lanes = [l for l, apps in enumerate(run_apps) if apps[0].name == name]
        assert len(lanes) == 20
        assert len(set(first_col[lanes].tolist())) == 1


def test_lanes_release_their_applications(monkeypatch):
    """A lane keeps its jittered volume rows, not its application."""
    refs = []
    build_lanes = BatchSimulationEngine._build_lanes

    def watching(engine, ctxs):
        refs.extend(weakref.ref(app) for ctx in ctxs for app in ctx.socket_apps)
        build_lanes(engine, ctxs)
        assert [ref() for ref in refs] == [None] * len(refs)

    monkeypatch.setattr(BatchSimulationEngine, "_build_lanes", watching)
    results, _ = run_specs(grid(2), workers=1)
    assert len(results) == 4 and len(refs) == 4 * 2  # a lane per run


def _traced_peak(specs) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_specs(specs, workers=1)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_heap_per_added_lane_stays_under_budget():
    run_specs(grid(1), workers=1)  # imports and first-use caches
    narrow, wide = _traced_peak(grid(5)), _traced_peak(grid(10))
    per_lane = (wide - narrow) / (len(grid(1)) * 5)
    assert 0 < per_lane < LANE_BUDGET_BYTES, per_lane


def test_a_finished_batch_is_freed_without_the_cycle_collector():
    """Results, lane controllers and tick logs hold no path back to the
    engine, so its lane arrays go with it, not at a later gc pass."""
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    engines = [
        build_engine(
            build_application(app, scale=0.02),
            as_spec(policy).build(cfg),
            controller_cfg=cfg,
            noise=NoiseConfig(),
            seed=seed,
        )
        for seed, (app, policy) in enumerate(
            [("CG", "dufp"), ("MG", "duf"), ("EP", "default")]
        )
    ]
    gc.collect()
    gc.disable()
    try:
        batch = BatchSimulationEngine(engines)
        results = batch.run()
        ref = weakref.ref(batch)
        del batch
        assert ref() is None
    finally:
        gc.enable()
    assert len(results) == len(engines)
