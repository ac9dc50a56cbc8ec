"""Differential equivalence: the batch engine vs the scalar engine.

The batch engine's headline guarantee (docs/BATCHING.md) is that it is
an *execution strategy*, not an approximation: for any run the scalar
engine can execute, the vectorized engine produces numerically
identical traces, fault events, phases and summaries — exact for
integers, booleans and strings, within 1e-9 relative for floats.

This suite enforces the contract differentially: every case builds the
same run twice (identical seeds, configs and fault plans), executes one
copy per engine, and compares everything the run exposes — the full
per-sample trace, phase spans, fault-event streams and the
JSON-serialisable :func:`~repro.sim.export.run_summary`.  A fast smoke
subset stays in tier 1; the full policies × workloads × fault-plans
matrix runs under ``-m slow``.  The committed golden fault trace is one
case: the batch engine must reproduce it byte for byte.
"""

import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
from dataclasses import astuple, fields, replace
from operator import attrgetter

import numpy as np
import pytest

from repro.config import (
    ControllerConfig,
    EngineConfig,
    MachineConfig,
    NoiseConfig,
    ThermalConfig,
    yeti_socket_config,
)
from repro.cluster import engine as cluster_engine_module
from repro.cluster.engine import ClusterEngine, ClusterResult, run_pooled
from repro.cluster.spec import ClusterSpec
from repro.core.base import TickLog
from repro.core.registry import as_spec, policy_info, policy_names, split_policy
from repro.errors import SimulationError
from repro.experiments.executor import (
    CLUSTER_POOL_LANES,
    RunSpec,
    execute_spec,
    plan_shards,
    run_specs,
)
from repro.experiments.sweep import sweep_specs
from repro.hardware.msr import MSR
from repro.sim import batch as batch_module
from repro.sim import lane_runtime as lane_runtime_module
from repro.sim.batch import (
    BatchSimulationEngine,
    controller_lane_fallback_reason,
    run_batch,
)
from repro.sim.engine import SimulationEngine
from repro.sim.lane_physics import LanePhysics
from repro.sim.lane_runtime import LaneRuntime
from repro.sim.export import run_summary, write_trace_jsonl
from repro.sim.faults import FaultPlan
from repro.sim.machine import SimulatedMachine
from repro.sim.result import PhaseSpan
from repro.sim.run import build_engine
from repro.workloads.application import Application
from repro.workloads.catalog import build_application
from repro.workloads.phase import phase_from_duration

# The golden-scenario constants live with the regeneration script so
# this suite, tests/test_golden_trace.py and the regenerator can never
# drift apart.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from regen_golden_trace import CFG as GOLDEN_CFG  # noqa: E402
from regen_golden_trace import PLAN as GOLDEN_PLAN  # noqa: E402
from regen_golden_trace import QUIET as GOLDEN_QUIET  # noqa: E402
from regen_golden_trace import SEED as GOLDEN_SEED  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_dufp_trace.jsonl"

#: The contract's float tolerance.  In practice the engines agree bit
#: for bit (the golden-trace case proves it), but the public promise
#: is 1e-9 relative so numerically neutral refactors stay legal.
REL_TOL = 1e-9

#: A moderate all-channel plan (distinct from the golden plan so the
#: matrix exercises a second fault realisation).
PLAN = FaultPlan(
    msr_read_fail_rate=0.04,
    counter_stuck_rate=0.03,
    power_dropout_rate=0.02,
    cap_latch_fail_rate=0.08,
    latch_delay_rate=0.08,
    tick_miss_rate=0.03,
    tick_jitter_rate=0.04,
)


def _policy(name: str, sockets: int = 1) -> str:
    """Registry selector for ``name`` with runnable default parameters.

    The budget coordinator needs a per-node watt budget covering every
    socket's 65 W floor, so matrix cells size one to the socket count.
    """
    return f"budget:watts={130 * sockets}" if name == "budget" else name


def _engine_pair(policy, app_name, *, faults, seed, scale=0.1, sockets=1):
    """Two independently built, identically configured engines."""
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    spec = as_spec(_policy(policy, sockets))

    def build():
        return build_engine(
            build_application(app_name, scale=scale),
            spec.build(cfg),
            controller_cfg=cfg,
            socket_count=sockets,
            noise=NoiseConfig(),
            seed=seed,
            faults=faults,
        )

    return build(), build()


def _assert_float(a, b, what):
    if a is None or b is None:
        assert a is b, f"{what}: {a!r} vs {b!r}"
        return
    assert math.isfinite(a) == math.isfinite(b), f"{what}: {a!r} vs {b!r}"
    if a != b:  # fast path: bit-equal (the common case)
        assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{what}: {a!r} vs {b!r}"
        )


def _assert_summary(a, b, path="summary"):
    """Recursive comparison: exact for ints/bools/strings, 1e-9 floats."""
    assert type(a) is type(b) or (
        isinstance(a, float) and isinstance(b, float)
    ), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key sets differ"
        for k in a:
            _assert_summary(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_summary(x, y, f"{path}[{i}]")
    elif isinstance(a, bool) or not isinstance(a, float):
        assert a == b, f"{path}: {a!r} vs {b!r}"
    else:
        _assert_float(a, b, path)


def assert_runs_equivalent(scalar, batch):
    """The full contract, field by field, over two RunResults."""
    assert batch.app_name == scalar.app_name
    assert batch.controller_name == scalar.controller_name

    # Fault events: count, order, channels and timestamps must match —
    # the injector draws from its own stream in both engines.
    assert len(batch.fault_events) == len(scalar.fault_events)
    for eb, es in zip(batch.fault_events, scalar.fault_events):
        assert (eb.socket_id, eb.channel, eb.detail) == (
            es.socket_id,
            es.channel,
            es.detail,
        )
        _assert_float(eb.time_s, es.time_s, f"fault_event[{eb.channel}].time_s")

    assert len(batch.sockets) == len(scalar.sockets)
    for sb, ss in zip(batch.sockets, scalar.sockets):
        assert sb.socket_id == ss.socket_id
        _assert_float(sb.finish_time_s, ss.finish_time_s, "finish_time_s")
        _assert_float(sb.package_energy_j, ss.package_energy_j, "package_energy_j")
        _assert_float(sb.dram_energy_j, ss.dram_energy_j, "dram_energy_j")
        assert [p.name for p in sb.phases] == [p.name for p in ss.phases]
        for pb, ps in zip(sb.phases, ss.phases):
            _assert_float(pb.start_s, ps.start_s, f"phase[{pb.name}].start_s")
            _assert_float(pb.end_s, ps.end_s, f"phase[{pb.name}].end_s")
        assert len(sb.trace) == len(ss.trace), "trace lengths differ"
        for i, (tb, ts) in enumerate(zip(sb.trace, ss.trace)):
            for fname in (
                "time_s",
                "core_freq_hz",
                "uncore_freq_hz",
                "package_power_w",
                "dram_power_w",
                "cap_w",
                "flops_rate",
                "bytes_rate",
                "temperature_c",
            ):
                _assert_float(
                    getattr(tb, fname),
                    getattr(ts, fname),
                    f"trace[{i}].{fname}",
                )

    _assert_summary(run_summary(scalar), run_summary(batch))


def _run_pair(policy, app_name, *, faults=None, seed=0, scale=0.1, sockets=1):
    scalar_eng, batch_eng = _engine_pair(
        policy, app_name, faults=faults, seed=seed, scale=scale, sockets=sockets
    )
    scalar = scalar_eng.run()
    (batch,) = BatchSimulationEngine([batch_eng]).run()
    assert_runs_equivalent(scalar, batch)
    assert_hardware_equal(scalar_eng, batch_eng)


# ---------------------------------------------------------------- tier 1

SMOKE_CASES = [
    ("dufp", "CG", PLAN, 7),
    ("duf", "EP", None, 3),
    ("dnpc", "FT", PLAN, 11),
    ("default", "BT", None, 1),
]


@pytest.mark.parametrize(
    "policy, app, faults, seed",
    SMOKE_CASES,
    ids=[f"{p}-{a}-{'faults' if f else 'clean'}" for p, a, f, _ in SMOKE_CASES],
)
def test_smoke_equivalence(policy, app, faults, seed):
    _run_pair(policy, app, faults=faults, seed=seed)


def test_two_socket_equivalence():
    _run_pair("budget", "LU", faults=PLAN, seed=5, sockets=2)


def test_mixed_batch_matches_individual_scalar_runs():
    """Co-batched heterogeneous runs must not perturb one another."""
    cases = [
        ("dufp", "CG", PLAN, 0),
        ("duf", "EP", None, 1),
        ("static", "FT", PLAN, 2),
        ("uncore", "UA", None, 3),
    ]
    pairs = [
        _engine_pair(p, a, faults=f, seed=s, scale=0.08)
        for p, a, f, s in cases
    ]
    scalars = [se.run() for se, _ in pairs]
    batched = run_batch([be for _, be in pairs])
    for scalar, batch in zip(scalars, batched):
        assert_runs_equivalent(scalar, batch)


def test_log_only_lanes_match_scalar_runs():
    """The log-only baselines tick lane-parallel, mixed with DUF/DUFP.

    Beyond the results, each run's tick log and the hardware left
    behind must equal the scalar run's: the logged uncore clock is the
    one the hardware ran at, and after the run MSR 0x620 and the uncore
    driver's window are what the baseline's attach programmed.
    """
    cases = [
        ("default", "EP", 0, 1, True),
        ("default", "CG", 1, 2, False),
        ("static:cap_w=90", "FT", 2, 1, False),
        ("uncore:freq_ghz=1.6", "UA", 3, 1, True),
        ("uncore:freq_ghz=1.6", "MG", 4, 1, False),
        ("duf", "EP", 5, 1, False),
        ("dufp", "CG", 6, 1, False),
    ]

    def build(policy, app, seed, sockets, traced):
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        return build_engine(
            build_application(app, scale=0.06),
            as_spec(policy).build(cfg),
            controller_cfg=cfg,
            socket_count=sockets,
            noise=NoiseConfig(),
            seed=seed,
            record_trace=traced,
        )

    scalar_engines = [build(*c) for c in cases]
    batch_engines = [build(*c) for c in cases]
    assert all(controller_lane_fallback_reason(e) is None for e in batch_engines)
    scalars = [e.run() for e in scalar_engines]
    batched = run_batch(batch_engines)
    for se, be, scalar, batch in zip(
        scalar_engines, batch_engines, scalars, batched
    ):
        assert_runs_equivalent(scalar, batch)
        assert [c.ticks for c in be.controllers] == [
            c.ticks for c in se.controllers
        ]
        for ps, pb in zip(se.machine.processors, be.machine.processors):
            assert pb.msrs.read(MSR.MSR_UNCORE_RATIO_LIMIT) == ps.msrs.read(
                MSR.MSR_UNCORE_RATIO_LIMIT
            )
            assert (pb.uncore.window_lo_hz, pb.uncore.window_hi_hz) == (
                ps.uncore.window_lo_hz,
                ps.uncore.window_hi_hz,
            )


@pytest.mark.slow
def test_batch_reproduces_golden_trace_byte_for_byte(tmp_path):
    """The committed golden fault trace, through the batch engine.

    tests/test_golden_trace.py pins the scalar engine to this file;
    pinning the batch engine to the *same bytes* pins the two engines
    to each other at every layer at once — sample encoding, fault draw
    order, controller decisions and the hardening paths they exercise.
    """
    engine = build_engine(
        build_application("CG", scale=0.3),
        as_spec("dufp").build(GOLDEN_CFG),
        controller_cfg=GOLDEN_CFG,
        noise=GOLDEN_QUIET,
        seed=GOLDEN_SEED,
        faults=GOLDEN_PLAN,
    )
    (result,) = run_batch([engine])
    fresh = tmp_path / "fresh.jsonl"
    write_trace_jsonl(result, str(fresh))
    assert fresh.read_bytes() == GOLDEN.read_bytes(), (
        "batch engine diverged from the golden scalar trace; the "
        "engines are contractually identical — fix the engine, do not "
        "regenerate the file"
    )


# ------------------------------------------------------------- full matrix

MATRIX_APPS = ("CG", "EP", "SP")
MATRIX_PLANS = {"clean": None, "faults": PLAN}


@pytest.mark.slow
@pytest.mark.parametrize("app", MATRIX_APPS)
@pytest.mark.parametrize("plan_name", sorted(MATRIX_PLANS))
@pytest.mark.parametrize(
    # Hetero split and fleet partitioning policies build budget-split
    # objects for the hetero/cluster engines, not per-socket controller
    # factories; their scalar-vs-batch behaviour is covered by the
    # hetero and cluster suites.
    "policy",
    [
        n
        for n in policy_names()
        if policy_info(n).scope == "socket"
    ],
)
def test_matrix_equivalence(policy, app, plan_name):
    """Every registered CPU policy × workload sample × fault plan."""
    seed = 1009 * len(policy) + len(app) + (17 if plan_name == "faults" else 0)
    _run_pair(
        policy, app, faults=MATRIX_PLANS[plan_name], seed=seed, scale=0.08
    )


# -------------------------------------------------------------- run clocks
#
# Between syncs each run keeps its own tick clock (docs/BATCHING.md,
# "Run clocks"), so one batch mixes every way clocks drift apart with
# every kind of sync: tiny phases that split a tick several times, a
# two-socket run whose sockets finish in different ticks, 0.1/0.2/0.3 s
# controller intervals, jittered and missed ticks on the scatter/gather
# path, a traced run that retires early (one-tick windows while it
# lives, wide windows after), and two dozen runs whose finishing ticks
# fall at every offset of a controller window.

#: Jittered and missed ticks only: the run takes the scatter/gather path.
TICK_PLAN = FaultPlan(tick_miss_rate=0.15, tick_jitter_rate=0.3)


def _clock_engine(
    app,
    scale=0.02,
    *,
    policy="dufp",
    seed=0,
    interval_s=0.2,
    faults=None,
    record_trace=False,
    engine_cfg=None,
    socket=None,
):
    """One engine; ``app`` may be a list of ``(name, scale)`` per socket."""
    cfg = ControllerConfig(tolerated_slowdown=0.10, interval_s=interval_s)
    if isinstance(app, list):
        application = [build_application(a, scale=s) for a, s in app]
    else:
        application = build_application(app, scale=scale)
    machine = None
    if socket is not None:
        sockets = len(application) if isinstance(app, list) else 1
        machine = SimulatedMachine(MachineConfig(socket=socket, socket_count=sockets))
    return build_engine(
        application,
        as_spec(policy).build(cfg),
        controller_cfg=cfg,
        machine=machine,
        noise=NoiseConfig(),
        seed=seed,
        faults=faults,
        record_trace=record_trace,
        engine_cfg=engine_cfg,
    )


def _clock_cases(policy, seed):
    """Builders for the run-clock batch (see the section comment)."""
    cases = [
        lambda: _clock_engine("MG", policy=policy, seed=seed),
        lambda: _clock_engine(
            [("MG", 0.02), ("EP", 0.012)], policy=policy, seed=seed + 1
        ),
        lambda: _clock_engine("CG", policy=policy, seed=seed + 2, interval_s=0.1),
        lambda: _clock_engine(
            "LAMMPS", 0.03, policy=policy, seed=seed + 3, interval_s=0.3
        ),
        lambda: _clock_engine("LU", policy=policy, seed=seed + 4, faults=TICK_PLAN),
        lambda: _clock_engine(
            "EP", 0.004, policy=policy, seed=seed + 5, record_trace=True
        ),
    ]
    # EP runs 25 s per unit scale: 0.4e-3 steps move the finish by
    # about one 10 ms tick, so 24 runs cover a whole 0.2 s window.
    cases += [
        lambda i=i: _clock_engine(
            "EP", 0.004 + 0.0004 * i, policy=policy, seed=seed + 10 + i
        )
        for i in range(24)
    ]
    return cases


@pytest.fixture
def contexts(monkeypatch):
    """Each engine's :class:`RunContext`, to read its final injector clock."""
    seen = {}
    prepare = SimulationEngine.prepare

    def recording(engine):
        seen[id(engine)] = ctx = prepare(engine)
        return ctx

    monkeypatch.setattr(SimulationEngine, "prepare", recording)
    return seen


def _assert_batch_matches_scalar(builders, contexts):
    """One batch of ``builders`` equals each engine's scalar run."""
    scalar_engines = [build() for build in builders]
    batch_engines = [build() for build in builders]
    scalars = [e.run() for e in scalar_engines]
    batched = BatchSimulationEngine(batch_engines).run()
    for se, be, scalar, batch in zip(
        scalar_engines, batch_engines, scalars, batched
    ):
        assert_runs_equivalent(scalar, batch)
        assert_hardware_equal(se, be)
        assert [c.ticks for c in be.controllers] == [
            c.ticks for c in se.controllers
        ]
        # A run that ended between syncs keeps its own end time.
        si, bi = contexts[id(se)].injector, contexts[id(be)].injector
        assert (bi and bi.now_s) == (si and si.now_s)


def test_run_clocks_match_scalar(contexts):
    _assert_batch_matches_scalar(_clock_cases("dufp", 0), contexts)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 100, 200])
@pytest.mark.parametrize("policy", ["duf", "dufp", "default", "dnpc"])
def test_run_clock_matrix(policy, seed, contexts):
    _assert_batch_matches_scalar(_clock_cases(policy, seed), contexts)


def test_batch_time_limit_raises_the_scalar_error():
    """The limit is checked over live runs, where the scalar loop does."""
    builders = [
        # Finishes before its own (smallest) limit: never raises.
        lambda: _clock_engine(
            "EP", 0.004, seed=3, engine_cfg=EngineConfig(max_sim_time_s=0.15)
        ),
        lambda: _clock_engine(
            "MG", 0.05, seed=4, engine_cfg=EngineConfig(max_sim_time_s=0.25)
        ),
        lambda: _clock_engine(
            "CG", 0.05, seed=5, engine_cfg=EngineConfig(max_sim_time_s=0.4)
        ),
    ]
    with pytest.raises(SimulationError) as scalar:
        builders[1]().run()
    with pytest.raises(SimulationError) as batch:
        BatchSimulationEngine([build() for build in builders]).run()
    assert "exceeded 0.25s" in str(scalar.value)
    assert str(batch.value) == str(scalar.value)


#: A thermal socket: PROCHOT can split step and preview clocks, so a
#: pass can need a lane's point at both.
THERMAL_SOCKET = replace(yeti_socket_config(), thermal=ThermalConfig())


def test_point_cache_serves_lanes_that_sat_out_a_pass(contexts):
    """A DUF/DUFP-only batch pins its uncore, so points are reused.

    Each two-socket run's sockets split their ticks at different
    passes: the socket that used up its tick sits out its run-mate's
    catch-up passes and then works again, so its cached point must
    stand for it, and the one step it missed must not refresh it.
    """
    builders = [
        lambda apps=apps, policy=policy, seed=seed: _clock_engine(
            apps, policy=policy, seed=seed, socket=THERMAL_SOCKET
        )
        for seed, apps in enumerate(
            [[("LAMMPS", 0.1), ("CG", 0.1)], [("MG", 0.05), ("LAMMPS", 0.05)]]
        )
        for policy in ("duf", "dufp")
    ]
    _assert_batch_matches_scalar(builders, contexts)


# ------------------------------------------------- lanes that move every pass
#
# The batch recomputes a lane's operating point only where its key
# (core clock, uncore clock, phase row, working) moved.  These batches
# move keys on almost every pass — the RAPL clamp, the uncore governor,
# boost and AVX phases, PROCHOT, split ticks and retiring lanes — and
# must still equal the scalar runs bit for bit.

#: A socket whose AVX license derates the wide phases (fpc >= 8).
AVX_SOCKET = replace(
    yeti_socket_config(),
    core=replace(
        yeti_socket_config().core, avx_license_fpc=8.0, avx_max_freq_hz=2.0e9
    ),
)

#: A socket that trips PROCHOT within a few ticks and keeps toggling it.
HOT_SOCKET = replace(
    yeti_socket_config(),
    thermal=ThermalConfig(tau_s=0.2, t_prochot_c=66.0, hysteresis_c=1.0),
)


def _moving_engine(app, policy, seed, *, tolerance=0.10, socket=None):
    """``_clock_engine`` with a chosen tolerance (``app`` as there)."""
    cfg = ControllerConfig(tolerated_slowdown=tolerance)
    if isinstance(app, list):
        application = [build_application(a, scale=s) for a, s in app]
    else:
        application = build_application(app, scale=0.03)
    machine = None
    if socket is not None:
        sockets = len(application) if isinstance(app, list) else 1
        machine = SimulatedMachine(MachineConfig(socket=socket, socket_count=sockets))
    return build_engine(
        application,
        as_spec(policy).build(cfg),
        controller_cfg=cfg,
        machine=machine,
        noise=NoiseConfig(),
        seed=seed,
    )


#: Batches as ``(app, policy, tolerance)`` runs on one socket config.
MOVING_BATCHES = {
    # DUFP walks the caps down to the 65 W floor and a static cap sits
    # just above it: the clamp search runs on every pass.
    "caps-at-the-floor": (
        None,
        [
            ("MG", "dufp", 0.5),
            ("CG", "dufp", 0.5),
            ("EP", "static:cap_w=66", 0.1),
            ("LU", "static:cap_w=70", 0.1),
        ],
    ),
    # Open governor windows beside pinned ones.
    "default-beside-pinned": (
        None,
        [
            ("CG", "default", 0.1),
            ("MG", "default", 0.1),
            ("CG", "duf", 0.1),
            ("FT", "uncore:freq_ghz=1.6", 0.1),
            ("MG", "dufp", 0.1),
        ],
    ),
    # LAMMPS' boost phases and CG's boosted setup, under binding caps.
    "boost-phases": (
        None,
        [
            ("LAMMPS", "static:cap_w=80", 0.1),
            ("LAMMPS", "dufp", 0.2),
            ("CG", "static:cap_w=75", 0.1),
        ],
    ),
    "avx-license": (
        AVX_SOCKET,
        [
            ("BT", "dufp", 0.1),
            ("FT", "default", 0.1),
            ("SP", "duf", 0.1),
        ],
    ),
    "prochot": (
        HOT_SOCKET,
        [
            ("EP", "default", 0.1),
            ("FT", "dufp", 0.1),
            ("BT", "duf", 0.1),
        ],
    ),
    # Two-socket runs whose sockets split ticks on different passes,
    # and whose second socket retires its phase list mid-window.
    "split-and-retire": (
        None,
        [
            ([("MG", 0.03), ("LAMMPS", 0.03)], "dufp", 0.1),
            ([("CG", 0.03), ("EP", 0.004)], "duf", 0.1),
            ([("LU", 0.03), ("EP", 0.002)], "default", 0.1),
            ([("EP", 0.003), ("MG", 0.02)], "dufp", 0.3),
        ],
    ),
}


@pytest.fixture
def point_passes(monkeypatch):
    """Count passes, and passes that recomputed some lane's point."""
    seen = {"passes": 0, "moved": 0}
    tick_pass, points = BatchSimulationEngine._pass, LanePhysics._points

    def counting_pass(self, active):
        seen["passes"] += 1
        return tick_pass(self, active)

    def counting_points(self, lanes, *args):
        seen["moved"] += 1
        return points(self, lanes, *args)

    monkeypatch.setattr(BatchSimulationEngine, "_pass", counting_pass)
    monkeypatch.setattr(LanePhysics, "_points", counting_points)
    return seen


@pytest.mark.parametrize("name", sorted(MOVING_BATCHES))
def test_lanes_moving_every_pass_match_scalar(name, contexts, point_passes):
    socket, runs = MOVING_BATCHES[name]
    builders = [
        lambda app=app, policy=policy, tol=tol, seed=seed: _moving_engine(
            app, policy, seed, tolerance=tol, socket=socket
        )
        for seed, (app, policy, tol) in enumerate(runs)
    ]
    _assert_batch_matches_scalar(builders, contexts)
    # Keys really move: over half the passes recompute some lane's
    # point (55-97 % across these batches).
    assert point_passes["moved"] > 0.5 * point_passes["passes"]


def _steady_batch(runs: int) -> BatchSimulationEngine:
    """A batch stepped by hand: one long phase, an uncore pinned at
    attach, no controller ticks (``_tick`` runs physics only)."""
    app = Application(
        "steady", (phase_from_duration("steady", 5.0, oi=0.5, fpc=4.0),)
    )
    cfg = ControllerConfig()
    engines = [
        build_engine(
            app,
            as_spec("uncore:freq_ghz=1.6").build(cfg),
            controller_cfg=cfg,
            noise=NoiseConfig(),
            seed=seed,
        )
        for seed in range(runs)
    ]
    batch = BatchSimulationEngine(engines)
    ctxs = [e.prepare() for e in engines]
    for ctx in ctxs:
        ctx.runtime.start()
    batch._build_lanes(ctxs)
    batch.physics.tracing = False
    return batch


def _tick_to(batch: BatchSimulationEngine, sync: int) -> None:
    times = batch._times
    while len(times) <= sync:
        times.append(times[-1] + batch.dt)
    batch._tick(sync)


def test_point_cache_recomputes_exactly_the_moved_lanes(monkeypatch):
    """A pass where no key moved evaluates no p-norm; a pass where one
    lane's uncore moved recomputes that lane alone, once."""
    rows, pnorms = [], []
    points, pnorm = LanePhysics._points, LanePhysics._pnorm

    def recording_points(self, lanes, *args):
        rows.append(lanes.tolist())
        return points(self, lanes, *args)

    def recording_pnorm(self, a, b, lanes):
        pnorms.extend(lanes.tolist())
        return pnorm(self, a, b, lanes)

    monkeypatch.setattr(LanePhysics, "_points", recording_points)
    monkeypatch.setattr(LanePhysics, "_pnorm", recording_pnorm)
    batch = _steady_batch(4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sync in range(1, 40):
            _tick_to(batch, sync)
        assert rows and pnorms  # the first passes computed every lane
        rows.clear()
        pnorms.clear()
        _tick_to(batch, 40)
        assert rows == [] and pnorms == []

        # Re-pin lane 2's uncore, as a controller tick would.
        physics = batch.physics
        f = physics.ufreq[2] - 1e8
        physics.ufreq[2] = physics.win_lo[2] = physics.win_hi[2] = f
        physics.refresh_uncore()
        _tick_to(batch, 41)
        assert rows == [[2]] and pnorms == [2]
        rows.clear()
        pnorms.clear()
        _tick_to(batch, 42)
        assert rows == [] and pnorms == []


# ------------------------------------------------------------ object mirror
#
# ``repro.sim.lane_mirror.FIELDS`` is the one statement of which
# processor attribute each lane array mirrors; ``_build_lanes``,
# ``_scatter`` and ``_gather`` iterate it (docs/BATCHING.md, "Lanes and
# their objects").

#: Float and bool state of a batchable processor that no lane mirrors,
#: each constant for a run, with the reason it is.
UNMIRRORED = {
    "rapl.pl1.clamping": "every PowerLimit is built with clamping on",
    "rapl.pl2.clamping": "every PowerLimit is built with clamping on",
    "rapl.package.energy_unit_j": "the SocketConfig's RAPL energy unit",
    "rapl.dram.energy_unit_j": "the SocketConfig's RAPL energy unit",
    "perf.balance_band": "a model constant only the bound label reads",
}

#: The private hardware attributes the three mirror sites read.
MIRRORED_PRIVATE = (
    "_freq_hz",
    "_current_demand",
    "_avg_pl1_w",
    "_avg_pl2_w",
    "_energy_j",
    "_now_s",
    "_pending",
    "_aperf_cycles",
    "_mperf_cycles",
    "_prev_activity",
    "_prev_traffic",
)


def _hardware_state(proc) -> dict:
    """Every float and bool dataclass field of ``proc``'s hardware
    objects, by dotted path, plus the staged RAPL write."""
    state = {"rapl._pending": proc.rapl._pending}
    for path in (
        "",
        "dvfs",
        "uncore",
        "uncore.governor",
        "rapl",
        "rapl.pl1",
        "rapl.pl2",
        "rapl.package",
        "rapl.dram",
        "perf",
        "thermal",
    ):
        obj = attrgetter(path)(proc) if path else proc
        if obj is None:
            continue
        for f in fields(obj):
            value = getattr(obj, f.name)
            if type(value) in (float, bool):
                state[f"{path}.{f.name}".lstrip(".")] = value
    return state


def _bitwise(state: dict) -> dict:
    """``state`` with each float as its exact bits (``float.hex``)."""
    return {k: v.hex() if type(v) is float else v for k, v in state.items()}


def assert_hardware_equal(scalar_engine, batch_engine):
    """After the run, every processor's hardware state equals the scalar
    run's bit for bit, including the staged RAPL write."""
    for ps, pb in zip(
        scalar_engine.machine.processors, batch_engine.machine.processors, strict=True
    ):
        assert _bitwise(_hardware_state(pb)) == _bitwise(_hardware_state(ps))


def _mirror_batch(socket) -> BatchSimulationEngine:
    """A built, unstepped batch on ``socket``: paper-grid DUF, DUFP and
    default lanes, a two-socket run, and a staged RAPL write."""
    runs = [
        ("CG", "duf"),
        ("MG", "dufp"),
        ("EP", "default"),
        ([("LU", 0.03), ("FT", 0.03)], "dufp"),
    ]
    engines = [
        _moving_engine(app, policy, seed, socket=socket)
        for seed, (app, policy) in enumerate(runs)
    ]
    batch = BatchSimulationEngine(engines)
    ctxs = [e.prepare() for e in engines]
    for ctx in ctxs:
        ctx.runtime.start()
    engines[2].machine.processors[0].rapl.set_limits(
        90.0, 110.0, pl1_window_s=0.5
    )
    batch._build_lanes(ctxs)
    batch.physics.tracing = False
    return batch


def _lane_arrays(batch) -> dict:
    return {
        (type(owner).__name__, k): v.copy()
        for owner in (batch, batch.physics)
        for k, v in vars(owner).items()
        if isinstance(v, np.ndarray)
    }


def _assert_round_trip(batch) -> None:
    """``_scatter`` every run: each mirrored attribute reads its lane's
    value; then ``_gather``: no lane array moves."""
    physics = batch.physics
    before = _lane_arrays(batch)
    for r in range(len(batch.engines)):
        batch._scatter(r)
    for f in physics.mirror:
        lanes = getattr(physics, f.lane).tolist()
        assert [f.read(p) for p in batch.procs] == lanes, f.lane
    dues, pl1 = physics.pend_due.tolist(), physics.pend1_w.tolist()
    pending = [w if due < math.inf else None for due, w in zip(dues, pl1)]
    assert [p.rapl.pending_pl1_w for p in batch.procs] == pending
    for r in range(len(batch.engines)):
        batch._gather(r)
    physics.after_gather()
    after = _lane_arrays(batch)
    assert after.keys() == before.keys()
    for name, arr in before.items():
        assert arr.dtype == after[name].dtype, name
        assert arr.tobytes() == after[name].tobytes(), name


def test_every_float_state_attribute_is_mirrored():
    batch = _mirror_batch(THERMAL_SOCKET)
    mirrored = {f.attr for f in batch.physics.mirror}
    for proc in batch.procs:
        state = set(_hardware_state(proc)) - {"rapl._pending"}
        assert state - mirrored == set(UNMIRRORED)
        assert mirrored <= state | {"dvfs.requested_hz"}


@pytest.mark.parametrize("socket", [None, THERMAL_SOCKET], ids=["yeti", "thermal"])
def test_scatter_and_gather_round_trip(socket):
    batch = _mirror_batch(socket)
    assert batch.physics.has_thermal == (socket is not None)
    assert np.isfinite(batch.physics.pend_due).sum() == 1
    built = [_hardware_state(p) for p in batch.procs]
    # On the fresh batch, scattering writes back exactly what was read.
    for r in range(len(batch.engines)):
        batch._scatter(r)
    for proc, state in zip(batch.procs, built):
        now = _hardware_state(proc)
        assert now == state
        assert [type(v) for v in now.values()] == [type(v) for v in state.values()]
    _assert_round_trip(batch)
    # After the lanes stepped away from their objects (the staged write
    # latched, clocks, energies and averages moved), too.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _tick_to(batch, 20)
    assert not np.isfinite(batch.physics.pend_due).any()
    _assert_round_trip(batch)


@pytest.mark.xfail(
    strict=True,
    raises=SimulationError,
    reason="ROADMAP item 16: the batch never fills a processor's last-step "
    "snapshot, so state and snapshot raise after a batch run",
)
def test_last_step_snapshot_after_a_batch_run_matches_scalar():
    for policy, app in [("dufp", "CG"), ("duf", "MG"), ("default", "EP"), ("dufp", "LU")]:
        scalar_eng, batch_eng = _engine_pair(policy, app, faults=None, seed=1, scale=0.02)
        scalar_eng.run()
        run_batch([batch_eng])
        for ps, pb in zip(scalar_eng.machine.processors, batch_eng.machine.processors):
            assert pb.snapshot == ps.snapshot
            assert pb.state == ps.state


def test_only_the_mirror_module_names_private_hardware_state():
    """An attribute path (``.x``) or a quoted one (``"x``) names it."""
    src = pathlib.Path(batch_module.__file__).parent
    pattern = re.compile(r"[.\"](%s)\b" % "|".join(MIRRORED_PRIVATE))
    others = sorted(set(src.glob("*.py")) - {src / "lane_mirror.py"})
    assert src / "batch.py" in others
    for path in others:
        assert pattern.findall(path.read_text()) == [], path.name
    named = set(pattern.findall((src / "lane_mirror.py").read_text()))
    assert named == set(MIRRORED_PRIVATE)


# ------------------------------------------------------- measurement noise
#
# Lane-parallel ticks read each run's measurement noise from prefetched
# blocks of its generator (docs/BATCHING.md, "Lane-parallel controller
# ticks").  The draws per tick vary with the noise config and with
# zero rates, which the scalar meter does not perturb, so blocks run
# out at every offset of a tick.


def _zero_rate_app(scale: float) -> Application:
    """A compute phase with no memory traffic, a memory phase with no
    FLOPs and a mixed phase: 2, 3 or 4 draws per socket and tick."""
    compute = replace(
        phase_from_duration("zr.compute", 0.9 * scale, oi=4000.0, fpc=4.0),
        bytes=0.0,
    )
    stream = phase_from_duration("zr.stream", 0.7 * scale, oi=0.0, fpc=0.8)
    mixed = phase_from_duration("zr.mixed", 0.5 * scale, oi=1.0, fpc=4.0)
    assert stream.flops == 0.0
    return Application.from_pattern(
        "ZR", loop=[compute, stream, mixed], iterations=4
    )


def _noise_engine(policy, app, sockets, noise, seed, traced=False):
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    application = (
        _zero_rate_app(1.0) if app == "zero-rate" else build_application(app, scale=0.1)
    )
    return build_engine(
        application,
        as_spec(policy).build(cfg),
        controller_cfg=cfg,
        socket_count=sockets,
        noise=noise,
        seed=seed,
        record_trace=traced,
    )


NOISE_CASES = [
    ("dufp", "zero-rate", 2, NoiseConfig(), 31, True),
    ("duf", "zero-rate", 1, NoiseConfig(), 32, False),
    ("dufp", "zero-rate", 1, NoiseConfig(counter_noise=0.0), 33, False),
    ("dufp", "MG", 1, NoiseConfig(counter_noise=0.0), 34, False),
    ("duf", "CG", 1, NoiseConfig(power_noise=0.0), 35, False),
    ("default", "LU", 2, NoiseConfig(power_noise=0.0), 36, False),
    ("dufp", "FT", 1, NoiseConfig(counter_noise=0.0, power_noise=0.0), 37, False),
]


def test_noise_blocks_reproduce_the_scalar_draws(monkeypatch):
    """Results and tick logs match where the draws per tick vary.

    A spy on the block reader checks that some run's block ran out in
    the middle of a tick, so the leftover draws had to carry over.
    """
    carried = []
    draws = LaneRuntime._noise_draws

    def spy(self, runs, need):
        left = self._nz_len[runs] - self._nz_cur[runs]
        carried.append(bool(((need > left) & (left > 0)).any()))
        return draws(self, runs, need)

    monkeypatch.setattr(LaneRuntime, "_noise_draws", spy)
    scalar_engines = [_noise_engine(*c) for c in NOISE_CASES]
    batch_engines = [_noise_engine(*c) for c in NOISE_CASES]
    assert all(controller_lane_fallback_reason(e) is None for e in batch_engines)
    scalars = [e.run() for e in scalar_engines]
    batched = BatchSimulationEngine(batch_engines).run()
    assert any(carried)
    for se, be, scalar, batch in zip(
        scalar_engines, batch_engines, scalars, batched
    ):
        assert_runs_equivalent(scalar, batch)
        assert [c.ticks for c in be.controllers] == [
            c.ticks for c in se.controllers
        ]


def test_lane_parallel_tick_logs_are_built_on_first_read(monkeypatch):
    """A lane-parallel batch makes no TickLog until ``ticks`` is read.

    Reading builds the scalar run's list from plain Python values, and
    a second read returns the same list without building again.
    """
    built = []

    class CountingTickLog(TickLog):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(lane_runtime_module, "TickLog", CountingTickLog)
    cases = [
        ("dufp", "CG", 2, NoiseConfig(), 41),
        ("duf", "MG", 1, NoiseConfig(), 42),
        ("default", "EP", 1, NoiseConfig(), 43),
    ]
    scalar_engines = [_noise_engine(*c) for c in cases]
    batch_engines = [_noise_engine(*c) for c in cases]
    for e in scalar_engines:
        e.run()
    run_batch(batch_engines)
    assert built == []

    total = 0
    for se, be in zip(scalar_engines, batch_engines):
        for cs, cb in zip(se.controllers, be.controllers):
            ticks = cb.ticks
            assert ticks, "the run ticked"
            total += len(ticks)
            assert len(built) == total
            assert [astuple(t) for t in ticks] == [astuple(t) for t in cs.ticks]
            for tb, ts in zip(ticks, cs.ticks):
                assert [type(v) for v in astuple(tb)] == [
                    type(v) for v in astuple(ts)
                ]
            again = cb.ticks
            assert again is ticks and again == ticks
            assert len(built) == total


# ------------------------------------------------------ spans built on read
#
# The batch engine keeps phase spans as one end-time column and builds
# a socket's ``PhaseSpan`` list only when ``phases`` is read
# (docs/BATCHING.md, "Memory").


def test_phase_spans_are_built_on_first_read(monkeypatch):
    """A batch makes no PhaseSpan until ``phases`` is read.

    Reading builds the scalar run's list, exactly (the same floats and
    types), on one and two sockets, and a second read returns the same
    list without building again.
    """
    cases = [
        ("dufp", "CG", 2, NoiseConfig(), 51),
        ("duf", "LU", 1, NoiseConfig(), 52),
        ("default", "MG", 2, NoiseConfig(), 53),
    ]
    scalars = [_noise_engine(*c).run() for c in cases]
    built = []
    init = PhaseSpan.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseSpan, "__init__", counting)
    batched = run_batch([_noise_engine(*c) for c in cases])
    assert built == []

    total = 0
    for scalar, batch in zip(scalars, batched):
        assert len(batch.sockets) == len(scalar.sockets)
        for sb, ss in zip(batch.sockets, scalar.sockets):
            spans = sb.phases
            assert spans, "the run crossed phases"
            total += len(spans)
            assert len(built) == total
            assert [astuple(p) for p in spans] == [astuple(p) for p in ss.phases]
            for pb in spans:
                assert [type(v) for v in astuple(pb)] == [str, float, float]
            assert sb.phases is spans
            assert len(built) == total


def _scalar_spans_at_time_limit(engine):
    """Each socket's closed spans when the scalar stepper hits its limit."""
    stepper = engine.stepper()
    with pytest.raises(SimulationError, match="exceeded"):
        while not stepper.done:
            stepper.tick()
    return [p.spans for p in stepper.progress]


@pytest.mark.parametrize(
    "app, limit_s, closed_any",
    [
        # Both sockets stop inside a phase, some phases in.
        ([("CG", 0.05), ("LU", 0.05)], 0.6, True),
        # The limit falls inside the first phase: no span closed.
        ([("CG", 0.05)], 0.05, False),
    ],
    ids=["partial-2-socket", "empty"],
)
def test_spans_at_the_time_limit_match_scalar(app, limit_s, closed_any):
    """A run stopped by ``max_sim_time_s`` keeps its closed spans only."""

    def build():
        return _clock_engine(app, engine_cfg=EngineConfig(max_sim_time_s=limit_s))

    scalar = _scalar_spans_at_time_limit(build())
    batch = BatchSimulationEngine([build()])
    with pytest.raises(SimulationError, match="exceeded"):
        batch.run()
    spans = [batch._span_source(l)() for l in batch.blocks[0]]
    assert [[astuple(p) for p in s] for s in spans] == [
        [astuple(p) for p in s] for s in scalar
    ]
    whole = _clock_engine(app).run()
    for s, sock in zip(spans, whole.sockets):
        closed = [p for p in sock.phases if p.end_s < limit_s]
        assert s == closed
        assert len(s) < len(sock.phases)
    assert all(bool(s) == closed_any for s in spans)


def test_batch_cell_pickles_the_same_bytes_read_or_unread():
    """A cached ``last_run`` payload does not depend on whether its
    spans were read first, and equals the scalar cell's payload."""

    def cell(engine):
        return execute_spec(
            RunSpec("LU", "dufp", runs=2, app_scale=0.05, socket_count=2, engine=engine)
        )

    unread = pickle.dumps(cell("batch"), protocol=pickle.HIGHEST_PROTOCOL)
    read = cell("batch")
    assert all(s.phases for s in read.last_run.sockets)
    assert pickle.dumps(read, protocol=pickle.HIGHEST_PROTOCOL) == unread
    assert pickle.dumps(cell("scalar"), protocol=pickle.HIGHEST_PROTOCOL) == unread


# ---------------------------------------------------------- cluster cells
#
# A cluster's nodes run as batch lanes under the same fleet round the
# scalar ClusterEngine runs (repro.cluster.fleet.FleetRound).  The scalar
# engine is the oracle: every node's run, the allocation history, the
# fleet metrics and each node's final RAPL state (latched limits and the
# staged write a finished node never latches) must match it.

FLEET_APPS = ("WEB", "BATCH", "CG", "EP")
FLEET_METRICS = (
    "makespan_s",
    "execution_time_s",
    "package_energy_j",
    "dram_energy_j",
    "total_energy_j",
    "avg_package_power_w",
    "avg_dram_power_w",
    "fairness_index",
    "p99_slowdown",
)


def _cluster(
    policy,
    node_controller="dufp",
    *,
    seed=0,
    period_s=1.0,
    sockets=1,
    apps=FLEET_APPS,
    scale=0.2,
    socket=None,
    faults=None,
    record_trace=False,
):
    """A fleet under a budget tight enough that every policy caps."""
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    cluster = ClusterSpec(
        node_count=len(apps),
        node_apps=apps,
        node_controller=node_controller,
        sockets_per_node=sockets,
        period_s=period_s,
    )
    budget = 90.0 * len(apps) * sockets
    return ClusterEngine(
        applications=[
            build_application(a, scale=scale, socket=socket) for a in apps
        ],
        cluster=cluster,
        policy=split_policy(as_spec(f"{policy}:budget_w={budget}"), cfg, scope="node"),
        controller_cfg=cfg,
        noise=NoiseConfig(),
        socket=socket,
        seed=seed,
        record_trace=record_trace,
        faults=faults,
    )


@pytest.fixture
def node_rapl(monkeypatch):
    """Each cluster's node RAPL state once run: ``state(cluster_engine)``."""
    built = {}
    node_engines = ClusterEngine._node_engines

    def keep(self):
        built[id(self)] = engines = node_engines(self)
        return engines

    monkeypatch.setattr(ClusterEngine, "_node_engines", keep)

    def state(engine):
        return [
            (p.rapl.pl1.limit_w, p.rapl.pl2.limit_w, p.rapl.pending_pl1_w)
            for e in built[id(engine)]
            for p in e.machine.processors
        ]

    return state


def assert_clusters_equivalent(scalar, pooled):
    """Nodes, allocation history and fleet metrics, as the contract."""
    _assert_summary(scalar.allocations, pooled.allocations, "allocations")
    assert len(pooled.nodes) == len(scalar.nodes)
    for s, p in zip(scalar.nodes, pooled.nodes):
        assert_runs_equivalent(s, p)
    for metric in FLEET_METRICS:
        _assert_float(getattr(pooled, metric), getattr(scalar, metric), metric)
    _assert_summary(scalar.slowdowns, pooled.slowdowns, "slowdowns")


def _assert_pooled_matches_scalar(builders, node_rapl):
    """Run each builder's engine scalar, then fresh copies in one pool."""
    scalars = [build() for build in builders]
    pooled = [build() for build in builders]
    expected = [e.run() for e in scalars]
    got = run_pooled(pooled)
    for s, p, es, ep in zip(expected, got, scalars, pooled):
        if isinstance(s, ClusterResult):
            assert_clusters_equivalent(s, p)
            assert node_rapl(ep) == node_rapl(es)
        else:
            assert_runs_equivalent(s, p)
    return expected


@pytest.mark.parametrize("node_controller", ["dufp", "duf", "default"])
@pytest.mark.parametrize("policy", ["fleet-static", "fleet-demand", "fleet-fair"])
def test_pooled_cluster_matches_scalar(policy, node_controller, node_rapl):
    (result,) = _assert_pooled_matches_scalar(
        [lambda: _cluster(policy, node_controller)], node_rapl
    )
    # The fleet capped nodes, and some finished while others ran.
    ceiling = yeti_socket_config().rapl.pl1_default_w
    assert min(a for _, allocs in result.allocations for a in allocs) < ceiling
    assert len(set(result.node_makespans_s)) == len(FLEET_APPS)


def test_pooled_cluster_node_finishing_early_keeps_its_staged_write(node_rapl):
    """Rounds after a node finished still write it (its floor grant); the
    write stays staged on its objects and never latches."""
    (result,) = _assert_pooled_matches_scalar(
        [lambda: _cluster("fleet-demand", "duf", seed=3)], node_rapl
    )
    first_done = min(result.node_makespans_s)
    assert any(t > first_done for t, _ in result.allocations)


def test_pooled_two_socket_nodes_match_scalar(node_rapl):
    _assert_pooled_matches_scalar(
        [
            lambda: _cluster(
                "fleet-demand",
                "dufp",
                sockets=2,
                apps=("CG", "EP"),
                scale=0.15,
                record_trace=True,
            )
        ],
        node_rapl,
    )


def test_pooled_fleet_rounds_between_controller_ticks(node_rapl):
    """period_s=0.3 puts most rounds on ticks no controller ticks at."""
    (result,) = _assert_pooled_matches_scalar(
        [lambda: _cluster("fleet-demand", "dufp", period_s=0.3, seed=5)],
        node_rapl,
    )
    off_grid = [t for t, _ in result.allocations[1:] if round(t / 0.2, 6) % 1]
    assert off_grid


def test_pool_of_two_periods_and_cpu_cells_matches_scalar(node_rapl):
    """Fleets with different periods and plain runs share one pool."""

    def plain(policy, app, faults, seed):
        return lambda: _engine_pair(policy, app, faults=faults, seed=seed)[0]

    _assert_pooled_matches_scalar(
        [
            lambda: _cluster("fleet-demand", "dufp", period_s=1.0, seed=1),
            plain("dufp", "CG", None, 9),
            lambda: _cluster("fleet-fair", "duf", period_s=0.5, seed=2),
            plain("duf", "EP", PLAN, 4),
        ],
        node_rapl,
    )


@pytest.mark.parametrize(
    "build, reason",
    [
        (
            lambda: _cluster("fleet-demand", "duf", faults=PLAN),
            "active fault plan",
        ),
        (
            lambda: _cluster(
                "fleet-demand",
                "duf",
                socket=replace(
                    yeti_socket_config(),
                    uncore=replace(yeti_socket_config().uncore, die_count=2),
                ),
            ),
            "multi-die uncore",
        ),
    ],
)
def test_ineligible_clusters_fall_back_to_scalar(build, reason, monkeypatch):
    engine = build()
    assert reason in engine.pool_fallback_reason(engine._node_engines())
    expected = build().run()
    ran = []
    monkeypatch.setattr(
        batch_module.BatchSimulationEngine,
        "run",
        lambda self: ran.append(self) or [],
    )
    (got,) = run_pooled([build()])
    assert not ran
    assert_clusters_equivalent(expected, got)


def _fleet_cells(n, *, runs=3, faults=None):
    """``n`` four-node cluster cells (``runs × 4`` lanes each)."""
    specs, _ = sweep_specs(
        apps=("CG",),
        tolerances_pct=(0.0, 10.0),
        runs=runs,
        controllers=("fleet-demand:budget_w=360", "fleet-fair:budget_w=360"),
        app_scale=0.15,
        faults=faults,
        cluster=ClusterSpec(node_count=4, node_apps=FLEET_APPS),
    )
    return specs[:n]


def test_executor_pools_cluster_cells_from_the_crossover(monkeypatch):
    """Cells pool once their lanes reach CLUSTER_POOL_LANES, below it they
    run their scalar fleet loops; results and CellReport.ticks match."""
    pools = []
    real = cluster_engine_module.run_pooled

    def counting(engines):
        pools.append(len(engines))
        return real(engines)

    monkeypatch.setattr(cluster_engine_module, "run_pooled", counting)
    cells = _fleet_cells(3)
    lanes = [s.runs * s.cluster.node_count for s in cells]
    assert lanes[0] < CLUSTER_POOL_LANES <= sum(lanes)
    solo = [run_specs([s]) for s in cells]
    assert pools == []
    results, summary = run_specs(cells)
    assert pools == [sum(s.runs for s in cells)]
    for (one, one_summary), got, report in zip(solo, results, summary.cells):
        for column in ("times_s", "package_power_w", "dram_power_w", "total_energy_j"):
            assert getattr(got, column) == getattr(one[0], column)
        assert report.ticks == one_summary.cells[0].ticks


def test_executor_keeps_faulted_cluster_cells_scalar(monkeypatch):
    pools = []
    monkeypatch.setattr(
        cluster_engine_module,
        "run_pooled",
        lambda engines: pools.append(engines) or [],
    )
    cells = _fleet_cells(2, runs=-(-CLUSTER_POOL_LANES // 8), faults=PLAN)
    assert sum(s.runs * s.cluster.node_count for s in cells) >= CLUSTER_POOL_LANES
    run_specs(cells)
    assert pools == []


def test_plan_shards_packs_poolable_cluster_cells_like_batch_cells():
    cells = _fleet_cells(5)
    faulted = _fleet_cells(2, faults=PLAN)
    shards = plan_shards(cells + faulted, workers=2)
    pooled = [sh for sh in shards if set(sh) <= set(range(5))]
    assert sorted(i for sh in pooled for i in sh) == list(range(5))
    assert len(pooled) == 2
    assert len(shards) == 4  # each faulted cell runs in its own shard


def test_lane_parallel_batches_never_import_numpy_ma():
    """Dispatching the due lanes by controller kind must not load
    ``numpy.ma`` (``np.unique`` does), which costs over 1 MB of heap."""
    code = (
        "import sys\n"
        "from repro.experiments.executor import RunSpec, run_specs\n"
        "specs = [RunSpec(a, c, runs=2, app_scale=0.05, engine='batch')\n"
        "         for a in ('EP', 'CG') for c in ('duf', 'dufp')]\n"
        "run_specs(specs)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
