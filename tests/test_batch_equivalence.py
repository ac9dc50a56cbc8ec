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
import pathlib
import sys

import pytest

from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import as_spec, policy_info, policy_names
from repro.sim.batch import BatchSimulationEngine, run_batch
from repro.sim.export import run_summary, write_trace_jsonl
from repro.sim.faults import FaultPlan
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application

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
