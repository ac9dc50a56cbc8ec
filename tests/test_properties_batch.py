"""Property-based tests on the vectorized batch engine.

Randomised mixed compositions — policies, workloads, seeds, fault
plans drawn by hypothesis — exercise the batch engine where example-
based differential tests cannot reach, checking the properties any
lockstep execution must preserve:

* every run finishes, with finite times, energies and trace samples;
* traced actuator settings stay inside the socket's physical bounds
  (core/uncore frequency ranges, the RAPL window);
* results are invariant to batch *order* — a run's outcome depends
  only on its own configuration, never on its neighbours;
* results are invariant to batch *splitting* — one batch of N equals
  any partition of the same engines into smaller batches;
* a batch of one equals the scalar run, trace for trace — for every
  policy spec, fault plan, and noise setting, whether the run takes
  the lane-parallel controller path or the scatter/gather fallback;
* the lane-parallel/fallback routing decision
  (:func:`~repro.sim.batch.controller_lane_fallback_reason`) is exact:
  ``None`` for clean DUF/DUFP and log-only baseline runs, a named
  reason for everything else, and lane *permutation* on eligible
  batches never leaks one lane's state into another.

Hypothesis examples simulate full (short) applications, so the heavy
sweeps carry the ``slow`` marker; a small deterministic smoke case
keeps tier-1 coverage of every property.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ControllerConfig, NoiseConfig, SocketConfig
from repro.core.registry import as_spec, policy_info, policy_names
from repro.sim.batch import controller_lane_fallback_reason, run_batch
from repro.sim.faults import FaultPlan
from repro.sim.run import build_engine
from repro.workloads.catalog import application_names, build_application

BOUNDS = SocketConfig()
QUIET = NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0)
NOISY = NoiseConfig()  # the defaults: jitter, counter and power noise on
SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Policies sampled into compositions (budget excluded: its default
#: watt budget is composition-dependent; it has dedicated differential
#: coverage in test_batch_equivalence.py).
POLICIES = ("default", "duf", "dufp", "dufpf", "static", "uncore", "dnpc")

#: Policy selections for the scalar/vector equality sweep: the plain
#: names plus parameterized ``name:k=v`` specs and a DUFP subclass, so
#: non-default policy params and the automatic fallback for subclassed
#: controllers both get differential coverage.
SPECS = POLICIES + ("static:cap_w=90", "dufp-adaptive")

#: Members guaranteed eligible for lane-parallel controller ticks:
#: clean (fault-free) DUF/DUFP runs and the log-only baselines.
VECTOR_POLICIES = ("default", "duf", "dufp", "static", "uncore")

plans = st.sampled_from(
    [
        None,
        FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.1),
        FaultPlan(tick_miss_rate=0.05, tick_jitter_rate=0.05),
    ]
)

members = st.tuples(
    st.sampled_from(POLICIES),
    st.sampled_from(sorted(application_names())),
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from((0.0, 0.05, 0.10, 0.20)),  # tolerated slowdown
    plans,
)

compositions = st.lists(members, min_size=2, max_size=6)

spec_members = st.tuples(
    st.sampled_from(SPECS),
    st.sampled_from(sorted(application_names())),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((0.0, 0.05, 0.10, 0.20)),
    plans,
)

vector_members = st.tuples(
    st.sampled_from(VECTOR_POLICIES),
    st.sampled_from(sorted(application_names())),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((0.0, 0.05, 0.10, 0.20)),
    st.none(),
)

vector_compositions = st.lists(vector_members, min_size=2, max_size=6)


def _build(policy, app, seed, tol, plan, scale=0.06, noise=QUIET, **cfg_kwargs):
    cfg = ControllerConfig(tolerated_slowdown=tol, **cfg_kwargs)
    return build_engine(
        build_application(app, scale=scale),
        as_spec(policy).build(cfg),
        controller_cfg=cfg,
        noise=noise,
        seed=seed,
        faults=plan,
    )


def _signature(result):
    """Everything order/split invariance compares, as plain tuples."""
    return (
        result.app_name,
        result.controller_name,
        tuple(
            (e.time_s, e.socket_id, e.channel, e.detail)
            for e in result.fault_events
        ),
        tuple(
            (
                s.socket_id,
                s.finish_time_s,
                s.package_energy_j,
                s.dram_energy_j,
                tuple(
                    (t.time_s, t.core_freq_hz, t.uncore_freq_hz, t.cap_w)
                    for t in s.trace
                ),
            )
            for s in result.sockets
        ),
    )


def check_well_formed(result):
    """Finite-finish and actuator-bound assertions for one run."""
    for sock in result.sockets:
        assert math.isfinite(sock.finish_time_s) and sock.finish_time_s > 0
        assert math.isfinite(sock.package_energy_j) and sock.package_energy_j > 0
        assert math.isfinite(sock.dram_energy_j) and sock.dram_energy_j >= 0
        for t in sock.trace:
            assert (
                BOUNDS.core.min_freq_hz
                <= t.core_freq_hz
                <= BOUNDS.core.max_freq_hz
            )
            assert (
                BOUNDS.uncore.min_freq_hz
                <= t.uncore_freq_hz
                <= BOUNDS.uncore.max_freq_hz
            )
            assert BOUNDS.rapl.min_limit_w <= t.cap_w <= BOUNDS.rapl.pl2_default_w
            assert math.isfinite(t.package_power_w) and t.package_power_w >= 0
            assert math.isfinite(t.dram_power_w) and t.dram_power_w >= 0


@pytest.mark.slow
@given(comp=compositions)
@SLOW
def test_mixed_compositions_finish_finite_within_bounds(comp):
    results = run_batch([_build(*m) for m in comp])
    assert len(results) == len(comp)
    for result in results:
        check_well_formed(result)


@pytest.mark.slow
@given(comp=compositions, order_seed=st.integers(min_value=0, max_value=999))
@SLOW
def test_batch_order_invariance(comp, order_seed):
    """Shuffling a batch permutes the results and changes nothing else."""
    import random

    perm = list(range(len(comp)))
    random.Random(order_seed).shuffle(perm)
    straight = run_batch([_build(*m) for m in comp])
    shuffled = run_batch([_build(*comp[i]) for i in perm])
    for out_pos, in_pos in enumerate(perm):
        assert _signature(shuffled[out_pos]) == _signature(straight[in_pos])


@pytest.mark.slow
@given(comp=compositions, split=st.integers(min_value=1, max_value=5))
@SLOW
def test_batch_split_invariance(comp, split):
    """One batch of N equals the same engines in chunks of ``split``."""
    whole = run_batch([_build(*m) for m in comp])
    chunked = run_batch([_build(*m) for m in comp], max_batch=split)
    for a, b in zip(whole, chunked):
        assert _signature(a) == _signature(b)


@pytest.mark.slow
@given(m=spec_members)
@SLOW
def test_scalar_batch_trace_equality_random(m):
    """A batch of one equals the scalar run for any policy spec + plan.

    Samples the full spec space — parameterized policies, subclassed
    controllers, fault plans — so both the lane-parallel path and the
    scatter/gather fallback are held to the same trace-for-trace
    equality the example-based differential suite pins.
    """
    scalar = _build(*m).run()
    [batched] = run_batch([_build(*m)])
    assert _signature(batched) == _signature(scalar)


@pytest.mark.slow
@given(comp=vector_compositions, order_seed=st.integers(min_value=0, max_value=999))
@SLOW
def test_lane_permutation_invariance(comp, order_seed):
    """Lane order never leaks between vector-eligible runs.

    Every member is a clean DUF/DUFP run, so the whole batch takes
    the lane-parallel controller path (asserted, not assumed) — with
    full noise on, exercising the batched per-run RNG draws.
    """
    import random

    engines = [_build(*m, noise=NOISY) for m in comp]
    assert all(controller_lane_fallback_reason(e) is None for e in engines)
    perm = list(range(len(comp)))
    random.Random(order_seed).shuffle(perm)
    straight = run_batch(engines)
    shuffled = run_batch([_build(*comp[i], noise=NOISY) for i in perm])
    for out_pos, in_pos in enumerate(perm):
        assert _signature(shuffled[out_pos]) == _signature(straight[in_pos])


def test_lane_fallback_reasons():
    """The lane-parallel/scatter routing decision is exact and named."""
    for policy in VECTOR_POLICIES:
        assert controller_lane_fallback_reason(_build(policy, "EP", 1, 0.05, None)) is None
    # An all-zero plan injects nothing and keeps the vector path.
    assert (
        controller_lane_fallback_reason(_build("duf", "EP", 1, 0.05, FaultPlan()))
        is None
    )
    # Exact-type registry: subclasses (dufpf, dufp-adaptive) fall back
    # alongside genuinely scalar-only controllers.
    for policy in ("dufpf", "dufp-adaptive", "dnpc", "window"):
        reason = controller_lane_fallback_reason(_build(policy, "EP", 1, 0.05, None))
        assert reason is not None and "no vector tick form" in reason
    reason = controller_lane_fallback_reason(
        _build("dufp", "EP", 1, 0.05, FaultPlan(msr_read_fail_rate=0.05))
    )
    assert reason is not None and "fault plan" in reason
    reason = controller_lane_fallback_reason(
        _build("dufp", "EP", 1, 0.05, None, cap_floor_w=30.0)
    )
    assert reason is not None and "RAPL minimum" in reason


def test_vector_policies_are_the_rows_with_lane_forms():
    """A new lane form cannot land without this suite sampling it."""
    with_lanes = {n for n in policy_names() if policy_info(n).lanes is not None}
    assert with_lanes == set(VECTOR_POLICIES)


def test_multi_die_lane_fallback_reason_is_pinned():
    """Multi-die uncore configs report their own named reason.

    The lockstep arrays model exactly one uncore clock per lane, so a
    ``die_count > 1`` socket must leave the batch — and say so
    distinctly (not hide behind the generic "no vector tick form" or
    fault-plan reasons).  The lane check returns the table's one
    ``"scalar"``-level TPMI row.
    """
    from dataclasses import replace

    from repro.hardware.topology import MachineConfig
    from repro.sim.machine import SimulatedMachine

    for dies in (2, 4):
        sock = SocketConfig()
        sock = replace(sock, uncore=replace(sock.uncore, die_count=dies))
        cfg = ControllerConfig(tolerated_slowdown=0.05)
        engine = build_engine(
            build_application("EP", scale=0.06, socket=sock),
            as_spec("dufp").build(cfg),
            controller_cfg=cfg,
            machine=SimulatedMachine(MachineConfig(socket=sock, socket_count=1)),
            noise=QUIET,
            seed=1,
        )
        reason = controller_lane_fallback_reason(engine)
        assert reason == (
            f"multi-die uncore ({dies} dies) "
            "models per-die clocks the lockstep arrays do not"
        )


def test_scalar_batch_trace_equality_deterministic():
    """Tier-1 pin: noisy scalar and batch runs agree trace for trace.

    Full default noise makes this cover the batched RNG draws on the
    lane-parallel path; one DUF and one DUFP cell keep it fast.
    """
    for policy, app, seed, tol in (("duf", "CG", 5, 0.05), ("dufp", "EP", 7, 0.10)):
        probe = _build(policy, app, seed, tol, None, noise=NOISY)
        assert controller_lane_fallback_reason(probe) is None
        scalar = _build(policy, app, seed, tol, None, noise=NOISY).run()
        [batched] = run_batch([_build(policy, app, seed, tol, None, noise=NOISY)])
        assert _signature(batched) == _signature(scalar)


def test_smoke_properties_deterministic():
    """Tier-1 pin of every property on one fixed mixed composition."""
    comp = [
        ("dufp", "CG", 11, 0.10, FaultPlan(msr_read_fail_rate=0.05)),
        ("duf", "EP", 22, 0.05, None),
        ("dnpc", "FT", 33, 0.0, None),
        ("static", "LU", 44, 0.20, FaultPlan(tick_miss_rate=0.05)),
    ]
    whole = run_batch([_build(*m) for m in comp])
    for result in whole:
        check_well_formed(result)
    reversed_ = run_batch([_build(*m) for m in reversed(comp)])
    chunked = run_batch([_build(*m) for m in comp], max_batch=2)
    for i in range(len(comp)):
        sig = _signature(whole[i])
        assert _signature(reversed_[len(comp) - 1 - i]) == sig
        assert _signature(chunked[i]) == sig
