"""Property-based tests on the cluster engine under the fleet policies.

Randomised fleets — policy, budget, node count, applications, seeds,
fault plans — check the invariants any hierarchical capping run must
preserve:

* global budget conservation: ``sum(alloc) <= budget`` at every
  re-partition the engine records;
* band respect: every node allocation stays inside
  ``[floor, ceiling]``;
* determinism: the same seed replays a cluster run to identical
  allocations, makespans, energies and fault draws.

The engine sweeps simulate short full runs and keep few examples; a
deterministic smoke case keeps tier-1 coverage of every property.  The
fleet policies' pure allocation properties (conservation, bands,
permutation equivariance, the fair bound) are checked at every scope in
``test_properties_allocator.py``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterEngine, ClusterSpec
from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import make_spec, split_policy
from repro.sim.faults import FaultPlan
from repro.workloads.catalog import build_application

POLICIES = ("fleet-static", "fleet-demand", "fleet-fair")
CFG = ControllerConfig(tolerated_slowdown=0.10)

ENGINE_SWEEP = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fleet(policy, budget):
    return split_policy(make_spec(policy, budget_w=budget), CFG, scope="node")


plans = st.sampled_from(
    [None, FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.10)]
)

members = st.tuples(
    st.sampled_from(POLICIES),
    # Budgets cover three 65 W node floors (195 W) but sit below three
    # 125 W ceilings (375 W), so the fleet layer genuinely arbitrates.
    st.sampled_from((200.0, 260.0, 320.0)),  # budget
    st.integers(min_value=1, max_value=3),  # node_count
    st.sampled_from(((), ("EP", "CG"), ("WEB", "BATCH"))),  # node_apps
    st.integers(min_value=0, max_value=10_000),  # seed
    plans,
)


def _build(policy, budget, node_count, node_apps, seed, plan):
    cluster = ClusterSpec(
        node_count=node_count, node_apps=node_apps, period_s=0.5
    )
    apps = [
        build_application(cluster.app_for(i, "EP"), scale=0.1)
        for i in range(node_count)
    ]
    return ClusterEngine(
        applications=apps,
        cluster=cluster,
        policy=_fleet(policy, budget),
        controller_cfg=CFG,
        noise=NoiseConfig(),
        seed=seed,
        faults=plan,
    )


def _signature(result):
    return (
        tuple(result.node_makespans_s),
        result.package_energy_j,
        result.dram_energy_j,
        tuple(result.allocations),
        tuple(
            (e.time_s, e.socket_id, e.channel, e.detail)
            for e in result.fault_events
        ),
    )


def check_invariants(member, result):
    policy, budget, node_count, _, _, _ = member
    floor = CFG.cap_floor_w
    ceiling = 125.0
    assert len(result.nodes) == node_count
    assert all(math.isfinite(m) and m > 0 for m in result.node_makespans_s)
    assert result.total_energy_j > 0
    assert result.allocations
    for _, alloc in result.allocations:
        assert len(alloc) == node_count
        assert sum(alloc) <= budget + 1e-6
        for a in alloc:
            assert floor - 1e-9 <= a <= ceiling + 1e-9
    if policy in ("fleet-static", "fleet-fair"):
        assert len(result.allocations) == 1  # static: decided once
    assert all(s >= 1.0 - 0.05 for s in result.slowdowns)  # jitter slack
    assert 0.0 < result.fairness_index <= 1.0
    assert result.p99_slowdown >= min(result.slowdowns)


@pytest.mark.slow
@given(m=members)
@ENGINE_SWEEP
def test_random_cluster_runs_conserve_the_budget(m):
    check_invariants(m, _build(*m).run())


@pytest.mark.slow
@given(m=members)
@ENGINE_SWEEP
def test_same_seed_replays_identically(m):
    assert _signature(_build(*m).run()) == _signature(_build(*m).run())


def test_smoke_properties_deterministic():
    """Tier-1 pin of every property on fixed mixed members."""
    comp = [
        ("fleet-demand", 150.0, 2, ("WEB", "BATCH"), 11, None),
        ("fleet-static", 200.0, 3, ("EP", "CG"), 22, None),
        (
            "fleet-fair",
            260.0,
            2,
            (),
            33,
            FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.10),
        ),
    ]
    for m in comp:
        result = _build(*m).run()
        check_invariants(m, result)
        assert _signature(result) == _signature(_build(*m).run())
