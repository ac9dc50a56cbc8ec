"""Property-based tests on the CPU+GPU co-simulation engine.

Randomised hetero compositions — split policies, budgets, node shapes,
seeds and GPU fault plans drawn by hypothesis — check the invariants
any shared-budget run must preserve:

* every run finishes with finite times, energies and transfer seconds;
* the budget is conserved at every re-allocation: per-device
  allocations stay inside ``[floor, ceiling]`` and never sum above the
  shared budget;
* runs are deterministic: the same seed replays to an identical
  :class:`~repro.sim.hetero.HeteroResult`, fault draws included.

Hypothesis examples simulate full (short) co-runs, so the sweeps carry
the ``slow`` marker; a deterministic smoke case keeps tier-1 coverage
of every property.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import make_spec, split_policy
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.faults import FaultPlan
from repro.sim.hetero import HeteroEngine
from repro.workloads.catalog import build_application

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = ("hetero-static", "hetero-coord", "hetero-fair")

plans = st.sampled_from(
    [
        None,
        FaultPlan(gpu_cap_latch_fail_rate=0.2),
        FaultPlan(gpu_queue_stall_rate=0.3, gpu_stall_s=0.2),
        FaultPlan(cap_latch_fail_rate=0.1, gpu_cap_latch_fail_rate=0.1),
    ]
)

members = st.tuples(
    st.sampled_from(POLICIES),
    st.sampled_from((280.0, 350.0, 450.0)),  # budget
    st.sampled_from(("EP", "CG")),
    st.integers(min_value=1, max_value=2),  # gpu_count
    st.integers(min_value=1, max_value=3),  # kernel_count
    st.integers(min_value=0, max_value=10_000),  # seed
    plans,
)


def _build(policy, budget, app, gpu_count, kernel_count, seed, plan):
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    node = GPUNodeConfig(
        gpu_count=gpu_count,
        kernel_count=kernel_count,
        kernel_flops=1.2e12,
        kernel_bytes=0.15e12,
    )
    return HeteroEngine(
        application=build_application(app, scale=0.1),
        node=node,
        policy=split_policy(
            make_spec(policy, budget_w=budget), cfg, scope="device"
        ),
        cfg=cfg,
        seed=seed,
        noise=NoiseConfig(),
        faults=plan,
    )


def _signature(result):
    return (
        result.cpu_finish_s,
        result.gpu_finish_times_s,
        result.cpu_energy_j,
        result.gpu_energies_j,
        result.transfer_s,
        tuple(result.device_allocations),
        tuple(
            (e.time_s, e.socket_id, e.channel, e.detail)
            for e in result.fault_events
        ),
    )


def check_invariants(member, result):
    policy, budget, _, gpu_count, _, _, _ = member
    assert math.isfinite(result.cpu_finish_s) and result.cpu_finish_s > 0
    # A GPU left without kernels (fewer kernels than devices) finishes
    # immediately at t = 0; busy devices finish strictly later.
    assert all(math.isfinite(t) and t >= 0 for t in result.gpu_finish_times_s)
    assert result.gpu_finish_s > 0
    assert len(result.gpu_finish_times_s) == gpu_count
    assert result.cpu_energy_j > 0 and result.gpu_energy_j > 0
    assert math.isfinite(result.transfer_s) and result.transfer_s >= 0
    cfg = ControllerConfig()
    floors = [cfg.cap_floor_w] + [100.0] * gpu_count
    ceilings = [125.0] + [250.0] * gpu_count
    assert result.device_allocations
    for _, allocs in result.device_allocations:
        assert len(allocs) == 1 + gpu_count
        assert sum(allocs) <= budget + 1e-6
        for a, lo, hi in zip(allocs, floors, ceilings):
            assert lo - 1e-9 <= a <= hi + 1e-9
    if policy in ("hetero-static", "hetero-fair"):
        assert len(result.device_allocations) == 1  # static: decided once


@pytest.mark.slow
@given(m=members)
@SLOW
def test_random_hetero_runs_finish_conserving_the_budget(m):
    check_invariants(m, _build(*m).run())


@pytest.mark.slow
@given(m=members)
@SLOW
def test_same_seed_replays_identically(m):
    assert _signature(_build(*m).run()) == _signature(_build(*m).run())


def test_smoke_properties_deterministic():
    """Tier-1 pin of every property on fixed mixed members."""
    comp = [
        ("hetero-coord", 350.0, "CG", 2, 3, 11, FaultPlan(gpu_queue_stall_rate=0.3)),
        ("hetero-static", 280.0, "EP", 1, 2, 22, None),
        ("hetero-fair", 450.0, "EP", 2, 1, 33, FaultPlan(gpu_cap_latch_fail_rate=0.2)),
    ]
    for m in comp:
        result = _build(*m).run()
        check_invariants(m, result)
        assert _signature(result) == _signature(_build(*m).run())
