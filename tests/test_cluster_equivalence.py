"""Differential matrix: a 1-node cluster degenerates to the plain run.

The cluster engine's core contract is that it *adds nothing* beneath
the fleet layer: a single-node cluster whose fleet policy allocates
the node's full ceiling performs exactly the operations of the plain
node run — no extra RAPL writes, no RNG draws, no reordered sink
calls.  These tests enforce that contract bit for bit: identical
``run_summary`` dictionaries (every timing, energy and phase span) and
identical per-socket trace sample lists, across node controllers ×
workloads × fault plans (the shape of ``tests/test_batch_equivalence.
py``).  The committed golden cluster trace then pins the *multi*-node
behaviour — fleet re-allocation cadence, node seed stride, global
socket ids — byte for byte.
"""

import pathlib
import sys

import pytest

from repro.cluster import ClusterEngine, ClusterSpec
from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import (
    controller_factory,
    make_spec,
    policy_info,
    policy_names,
    split_policy,
)
from repro.sim.export import run_summary
from repro.sim.faults import FaultPlan
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from regen_golden_trace import golden_cluster_run  # noqa: E402

from repro.sim.trace import StreamingTraceSink  # noqa: E402

GOLDEN_CLUSTER = (
    pathlib.Path(__file__).parent / "data" / "golden_cluster_trace.jsonl"
)

CFG = ControllerConfig(tolerated_slowdown=0.10)
NOISE = NoiseConfig()
#: Covers the single node's ceiling (125 W), so a correct fleet layer
#: has nothing to do — the precondition of the bit-identity contract.
COVERING_BUDGET_W = 125.0

MATRIX_APPS = ("CG", "EP", "UA", "WEB")
MATRIX_PLANS = {
    "clean": None,
    "faults": FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.10),
}
#: Fleet policies whose covering-budget allocation sits exactly at the
#: ceiling: fleet-static (share = budget = ceiling) and fleet-fair
#: (range fraction t = 1).  fleet-demand allocates measured demand
#: (below the ceiling), so it genuinely caps even one node.
CEILING_FLEETS = ("fleet-static", "fleet-fair")


def node_split(policy, budget_w):
    """The registry's node-scope split ``policy`` at ``budget_w``."""
    return split_policy(make_spec(policy, budget_w=budget_w), CFG, scope="node")


def _scalar_run(app_name, node_controller, seed, faults=None):
    return build_engine(
        build_application(app_name, scale=0.3),
        controller_factory(node_controller, CFG),
        controller_cfg=CFG,
        noise=NOISE,
        seed=seed,
        faults=faults,
    ).run()


def _cluster_run(app_name, fleet, node_controller, seed, faults=None):
    cluster = ClusterSpec(node_count=1, node_controller=node_controller)
    result = ClusterEngine(
        applications=[build_application(app_name, scale=0.3)],
        cluster=cluster,
        policy=node_split(fleet, COVERING_BUDGET_W),
        controller_cfg=CFG,
        noise=NOISE,
        seed=seed,
        faults=faults,
    ).run()
    assert len(result.nodes) == 1
    return result.nodes[0]


def assert_bit_identical(scalar, node):
    assert run_summary(scalar) == run_summary(node)
    assert len(scalar.sockets) == len(node.sockets)
    for a, b in zip(scalar.sockets, node.sockets):
        assert a.trace == b.trace
    assert [
        (e.time_s, e.socket_id, e.channel, e.detail)
        for e in scalar.fault_events
    ] == [
        (e.time_s, e.socket_id, e.channel, e.detail)
        for e in node.fault_events
    ]


class TestSingleNodeDegeneracy:
    def test_smoke_fleet_static_single_node_is_the_plain_run(self):
        """Tier-1 pin of the bit-identity contract (dufp × CG)."""
        scalar = _scalar_run("CG", "dufp", seed=42)
        node = _cluster_run("CG", "fleet-static", "dufp", seed=42)
        assert_bit_identical(scalar, node)

    def test_smoke_fleet_fair_and_faulted_single_node(self):
        plan = MATRIX_PLANS["faults"]
        scalar = _scalar_run("UA", "dufp", seed=7, faults=plan)
        node = _cluster_run("UA", "fleet-fair", "dufp", seed=7, faults=plan)
        assert_bit_identical(scalar, node)

    def test_non_covering_budget_actually_caps(self):
        """The counter-example guarding against the skip-write rule
        growing too eager: a budget below the ceiling allocates below
        it, the RAPL write happens, and the run genuinely diverges
        from the uncapped plain run."""
        scalar = _scalar_run("CG", "default", seed=42)
        cluster = ClusterSpec(node_count=1, node_controller="default")
        node = ClusterEngine(
            applications=[build_application("CG", scale=0.3)],
            cluster=cluster,
            policy=node_split("fleet-static", 90.0),
            controller_cfg=CFG,
            noise=NOISE,
            seed=42,
        ).run().nodes[0]
        assert run_summary(scalar) != run_summary(node)
        assert node.execution_time_s > scalar.execution_time_s


@pytest.mark.slow
@pytest.mark.parametrize("app", MATRIX_APPS)
@pytest.mark.parametrize("plan_name", sorted(MATRIX_PLANS))
@pytest.mark.parametrize("fleet", CEILING_FLEETS)
@pytest.mark.parametrize(
    # Fleet and hetero policies are not per-socket node controllers.
    "policy",
    [
        n
        for n in policy_names()
        if policy_info(n).scope == "socket"
    ],
)
def test_matrix_single_node_equivalence(policy, fleet, app, plan_name):
    """Every CPU policy × ceiling fleet × workload × fault plan."""
    seed = 1009 * len(policy) + len(app) + (17 if plan_name == "faults" else 0)
    plan = MATRIX_PLANS[plan_name]
    scalar = _scalar_run(app, policy, seed=seed, faults=plan)
    node = _cluster_run(app, fleet, policy, seed=seed, faults=plan)
    assert_bit_identical(scalar, node)


class TestGoldenClusterTrace:
    def test_shape(self):
        """Tier-1: the committed trace has both nodes and fault events."""
        import json

        records = [
            json.loads(line)
            for line in GOLDEN_CLUSTER.read_text().splitlines()
        ]
        samples = [r for r in records if "event" not in r]
        events = [r for r in records if "event" in r]
        assert {s["socket_id"] for s in samples} == {0, 1}
        assert events, "the pinned scenario must inject faults"
        # Events form one trailing block after the samples.
        kinds = ["event" in r for r in records]
        assert kinds == sorted(kinds)

    @pytest.mark.slow
    def test_golden_cluster_trace_is_byte_identical(self, tmp_path):
        fresh = tmp_path / "fresh.jsonl"
        golden_cluster_run(StreamingTraceSink(fresh))
        assert fresh.read_bytes() == GOLDEN_CLUSTER.read_bytes(), (
            "cluster trace diverged from the golden reference; if "
            "intentional, regenerate with scripts/regen_golden_trace.py"
        )
