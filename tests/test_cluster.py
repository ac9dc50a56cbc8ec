"""The cluster layer: spec, fleet policies, metrics, engine, CLI.

Unit coverage for :mod:`repro.cluster` and the fleet policy half of
the registry — validation surfaces, the three partitioning strategies'
exact arithmetic, the fairness/tail metrics against hand-computed
values, the engine's allocation bookkeeping (demand release on node
finish, budget conservation, the shared trace sink's global socket
ids), the ``RunSpec``/digest threading, and the ``repro cluster`` CLI.
"""

import math
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.cluster import (
    FLEET_HEADROOM_W,
    ClusterEngine,
    ClusterSpec,
    NODE_SEED_STRIDE,
    jain_index,
    percentile,
    slowdown_ratios,
)
from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import (
    PolicyError,
    make_spec,
    parse_policy,
    policy_info,
    split_policy,
)
from repro.errors import ExperimentError, ReproError
from repro.experiments.executor import RunSpec, execute_spec, spec_key
from repro.experiments.protocol import run_cluster_protocol
from repro.sim.trace import InMemoryTraceSink
from repro.workloads.catalog import (
    SERVICE_APPLICATIONS,
    application_names,
    build_application,
)

CFG = ControllerConfig(tolerated_slowdown=0.10)
QUIET = NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0)


def node_split(policy, budget_w=250.0):
    """The registry's node-scope split ``policy`` at ``budget_w``."""
    return split_policy(make_spec(policy, budget_w=budget_w), CFG, scope="node")


def _engine(policy="fleet-demand", budget=180.0, **cluster_kw):
    cluster_kw.setdefault("node_count", 2)
    cluster_kw.setdefault("node_apps", ("WEB", "BATCH"))
    cluster_kw.setdefault("period_s", 0.5)
    cluster = ClusterSpec(**cluster_kw)
    apps = [
        build_application(cluster.app_for(i, "WEB"), scale=0.2)
        for i in range(cluster.node_count)
    ]
    return ClusterEngine(
        applications=apps,
        cluster=cluster,
        policy=node_split(policy, budget),
        controller_cfg=CFG,
        noise=QUIET,
        seed=7,
    )


class TestClusterSpec:
    def test_defaults_validate(self):
        ClusterSpec().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(node_count=0),
            dict(sockets_per_node=0),
            dict(period_s=0.0),
            dict(node_floor_w=-5.0),
            dict(node_controller="no-such-policy"),
            dict(node_controller="hetero-coord"),
            dict(node_controller="fleet-demand"),
        ],
    )
    def test_rejects_bad_topologies(self, kw):
        with pytest.raises(ReproError):
            ClusterSpec(**kw).validate()

    def test_node_apps_must_be_a_tuple(self):
        with pytest.raises(ExperimentError):
            ClusterSpec(node_apps=["WEB"]).validate()  # type: ignore[arg-type]

    def test_app_cycling(self):
        spec = ClusterSpec(node_count=5, node_apps=("WEB", "BATCH"))
        assert [spec.app_for(i, "CG") for i in range(4)] == [
            "WEB",
            "BATCH",
            "WEB",
            "BATCH",
        ]
        assert ClusterSpec(node_apps=()).app_for(3, "CG") == "CG"


class TestFleetPolicies:
    FLOORS = [65.0, 65.0, 65.0]
    CEILINGS = [125.0, 125.0, 125.0]

    def test_registry_flags_and_resolution(self):
        for name in ("fleet-static", "fleet-demand", "fleet-fair"):
            info = policy_info(name)
            assert info.scope == "node"
            fleet = node_split(name, 250.0)
            assert fleet.budget_w == 250.0
        assert policy_info("fleet-demand").paper_section.startswith("VI")

    def test_fleet_resolver_rejects_non_fleet_and_vice_versa(self):
        with pytest.raises(PolicyError):
            split_policy(make_spec("dufp"), CFG, scope="node")
        with pytest.raises(PolicyError):
            node_split("hetero-coord", 300.0)
        with pytest.raises(PolicyError):
            split_policy("fleet-demand", CFG, scope="device")

    def test_parse_policy_grammar(self):
        spec = parse_policy("fleet-demand:budget_w=190")
        assert spec.label == "fleet-demand-190W"
        assert split_policy(spec, CFG, scope="node").budget_w == 190.0

    def test_static_fleet_equal_shares(self):
        fleet = node_split("fleet-static", 300.0)
        alloc = fleet.allocate([0.0] * 3, self.FLOORS, self.CEILINGS)
        assert alloc == pytest.approx([100.0] * 3)
        assert fleet.is_static

    def test_static_fleet_clamps_to_a_tight_ceiling(self):
        fleet = node_split("fleet-static", 300.0)
        # share 100, one tight band [65, 70]: that node clamps to 70.
        alloc = fleet.allocate([0.0] * 3, self.FLOORS, [70.0, 125.0, 125.0])
        assert alloc == pytest.approx([70.0, 100.0, 100.0])

    def test_static_fleet_pays_back_floor_overshoot(self):
        fleet = node_split("fleet-static", 245.0)
        # share 81.67, one high floor at 100: lifting it overshoots the
        # budget; the excess comes back from the other nodes' slack.
        alloc = fleet.allocate(
            [0.0] * 3, [100.0, 65.0, 65.0], self.CEILINGS
        )
        assert alloc[0] == pytest.approx(100.0)
        assert alloc[1] == pytest.approx(alloc[2])
        assert sum(alloc) == pytest.approx(245.0)

    def test_demand_fleet_serves_demand_and_conserves(self):
        # Ample budget (260 ≥ Σbids): every node gets its bid exactly.
        fleet = node_split("fleet-demand", 260.0)
        alloc = fleet.allocate([70.0, 120.0, 65.0], self.FLOORS, self.CEILINGS)
        assert alloc == pytest.approx([70.0, 120.0, 65.0])
        # Tight budget: demand above the floor shrinks proportionally,
        # the floor-bidding node is untouched.
        tight = node_split("fleet-demand", 250.0)
        alloc = tight.allocate([70.0, 120.0, 65.0], self.FLOORS, self.CEILINGS)
        assert sum(alloc) == pytest.approx(250.0)
        assert alloc[1] > alloc[0] > alloc[2]
        assert alloc[2] == pytest.approx(65.0)

    def test_demand_fleet_initial_is_the_even_split(self):
        fleet = node_split("fleet-demand", 240.0)
        assert fleet.initial(self.FLOORS, self.CEILINGS) == pytest.approx(
            [80.0] * 3
        )

    def test_fair_fleet_equal_range_fraction(self):
        fleet = node_split("fleet-fair", 285.0)
        # t = (285 - 195) / 180 = 0.5 → everyone at floor + half range.
        alloc = fleet.allocate([0.0] * 3, self.FLOORS, self.CEILINGS)
        assert alloc == pytest.approx([95.0] * 3)
        assert fleet.is_static

    def test_infeasible_budget_raises_not_crashes(self):
        for name in ("fleet-static", "fleet-demand", "fleet-fair"):
            fleet = node_split(name, 100.0)
            with pytest.raises(ReproError):
                fleet.allocate([120.0] * 3, self.FLOORS, self.CEILINGS)
            with pytest.raises(ReproError):
                fleet.initial(self.FLOORS, self.CEILINGS)


class TestMetrics:
    def test_jain_index(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([0.0, 0.0]) == 1.0
        with pytest.raises(ExperimentError):
            jain_index([])
        with pytest.raises(ExperimentError):
            jain_index([-1.0])

    def test_percentile_matches_linear_interpolation(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0], 99.0) == pytest.approx(1.99)
        with pytest.raises(ExperimentError):
            percentile([], 50.0)
        with pytest.raises(ExperimentError):
            percentile([1.0], 101.0)

    def test_slowdown_ratios(self):
        assert slowdown_ratios([2.0, 3.0], [1.0, 2.0]) == [2.0, 1.5]
        with pytest.raises(ExperimentError):
            slowdown_ratios([1.0], [1.0, 2.0])
        with pytest.raises(ExperimentError):
            slowdown_ratios([1.0], [0.0])


class TestClusterEngine:
    def test_mismatched_application_count_raises(self):
        cluster = ClusterSpec(node_count=2)
        with pytest.raises(ReproError):
            ClusterEngine(
                applications=[build_application("EP", scale=0.1)],
                cluster=cluster,
                policy=node_split("fleet-static"),
            )

    def test_demand_fleet_releases_budget_when_a_node_finishes(self):
        # EP (short at 0.2 scale) next to CG: once EP's node finishes
        # it bids its floor, and CG's node allocation grows.
        result = _engine(node_apps=("EP", "CG"), budget=170.0).run()
        assert len(result.allocations) > 1
        for _, alloc in result.allocations:
            assert sum(alloc) <= 170.0 + 1e-6
        finishes = sorted(result.node_makespans_s)
        assert finishes[0] < finishes[1]
        last = result.allocations[-1][1]
        first = result.allocations[1][1]
        ep_node, cg_node = (
            (0, 1) if result.node_makespans_s[0] < result.node_makespans_s[1]
            else (1, 0)
        )
        assert last[ep_node] == pytest.approx(65.0)
        assert last[cg_node] >= first[cg_node]

    def test_static_policies_allocate_once_and_never_measure(self):
        result = _engine(policy="fleet-fair", budget=170.0).run()
        assert len(result.allocations) == 1
        assert result.allocations[0][0] == 0.0

    def test_metrics_are_consistent(self):
        result = _engine(budget=170.0).run()
        assert result.makespan_s == max(result.node_makespans_s)
        assert result.total_energy_j == pytest.approx(
            result.package_energy_j + result.dram_energy_j
        )
        assert len(result.slowdowns) == 2
        assert 0.0 < result.fairness_index <= 1.0
        assert result.p99_slowdown == pytest.approx(
            percentile(result.slowdowns, 99.0)
        )
        assert all(s > 0.9 for s in result.slowdowns)

    def test_node_seeds_differ_by_the_stride(self):
        # Same app on both nodes under *noisy* defaults: the node seed
        # stride keeps the two RNG streams distinct.
        engine = _engine(
            node_apps=("CG", "CG"),
            budget=260.0,
            policy="fleet-static",
        )
        engine.noise = NoiseConfig()
        result = engine.run()
        t0 = [s.time_s for s in result.nodes[0].sockets[0].trace]
        p0 = [s.package_power_w for s in result.nodes[0].sockets[0].trace]
        p1 = [s.package_power_w for s in result.nodes[1].sockets[0].trace]
        assert t0  # traces recorded
        assert NODE_SEED_STRIDE > 1009  # above the per-run stride
        assert p0 != p1  # distinct streams under identical configs

    def test_shared_sink_gets_global_socket_ids(self):
        sink = InMemoryTraceSink()
        engine = _engine(budget=170.0, sockets_per_node=1)
        engine.trace_sink = sink
        engine.run()
        assert sink.collected(0) and sink.collected(1)

    def test_headroom_constant_is_the_coordinator_default(self):
        from repro.core.budget import NodeBudgetCoordinator

        assert FLEET_HEADROOM_W == NodeBudgetCoordinator.headroom_w


class TestClusterProtocolAndSpec:
    def test_run_cluster_protocol_metrics(self):
        apps = [build_application(a, scale=0.2) for a in ("WEB", "BATCH")]
        cluster = ClusterSpec(node_count=2, node_apps=("WEB", "BATCH"))
        proto = run_cluster_protocol(
            apps,
            make_spec("fleet-demand", budget_w=180.0),
            cluster,
            controller_cfg=CFG,
            runs=3,
            noise=QUIET,
        )
        assert proto.app_name == "WEB+BATCH"
        assert len(proto.times_s) == 3
        assert all(t > 0 for t in proto.times_s)
        assert all(e > 0 for e in proto.total_energy_j)
        # Deterministic noise: repetitions still differ by run seed.
        assert math.isfinite(proto.mean_time_s)

    def test_cluster_spec_key_is_stable_and_distinct(self):
        plain = RunSpec(app_name="CG", controller="dufp", runs=2)
        assert spec_key(plain) == spec_key(
            replace(plain, cluster=None)
        )  # the omitted default: pre-cluster digests unchanged
        a = RunSpec(
            app_name="CG",
            controller="fleet-static",
            runs=2,
            cluster=ClusterSpec(node_count=2),
        )
        b = replace(a, cluster=ClusterSpec(node_count=3))
        assert spec_key(a) != spec_key(b)
        assert spec_key(a) != spec_key(plain)

    def test_execute_spec_routes_cluster_cells(self):
        spec = RunSpec(
            app_name="EP",
            controller="fleet-static:budget_w=250",
            runs=2,
            app_scale=0.2,
            noise=QUIET,
            cluster=ClusterSpec(node_count=2),
        )
        proto = execute_spec(spec)
        assert len(proto.times_s) == 2
        assert proto.controller_name == "fleet-static-250W"

    def test_batch_engine_normalises_for_cluster_cells(self):
        spec = RunSpec(
            app_name="EP",
            controller="fleet-static",
            engine="batch",
            cluster=ClusterSpec(node_count=2),
        )
        assert spec.engine == "scalar"


class TestClusterCLI:
    def test_cluster_command_prints_machine_readable_lines(self, capsys):
        assert (
            cli_main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--budget",
                    "170",
                    "--scale",
                    "0.2",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        cluster_lines = [
            line for line in out.splitlines() if line.startswith("CLUSTER ")
        ]
        assert len(cluster_lines) == 2  # fleet-static vs fleet-demand
        for line in cluster_lines:
            assert "app=WEB+BATCH" in line
            assert "jain=" in line and "p99_slowdown=" in line

    def test_cluster_command_custom_policy_and_apps(self, capsys):
        assert (
            cli_main(
                [
                    "cluster",
                    "--nodes",
                    "2",
                    "--apps",
                    "EP",
                    "CG",
                    "--scale",
                    "0.2",
                    "--policy",
                    "fleet-fair:budget_w=170",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "policy=fleet-fair-170W" in out
        assert "app=EP+CG" in out

    def test_sweep_rejects_gpus_with_nodes(self, capsys):
        assert (
            cli_main(
                ["sweep", "--apps", "EP", "--nodes", "2", "--gpus", "1"]
            )
            == 1
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_policies_lists_fleet_policies(self, capsys):
        assert cli_main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("fleet-static", "fleet-demand", "fleet-fair"):
            assert name in out


class TestServiceCatalog:
    def test_pinned_names_unchanged_and_service_resolvable(self):
        assert len(application_names()) == 10
        assert "WEB" not in application_names()
        assert set(SERVICE_APPLICATIONS) == {"WEB", "BATCH"}
        for name in SERVICE_APPLICATIONS:
            app = build_application(name, scale=0.5)
            assert app.nominal_duration(None) > 0

    def test_web_is_latency_sensitive_batch_is_memory_bound(self):
        web = build_application("WEB")
        batch = build_application("BATCH")
        assert any(p.latency_sensitivity > 0.3 for p in web.phases)
        scan = max(batch.phases, key=lambda p: p.bytes)
        assert scan.bytes > 10 * scan.flops
