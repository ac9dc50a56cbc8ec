"""The batch-sharded scheduler and the v2 compressed result cache.

Acceptance properties of the sharded execution layer: multi-worker
sharded sweeps are result- and digest-identical to ``workers=1`` (both
the scalar oracle and the pooled lockstep batch), shard partitioning is
a pure load-balancing concern (results are invariant under spec
permutation and any shard size), pooled batch timing apportions by
simulated ticks, completed shards write through to the cache before
the pool drains, and the compressed log-structured cache round-trips
with transparent legacy reads.
"""

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.cluster.spec import ClusterSpec
from repro.config import NoiseConfig
from repro.errors import ExperimentError
from repro.experiments.cache import ResultCache
from repro.experiments.executor import (
    SHARD_OVERSUBSCRIPTION,
    RunSpec,
    cell_seed,
    estimate_spec_ticks,
    execute_spec,
    plan_shards,
    run_specs,
    spec_key,
)
from repro.experiments.sweep import run_sweep, sweep_specs
from repro.hardware.gpu import GPUNodeConfig
from repro.workloads.catalog import build_application

QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)

#: Small enough to execute repeatedly, big enough to cut real shards.
GRID = dict(
    apps=["EP", "CG"],
    tolerances_pct=(0.0, 10.0),
    runs=2,
    app_scale=0.2,
    noise=QUIET,
)


def small_spec(**overrides) -> RunSpec:
    base = dict(
        app_name="EP",
        controller="duf",
        runs=2,
        app_scale=0.2,
        noise=QUIET,
        label="EP/duf",
    )
    base.update(overrides)
    return RunSpec(**base)


def batch_specs():
    specs, _ = sweep_specs(**GRID, engine="batch")
    return specs


class TestShardPlanning:
    def test_plan_covers_every_cell_exactly_once(self):
        specs = batch_specs()
        plan = plan_shards(specs, workers=3)
        flat = sorted(i for shard in plan for i in shard)
        assert flat == list(range(len(specs)))

    def test_batch_cells_plan_one_shard_per_worker(self):
        # One wide lockstep batch per worker, never more shards than
        # cells.
        specs = batch_specs()
        for workers in (2, 3, 4):
            assert len(plan_shards(specs, workers=workers)) == workers
        assert len(plan_shards(specs, workers=64)) == len(specs)

    def test_solo_cells_still_over_decompose(self):
        # Ten scalar cells on two workers: more shards than workers
        # (steal slack), never more than OVERSUBSCRIPTION per worker.
        specs, _ = sweep_specs(**GRID)
        plan = plan_shards(specs, workers=2)
        assert 2 < len(plan) <= min(len(specs), 2 * SHARD_OVERSUBSCRIPTION)

    def test_mixed_plan_keeps_batch_and_solo_shards_apart(self):
        scalar, _ = sweep_specs(**GRID)
        specs = batch_specs() + scalar
        plan = plan_shards(specs, workers=2)
        kinds = [{specs[i].engine for i in shard} for shard in plan]
        assert all(len(k) == 1 for k in kinds)
        assert kinds.count({"batch"}) == 2
        assert 2 < kinds.count({"scalar"}) <= 2 * SHARD_OVERSUBSCRIPTION

    def test_shard_size_raises_the_shard_count(self):
        specs = batch_specs()
        assert len(plan_shards(specs, workers=2, shard_size=3)) == 4
        assert len(plan_shards(specs, workers=2, shard_size=1)) == len(specs)
        scalar, _ = sweep_specs(**GRID)
        assert len(plan_shards(scalar, workers=2, shard_size=1)) == len(scalar)

    def test_shard_size_caps_cells_per_shard(self):
        specs = batch_specs()
        for cap in (1, 2, 3):
            plan = plan_shards(specs, workers=2, shard_size=cap)
            assert max(len(shard) for shard in plan) <= cap

    def test_plan_balances_estimated_ticks(self):
        # MG simulates far longer than EP; LPT must not stack the
        # heavy cells into one shard while another idles.
        specs = [
            small_spec(app_name=name, label=name, runs=r)
            for name, r in (("MG", 2), ("EP", 1), ("EP", 1), ("EP", 1))
        ]
        plan = plan_shards(specs, workers=2)
        loads = [
            sum(estimate_spec_ticks(specs[i]) for i in shard) for shard in plan
        ]
        # The heaviest cell alone defines the heaviest shard.
        assert max(loads) <= max(estimate_spec_ticks(s) for s in specs) * 2
        assert specs[plan[0][0]].app_name == "MG"  # heaviest dispatched first

    def test_plan_deterministic(self):
        specs = batch_specs()
        assert plan_shards(specs, workers=4) == plan_shards(specs, workers=4)

    def test_empty_and_invalid(self):
        assert plan_shards([], workers=2) == []
        with pytest.raises(ExperimentError):
            plan_shards(batch_specs(), workers=0)
        with pytest.raises(ExperimentError):
            plan_shards(batch_specs(), workers=2, shard_size=0)
        with pytest.raises(ExperimentError):
            run_specs(batch_specs(), workers=2, shard_size=0)

    def test_estimate_tracks_runs_and_unknown_apps_fall_back(self):
        assert estimate_spec_ticks(small_spec(runs=4)) == pytest.approx(
            2 * estimate_spec_ticks(small_spec(runs=2))
        )
        # Unknown apps still get a planning weight; execution raises.
        assert estimate_spec_ticks(small_spec(app_name="NOPE")) > 0


class TestShardedEquivalence:
    def test_sharded_equals_scalar_oracle_and_pooled_batch(self):
        scalar_specs, _ = sweep_specs(**GRID)
        oracle, _ = run_specs(scalar_specs, workers=1)
        pooled, _ = run_specs(batch_specs(), workers=1)
        sharded, summary = run_specs(batch_specs(), workers=2, shard_size=3)
        for o, p, s in zip(oracle, pooled, sharded):
            assert o.times_s == p.times_s == s.times_s
            assert o.total_energy_j == p.total_energy_j == s.total_energy_j
        assert summary.shard_count > 2
        assert summary.executed == len(sharded)

    def test_sharded_sweep_digest_identical(self, tmp_path):
        # A sharded multi-worker batch sweep fills the cache; the
        # workers=1 scalar sweep must be served entirely from it.
        cold = run_sweep(**GRID, engine="batch", workers=2, shard_size=2,
                         cache=str(tmp_path))
        warm = run_sweep(**GRID, cache=str(tmp_path))
        assert cold.execution.executed == cold.execution.total > 0
        assert warm.execution.executed == 0
        assert warm.comparisons == cold.comparisons

    def test_results_invariant_under_permutation_and_shard_size(self):
        specs = batch_specs()
        baseline, _ = run_specs(specs, workers=1)
        order = list(range(len(specs)))
        random.Random(7).shuffle(order)
        shuffled = [specs[i] for i in order]
        for shard_size in (None, 1, 4):
            permuted, _ = run_specs(
                shuffled, workers=2, shard_size=shard_size
            )
            for pos, i in enumerate(order):
                assert permuted[pos].times_s == baseline[i].times_s

    def test_summary_reports_shards_and_render_mentions_them(self):
        _, summary = run_specs(batch_specs(), workers=2)
        assert summary.shard_count > 0
        assert sum(s.cells for s in summary.shards) == summary.executed
        assert all(s.est_ticks > 0 and s.seconds >= 0 for s in summary.shards)
        assert summary.steals >= 0
        text = summary.render()
        assert "shards over" in text and "steal" in text


class TestMixedEnginePending:
    def test_mixed_engines_match_all_scalar(self):
        # Half the pending list batch-engined, half scalar: the batch
        # subset pools, the rest runs scalar, nothing is dropped.
        scalar_specs, _ = sweep_specs(**GRID)
        mixed = [
            spec if i % 2 == 0 else batch_specs()[i]
            for i, spec in enumerate(scalar_specs)
        ]
        oracle, _ = run_specs(scalar_specs, workers=1)
        got, _ = run_specs(mixed, workers=1)
        for o, g in zip(oracle, got):
            assert o.times_s == g.times_s

    def test_batch_subset_actually_pools(self, monkeypatch):
        import repro.sim.batch as batch_mod

        calls = []
        real = batch_mod.run_batch

        def spy(engines, **kwargs):
            calls.append(len(engines))
            return real(engines, **kwargs)

        monkeypatch.setattr(batch_mod, "run_batch", spy)
        mixed = [
            small_spec(engine="batch", base_seed=cell_seed("m", i), label=f"b{i}")
            for i in range(3)
        ] + [
            small_spec(base_seed=cell_seed("s", i), label=f"s{i}")
            for i in range(2)
        ]
        results, _ = run_specs(mixed, workers=1)
        assert len(results) == 5
        # One pooled call covering all three batch cells' repetitions.
        assert calls == [3 * 2]


class TestTickApportionment:
    def test_pooled_seconds_split_by_simulated_ticks(self):
        # One heavy cell (4 runs) and one light cell (1 run) pooled in
        # one lockstep batch: seconds must follow tick counts, not be
        # split evenly by engine count.
        specs = [
            small_spec(engine="batch", runs=4, label="heavy"),
            small_spec(
                engine="batch", runs=1, base_seed=cell_seed("light"), label="light"
            ),
        ]
        _, summary = run_specs(specs, workers=1)
        by_label = {c.label: c for c in summary.cells}
        heavy, light = by_label["heavy"], by_label["light"]
        assert heavy.ticks > 3 * light.ticks
        assert heavy.seconds > 2 * light.seconds
        # Apportionment is exact: seconds ratio equals ticks ratio.
        assert heavy.seconds / light.seconds == pytest.approx(
            heavy.ticks / light.ticks
        )

    def test_cell_ticks_recorded_for_solo_cells_too(self):
        _, summary = run_specs([small_spec()], workers=1)
        (cell,) = summary.cells
        app_ticks = build_application("EP", scale=0.2).nominal_duration(None)
        assert cell.ticks == pytest.approx(
            2 * app_ticks / 0.01, rel=0.2  # 2 runs / 10 ms dt, ±jitter
        )

    def test_solo_ticks_count_every_node_and_gpu(self):
        # Each tick steps every socket of every node, or the CPU socket
        # plus each GPU: two devices per tick in both cells below.
        cluster = small_spec(
            app_name="CG",
            controller="fleet-demand:budget_w=160",
            runs=1,
            app_scale=0.15,
            cluster=ClusterSpec(node_count=2, node_apps=("EP", "CG")),
            label="cluster",
        )
        hetero = small_spec(
            app_name="CG",
            controller="hetero-coord",
            runs=1,
            app_scale=0.15,
            gpu=HETERO_NODE,
            label="hetero",
        )
        results, summary = run_specs([cluster, hetero], workers=1)
        ticks = {c.label: c.ticks for c in summary.cells}
        assert HETERO_NODE.gpu_count == 1
        assert ticks["cluster"] == sum(results[0].times_s) * 2 / 0.01
        assert ticks["hetero"] == sum(results[1].times_s) * 2 / 0.01
        assert ticks["cluster"] > 0 and ticks["hetero"] > 0


class TestWriteThrough:
    def test_completed_shards_survive_a_failing_shard(self, tmp_path):
        # "NOPE" passes submission-time validation (policies are
        # checked, applications resolve in the worker) and crashes its
        # shard; with one cell per shard every other shard completes
        # and must already be cached when the failure propagates.
        good = batch_specs()
        bad = small_spec(app_name="NOPE", label="poison")
        cache = ResultCache(tmp_path)
        with pytest.raises(Exception) as excinfo:
            run_specs(good + [bad], workers=2, shard_size=1, cache=cache)
        assert "NOPE" in str(excinfo.value)
        for spec in good:
            assert spec_key(spec) in cache

        warm, summary = run_specs(good, workers=2, cache=cache)
        assert summary.hits == len(good)
        oracle, _ = run_specs(good, workers=1)
        for w, o in zip(warm, oracle):
            assert w.times_s == o.times_s

    def test_serial_scalar_cells_write_through_incrementally(self, tmp_path):
        # The workers=1 path persists each solo cell before the next
        # executes: a poison cell at the end leaves the rest cached.
        specs, _ = sweep_specs(**GRID)
        cache = ResultCache(tmp_path)
        with pytest.raises(Exception):
            run_specs(
                specs + [small_spec(app_name="NOPE", label="poison")],
                workers=1,
                cache=cache,
            )
        _, summary = run_specs(specs, workers=1, cache=cache)
        assert summary.hits == len(specs)


#: A hetero grid sized for tier-1: one app, two split policies.
HETERO_NODE = GPUNodeConfig(
    kernel_count=3, kernel_flops=1.2e12, kernel_bytes=0.15e12
)
HETERO_GRID = dict(
    apps=["CG"],
    tolerances_pct=(0.0,),
    runs=2,
    app_scale=0.15,
    noise=QUIET,
    controllers=("hetero-coord", "hetero-fair"),
    gpu=HETERO_NODE,
)


class TestHeteroSharding:
    def test_hetero_sweep_rejects_per_socket_controllers(self):
        with pytest.raises(ExperimentError) as excinfo:
            sweep_specs(**{**HETERO_GRID, "controllers": ("duf", "hetero-coord")})
        assert "duf" in str(excinfo.value)

    def test_hetero_cells_weighted_by_the_gpu_side(self):
        specs, _ = sweep_specs(**HETERO_GRID)
        cpu_twin = RunSpec(
            app_name="CG", controller="duf", runs=2, app_scale=0.15, noise=QUIET
        )
        for spec in specs:
            assert estimate_spec_ticks(spec) > estimate_spec_ticks(cpu_twin)

    def test_sharded_hetero_sweep_bit_identical_to_serial(self):
        serial = run_sweep(**HETERO_GRID)
        sharded = run_sweep(**HETERO_GRID, workers=2, shard_size=1)
        assert serial.comparisons.keys() == sharded.comparisons.keys()
        for key in serial.comparisons:
            a, b = serial.comparisons[key], sharded.comparisons[key]
            assert a.slowdown_pct == b.slowdown_pct
            assert a.energy_savings_pct == b.energy_savings_pct
        assert sharded.execution.shard_count == sharded.execution.executed == 3

    def test_mixed_hetero_and_cpu_grid_shards_and_caches(self, tmp_path):
        hetero_specs, _ = sweep_specs(**HETERO_GRID)
        cpu_specs, _ = sweep_specs(**GRID, engine="batch")
        mixed = hetero_specs + cpu_specs
        cache = ResultCache(tmp_path)
        serial, _ = run_specs(mixed, workers=1)
        sharded, summary = run_specs(mixed, workers=2, shard_size=2, cache=cache)
        for s, p in zip(serial, sharded):
            assert s.times_s == p.times_s
            assert s.total_energy_j == p.total_energy_j
        assert summary.executed == len(mixed)
        for spec in mixed:
            assert spec_key(spec) in cache
        warm, warm_summary = run_specs(mixed, workers=2, cache=cache)
        assert warm_summary.executed == 0
        assert warm_summary.hits == len(mixed)
        for s, w in zip(serial, warm):
            assert s.times_s == w.times_s


CLUSTER_GRID = dict(
    apps=["CG"],
    tolerances_pct=(0.0,),
    runs=2,
    app_scale=0.15,
    noise=QUIET,
    controllers=("fleet-demand:budget_w=160", "fleet-fair:budget_w=160"),
    cluster=ClusterSpec(node_count=2, node_apps=("EP", "CG")),
)


class TestClusterSharding:
    def test_cluster_sweep_rejects_per_socket_controllers(self):
        with pytest.raises(ExperimentError) as excinfo:
            sweep_specs(
                **{**CLUSTER_GRID, "controllers": ("duf", "fleet-demand")}
            )
        assert "duf" in str(excinfo.value)

    def test_cluster_estimate_sums_per_node_app_ticks(self):
        # LPT weight of a multi-node cell: runs × Σ_nodes(spn × node-app
        # ticks) — each node's *own* application, not app_name × nodes.
        spec = small_spec(
            app_name="CG",
            controller="fleet-demand",
            cluster=ClusterSpec(node_count=2, node_apps=("EP", "CG")),
        )
        ep = small_spec(app_name="EP")
        cg = small_spec(app_name="CG")
        expected = (
            estimate_spec_ticks(ep) + estimate_spec_ticks(cg)
        )  # same runs/scale, spn=1
        assert estimate_spec_ticks(spec) == pytest.approx(expected)
        # Sockets per node multiply the weight.
        wide = small_spec(
            app_name="CG",
            controller="fleet-demand",
            cluster=ClusterSpec(
                node_count=2, node_apps=("EP", "CG"), sockets_per_node=2
            ),
        )
        assert estimate_spec_ticks(wide) == pytest.approx(2 * expected)
        # A homogeneous 3-node cell weighs 3× its single-node twin.
        homo = small_spec(
            app_name="EP",
            controller="fleet-demand",
            cluster=ClusterSpec(node_count=3),
        )
        assert estimate_spec_ticks(homo) == pytest.approx(
            3 * estimate_spec_ticks(ep)
        )

    def test_sharded_cluster_sweep_bit_identical_to_serial(self):
        serial = run_sweep(**CLUSTER_GRID)
        sharded = run_sweep(**CLUSTER_GRID, workers=2, shard_size=1)
        assert serial.comparisons.keys() == sharded.comparisons.keys()
        for key in serial.comparisons:
            a, b = serial.comparisons[key], sharded.comparisons[key]
            assert a.slowdown_pct == b.slowdown_pct
            assert a.energy_savings_pct == b.energy_savings_pct
        assert sharded.execution.shard_count == sharded.execution.executed == 3

    def test_cluster_cells_cache_and_warm_rerun(self, tmp_path):
        specs, _ = sweep_specs(**CLUSTER_GRID)
        cache = ResultCache(tmp_path)
        _, summary = run_specs(specs, workers=2, shard_size=1, cache=cache)
        assert summary.executed == len(specs)
        for spec in specs:
            assert spec_key(spec) in cache
        _, warm = run_specs(specs, workers=2, cache=cache)
        assert warm.executed == 0
        assert warm.hits == len(specs)


class TestCacheV2:
    def test_compressed_roundtrip_and_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(record_trace=True)
        result = execute_spec(spec)
        key = spec_key(spec)
        cache.put(key, result)
        assert (tmp_path / "manifest.jsonl").exists()
        segs = list((tmp_path / "segments").glob("*.seg"))
        assert len(segs) == 1
        # The stored blob is genuinely compressed.
        raw = len(pickle.dumps(result))
        assert segs[0].stat().st_size < raw / 2
        got = cache.get(key)
        assert got is not None and got.times_s == result.times_s

    def test_fresh_instance_serves_from_manifest_only(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = spec_key(small_spec())
        writer.put(key, execute_spec(small_spec()))
        reader = ResultCache(tmp_path)
        assert key in reader
        assert reader.get(key) is not None
        assert reader.stats.hits == 1
        assert reader.stats.legacy_hits == 0

    def test_legacy_uncompressed_entry_read_transparently(self, tmp_path):
        result = execute_spec(small_spec())
        key = spec_key(small_spec())
        legacy = tmp_path / key[:2] / f"{key[2:]}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps(result))

        cache = ResultCache(tmp_path)
        assert key in cache
        assert len(cache) == 1
        got = cache.get(key)
        assert got is not None and got.times_s == result.times_s
        assert cache.stats.legacy_hits == 1
        # A warm sweep over a v1-only cache executes nothing.
        _, summary = run_specs([small_spec()], cache=cache)
        assert summary.hits == 1

    def test_new_write_supersedes_legacy_entry(self, tmp_path):
        key = spec_key(small_spec())
        legacy = tmp_path / key[:2] / f"{key[2:]}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps("stale"))
        cache = ResultCache(tmp_path)
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"
        assert len(cache) == 1  # one key, two formats

    def test_torn_manifest_tail_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec_key(small_spec())
        cache.put(key, "value")
        with (tmp_path / "manifest.jsonl").open("ab") as fh:
            fh.write(b'{"k":"dead')  # crash mid-append: no newline
        reader = ResultCache(tmp_path)
        assert reader.get(key) == "value"

    def test_corrupt_manifest_line_loses_one_entry_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec_key(small_spec())
        cache.put(key, "value")
        with (tmp_path / "manifest.jsonl").open("ab") as fh:
            fh.write(b"garbage line\n")
        cache.put("f" * 64, "other")
        reader = ResultCache(tmp_path)
        assert reader.get(key) == "value"
        assert reader.get("f" * 64) == "other"
        assert reader.stats.corrupted == 1

    def test_two_writers_share_one_root(self, tmp_path):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        a.put("a" * 64, "from-a")
        b.put("b" * 64, "from-b")
        assert a.get("b" * 64) == "from-b"  # sees b's append via refresh
        assert b.get("a" * 64) == "from-a"
        assert len(ResultCache(tmp_path)) == 2


def test_serial_runs_never_import_the_process_pool():
    """``workers=1`` leaves the pool machinery (multiprocessing,
    ``concurrent.futures.process``) unimported: it costs memory and
    start-up that a serial run never uses."""
    code = (
        "import sys\n"
        "import repro.experiments\n"
        "from repro.experiments.executor import RunSpec, run_specs\n"
        "run_specs([RunSpec('EP', 'dufp', runs=1, app_scale=0.05)], workers=1)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
