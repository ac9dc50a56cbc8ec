"""Parallel executor and content-addressed result cache.

The acceptance properties of the execution layer: parallel sweeps are
bit-identical to serial ones, warm-cache reruns execute nothing, any
config change invalidates the address, and corrupted entries recover
by recomputation.
"""

from dataclasses import replace

import pytest

from repro.config import NoiseConfig, config_digest, yeti_socket_config
from repro.core.registry import make_spec
from repro.errors import ExperimentError, PolicyError
from repro.experiments.cache import ResultCache
from repro.experiments.executor import (
    RunSpec,
    cell_seed,
    execute_spec,
    run_specs,
    spec_key,
)
from repro.experiments.sweep import run_sweep, sweep_specs
from repro.sim.faults import FaultPlan


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)

#: A grid small enough to execute many times in one test module.
GRID = dict(
    apps=["EP"], tolerances_pct=(0.0,), runs=2, app_scale=0.2, noise=QUIET
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


class TestSpecKey:
    def test_stable_across_calls(self):
        assert spec_key(small_spec()) == spec_key(small_spec())

    def test_label_excluded(self):
        assert spec_key(small_spec(label="a")) == spec_key(small_spec(label="b"))

    def test_config_change_invalidates(self):
        a = small_spec()
        b = small_spec(
            controller_cfg=replace(a.controller_cfg, cap_step_w=10.0)
        )
        assert spec_key(a) != spec_key(b)

    def test_every_field_reaches_the_key(self):
        a = small_spec()
        variants = [
            small_spec(app_name="CG"),
            small_spec(controller="dufp"),
            small_spec(runs=3),
            small_spec(base_seed=1),
            small_spec(app_scale=0.3),
            small_spec(noise=replace(QUIET, seed=1)),
            small_spec(socket=yeti_socket_config()),
            small_spec(socket_count=2),
            small_spec(record_trace=True),
            small_spec(controller="static"),
            small_spec(controller=make_spec("static", cap_w=100.0)),
            small_spec(controller="budget:watts=95"),
        ]
        keys = {spec_key(v) for v in variants}
        assert spec_key(a) not in keys
        assert len(keys) == len(variants)

    def test_digest_rejects_unhashable(self):
        with pytest.raises(Exception):
            config_digest(object())

    def test_cell_seed_deterministic_and_distinct(self):
        assert cell_seed("CG", "duf", 10.0) == cell_seed("CG", "duf", 10.0)
        assert cell_seed("CG", "duf", 10.0) != cell_seed("CG", "dufp", 10.0)
        assert cell_seed("CG", "duf", 10.0) != cell_seed("CG", "duf", 20.0)


class TestFaultPlanDigest:
    """The faults field folds into the content address — except when
    it is contractually a no-op (None or the all-zero plan), where the
    digest must equal the historic fault-free one."""

    def test_none_and_zero_plan_share_one_digest(self):
        assert spec_key(small_spec()) == spec_key(
            small_spec(faults=FaultPlan())
        )

    def test_zero_plan_normalised_to_none(self):
        assert small_spec(faults=FaultPlan.zero()).faults is None

    def test_active_plan_changes_the_digest(self):
        assert spec_key(small_spec()) != spec_key(
            small_spec(faults=FaultPlan(msr_read_fail_rate=0.01))
        )

    def test_every_fault_parameter_reaches_the_key(self):
        base = FaultPlan(msr_read_fail_rate=0.01)
        variants = [
            small_spec(faults=replace(base, msr_read_fail_rate=0.02)),
            small_spec(faults=replace(base, counter_stuck_rate=0.1)),
            small_spec(faults=replace(base, counter_rollover_rate=0.1)),
            small_spec(faults=replace(base, power_dropout_rate=0.1)),
            small_spec(faults=replace(base, cap_latch_fail_rate=0.1)),
            small_spec(faults=replace(base, latch_delay_rate=0.1)),
            small_spec(faults=replace(base, latch_delay_extra_s=0.2)),
            small_spec(faults=replace(base, tick_miss_rate=0.1)),
            small_spec(faults=replace(base, tick_jitter_rate=0.1)),
            small_spec(faults=replace(base, tick_jitter_max_s=0.1)),
            small_spec(faults=replace(base, start_s=1.0)),
            small_spec(faults=replace(base, stop_s=9.0)),
            small_spec(faults=replace(base, seed_salt=1)),
        ]
        keys = {spec_key(v) for v in variants}
        assert spec_key(small_spec(faults=base)) not in keys
        assert len(keys) == len(variants)

    def test_invalid_plan_rejected_at_validate(self):
        import pytest as _pytest
        from repro.errors import ConfigurationError

        with _pytest.raises(ConfigurationError):
            small_spec(faults=FaultPlan(msr_read_fail_rate=2.0)).validate()


class TestFaultedExecutionDeterminism:
    PLAN = FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.1)

    def test_serial_equals_parallel_with_faults(self):
        specs, _ = sweep_specs(**GRID, faults=self.PLAN)
        serial, _ = run_specs(specs, workers=1)
        parallel, _ = run_specs(specs, workers=2)
        for s, p in zip(serial, parallel):
            assert s.times_s == p.times_s
            assert s.total_energy_j == p.total_energy_j

    def test_faulted_cells_cache_and_rerun_warm(self, tmp_path):
        specs, _ = sweep_specs(**GRID, faults=self.PLAN)
        cold, cold_summary = run_specs(specs, cache=str(tmp_path))
        warm, warm_summary = run_specs(specs, cache=str(tmp_path))
        assert cold_summary.executed == len(specs)
        assert warm_summary.hits == len(specs)
        for c, w in zip(cold, warm):
            assert c.times_s == w.times_s

    def test_faulted_and_fault_free_grids_never_share_cells(self, tmp_path):
        clean_specs, _ = sweep_specs(**GRID)
        fault_specs, _ = sweep_specs(**GRID, faults=self.PLAN)
        run_specs(clean_specs, cache=str(tmp_path))
        _, summary = run_specs(fault_specs, cache=str(tmp_path))
        assert summary.hits == 0


class TestSpecValidation:
    def test_unknown_controller_rejected(self):
        # Policy-id strings resolve at construction, so the bad name
        # fails fast inside RunSpec.__post_init__.
        with pytest.raises(PolicyError):
            small_spec(controller="magic")

    def test_zero_runs_rejected(self):
        with pytest.raises(ExperimentError):
            small_spec(runs=0).validate()

    def test_run_specs_needs_a_worker(self):
        with pytest.raises(ExperimentError):
            run_specs([small_spec()], workers=0)


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_spec(small_spec())
        key = spec_key(small_spec())
        cache.put(key, result)
        got = cache.get(key)
        assert got is not None
        assert got.times_s == result.times_s
        assert cache.stats.hits == 1

    def test_miss_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(spec_key(small_spec())) is None
        assert cache.stats.misses == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec_key(small_spec())
        cache.put(key, execute_spec(small_spec()))
        # Trash the segment bytes behind the manifest entry.
        seg, off, length, _crc = cache._index[key]
        seg_path = cache._segment_root / seg
        blob = bytearray(seg_path.read_bytes())
        blob[off : off + length] = b"\0" * length
        seg_path.write_bytes(bytes(blob))
        cache._segment_readers.clear()  # drop the stale read handle
        assert cache.get(key) is None
        assert cache.stats.corrupted == 1
        results, summary = run_specs([small_spec()], cache=cache)
        assert summary.executed == 1
        assert cache.get(key) is not None

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultCache(tmp_path).get("../escape")

    def test_cache_path_must_be_a_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ExperimentError):
            ResultCache(blocker)

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(spec_key(small_spec()), execute_spec(small_spec()))
        assert len(cache) == 1


class TestParallelEquality:
    def test_parallel_equals_serial_sweep(self):
        serial = run_sweep(**GRID, workers=1)
        parallel = run_sweep(**GRID, workers=4)
        # Exact Comparison equality: identical seeds, identical floats.
        assert serial.comparisons == parallel.comparisons
        for app in serial.defaults:
            assert (
                serial.defaults[app].times_s == parallel.defaults[app].times_s
            )

    def test_order_independent_seeds(self):
        specs, _ = sweep_specs(**GRID)
        forward, _ = run_specs(specs)
        backward, _ = run_specs(list(reversed(specs)))
        for f, b in zip(forward, reversed(backward)):
            assert f.times_s == b.times_s


class TestWarmCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        cold = run_sweep(**GRID, cache=str(tmp_path))
        warm = run_sweep(**GRID, workers=2, cache=str(tmp_path))
        assert cold.execution.executed == cold.execution.total > 0
        assert warm.execution.executed == 0
        assert warm.execution.hits == warm.execution.total
        assert warm.comparisons == cold.comparisons

    def test_config_change_misses(self, tmp_path):
        run_sweep(**GRID, cache=str(tmp_path))
        changed = dict(GRID, runs=3)
        assert run_sweep(**changed, cache=str(tmp_path)).execution.hits == 0

    def test_summary_renders(self, tmp_path):
        sweep = run_sweep(**GRID, cache=str(tmp_path))
        text = sweep.execution.render(per_cell=True)
        assert "executed" in text and "EP/duf@0%" in text
        warm = run_sweep(**GRID, cache=str(tmp_path))
        assert "cache hits" in warm.execution.render()


class TestInterruptedSweepResumes:
    def test_partial_cache_completes_the_rest(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs, _ = sweep_specs(**GRID)
        # Simulate an interrupted sweep: only the first cell persisted.
        cache.put(spec_key(specs[0]), execute_spec(specs[0]))
        sweep = run_sweep(**GRID, cache=cache)
        assert sweep.execution.hits == 1
        assert sweep.execution.executed == len(specs) - 1


class TestRecordTraceOff:
    """``RunSpec(record_trace=False)`` records no trace on any engine path;
    everything a sweep reads matches the traced cell."""

    COLUMNS = ("times_s", "package_power_w", "dram_power_w", "total_energy_j")
    PLAN = FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.1)

    def cells(self, engine, record_trace):
        return [
            small_spec(
                controller="duf", engine=engine, record_trace=record_trace,
                faults=self.PLAN,
            ),
            small_spec(
                controller="dufp", engine=engine, record_trace=record_trace,
                faults=self.PLAN, socket_count=2,
            ),
        ]

    @pytest.mark.parametrize(
        "engine,workers", [("batch", 1), ("batch", 2), ("scalar", 1)]
    )
    def test_last_run_has_no_trace(self, engine, workers):
        results, _ = run_specs(self.cells(engine, False), workers=workers)
        for res in results:
            assert res.last_run is not None
            assert all(s.trace == [] for s in res.last_run.sockets)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_same_columns_phases_and_faults_as_traced(self, engine):
        plain, _ = run_specs(self.cells(engine, False))
        traced, _ = run_specs(self.cells(engine, True))
        for p, t in zip(plain, traced):
            for column in self.COLUMNS:
                assert getattr(p, column) == getattr(t, column)
            assert all(s.trace for s in t.last_run.sockets)
            assert [s.phases for s in p.last_run.sockets] == [
                s.phases for s in t.last_run.sockets
            ]
            assert p.last_run.fault_events == t.last_run.fault_events
        assert any(t.last_run.fault_events for t in traced)

    def test_pooled_batch_never_records(self, monkeypatch):
        from repro.sim.batch import BatchSimulationEngine

        def refuse(*args, **kwargs):
            raise AssertionError("untraced batch recorded a trace sample")

        monkeypatch.setattr(BatchSimulationEngine, "_record", refuse)
        results, _ = run_specs(self.cells("batch", False), workers=1)
        assert all(res.last_run is not None for res in results)
        with pytest.raises(AssertionError, match="recorded a trace"):
            run_specs(self.cells("batch", True), workers=1)
