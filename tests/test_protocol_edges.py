"""Protocol edge cases not covered by the main experiment tests."""

import pytest

from repro.config import NoiseConfig
from repro.core.baselines import DefaultController
from repro.experiments.protocol import build_protocol, run_protocol
from repro.sim.run import run_application
from repro.sim.trace import InMemoryTraceSink
from repro.workloads.catalog import build_application


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)


@pytest.fixture(scope="module")
def ep():
    return build_application("EP", scale=0.15)


class TestProtocolEdges:
    def test_single_run_keeps_itself(self, ep):
        res = run_protocol(ep, DefaultController, runs=1, noise=QUIET)
        assert res.keep == [0]
        assert res.mean_time_s == res.times_s[0]

    def test_last_run_has_trace_by_default(self, ep):
        res = run_protocol(ep, DefaultController, runs=2, noise=QUIET)
        assert res.last_run is not None
        assert res.last_run.socket(0).trace

    def test_base_seed_shifts_results(self, ep):
        a = run_protocol(ep, DefaultController, runs=2, noise=QUIET, base_seed=0)
        b = run_protocol(ep, DefaultController, runs=2, noise=QUIET, base_seed=999)
        assert a.times_s != b.times_s

    def test_same_protocol_is_deterministic(self, ep):
        a = run_protocol(ep, DefaultController, runs=3, noise=QUIET)
        b = run_protocol(ep, DefaultController, runs=3, noise=QUIET)
        assert a.times_s == b.times_s
        assert a.package_power_w == b.package_power_w

    def test_runs_have_distinct_seeds(self, ep):
        res = run_protocol(ep, DefaultController, runs=4, noise=QUIET)
        assert len(set(res.times_s)) > 1

    def test_metric_bars_use_time_keep_set(self, ep):
        res = run_protocol(ep, DefaultController, runs=5, noise=QUIET)
        bar = res.bar("package_power_w")
        kept_powers = [res.package_power_w[i] for i in res.keep]
        assert bar.low == min(kept_powers)
        assert bar.high == max(kept_powers)

    def test_controller_name_recorded(self, ep):
        res = run_protocol(ep, DefaultController, runs=1, noise=QUIET)
        assert res.controller_name == "default"
        assert res.app_name == "EP"

    def test_socket_count_plumbs_through(self, ep):
        res = run_protocol(
            ep, DefaultController, runs=1, noise=QUIET, socket_count=2
        )
        assert len(res.last_run.sockets) == 2


class TestRecordTraceRule:
    """Only the last run is traced, and only when a trace was asked for."""

    @pytest.mark.parametrize("kwargs", [{}, {"record_trace": True}])
    def test_only_the_last_engine_traces(self, ep, kwargs):
        _, engines = build_protocol(
            ep, DefaultController, runs=3, noise=QUIET, **kwargs
        )
        assert [e.record_trace for e in engines] == [False, False, True]
        assert all(e.trace_sink is None for e in engines)

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_sink_goes_to_the_last_engine_only(self, ep, record_trace):
        sink = InMemoryTraceSink()
        _, engines = build_protocol(
            ep, DefaultController, runs=3, noise=QUIET,
            record_trace=record_trace, trace_sink=sink,
        )
        assert engines[-1].trace_sink is sink
        for e in engines[:-1]:
            assert e.trace_sink is None and not e.record_trace

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_record_trace_false_records_nothing(self, ep, engine):
        res = run_protocol(
            ep, DefaultController, runs=2, noise=QUIET, socket_count=2,
            record_trace=False, engine=engine,
        )
        assert res.last_run is not None
        assert all(s.trace == [] for s in res.last_run.sockets)
        assert all(s.phases for s in res.last_run.sockets)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_last_run_trace_is_the_last_seeds_run(self, ep, engine):
        runs, base_seed = 3, 5
        res = run_protocol(
            ep, DefaultController, runs=runs, noise=QUIET,
            base_seed=base_seed, record_trace=True, engine=engine,
        )
        alone = run_application(
            ep, DefaultController, noise=QUIET,
            seed=QUIET.seed + 1009 * (runs - 1) + base_seed,
            record_trace=True,
        )
        assert res.last_run.socket(0).trace
        assert res.last_run.socket(0).trace == alone.socket(0).trace
