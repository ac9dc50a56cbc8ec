"""Trace sinks: in-memory equivalence, streaming byte-identity, bounds."""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ControllerConfig,
    MachineConfig,
    NoiseConfig,
    ThermalConfig,
    yeti_socket_config,
)
from repro.core.registry import controller_factory
from repro.errors import SimulationError
from repro.sim.export import trace_to_jsonl
from repro.sim.machine import SimulatedMachine
from repro.sim.result import TraceSample
from repro.sim.run import run_application
from repro.sim.trace import (
    CSV_HEADER,
    CompositeTraceSink,
    InMemoryTraceSink,
    RingBufferTraceSink,
    StreamingTraceSink,
    jsonl_sample_line,
)
from repro.workloads.catalog import build_application


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)
CFG = ControllerConfig(tolerated_slowdown=0.10)


def _run(**kwargs):
    return run_application(
        build_application("EP", scale=0.2),
        controller_factory("dufp", CFG),
        controller_cfg=CFG,
        noise=QUIET,
        seed=7,
        **kwargs,
    )


class TestInMemorySink:
    def test_matches_classic_recording(self):
        classic = _run(record_trace=True)
        sink = InMemoryTraceSink()
        observed = _run(record_trace=False, trace_sink=sink)
        assert observed.socket(0).trace == classic.socket(0).trace
        assert observed.execution_time_s == classic.execution_time_s

    def test_explicit_sink_wins_over_record_trace(self):
        sink = RingBufferTraceSink(capacity=5)
        result = _run(record_trace=True, trace_sink=sink)
        assert len(result.socket(0).trace) == 5


class TestStreamingJsonl:
    def test_byte_identical_to_serialised_memory_trace(self):
        classic = _run(record_trace=True)
        expected = io.StringIO()
        trace_to_jsonl(classic.socket(0), expected)

        streamed = io.StringIO()
        sink = StreamingTraceSink(streamed, fmt="jsonl")
        _run(record_trace=False, trace_sink=sink)
        assert streamed.getvalue() == expected.getvalue()
        assert sink.rows == len(classic.socket(0).trace)

    def test_path_target_owned_by_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path)
        _run(record_trace=False, trace_sink=sink)
        lines = path.read_text().splitlines()
        assert len(lines) == sink.rows > 0
        assert lines[0].startswith('{"socket_id":0,')

    def test_thermal_stream_byte_identical_to_export(self):
        # Thermals on: every sample carries a float temperature_c.
        def machine():
            socket = replace(yeti_socket_config(), thermal=ThermalConfig())
            return SimulatedMachine(MachineConfig(socket=socket, socket_count=1))

        classic = _run(record_trace=True, machine=machine())
        assert classic.socket(0).trace[0].temperature_c is not None
        expected = io.StringIO()
        trace_to_jsonl(classic.socket(0), expected)
        streamed = io.StringIO()
        _run(
            record_trace=False,
            machine=machine(),
            trace_sink=StreamingTraceSink(streamed),
        )
        assert streamed.getvalue() == expected.getvalue()

    def test_streamed_result_retains_no_trace(self):
        result = _run(record_trace=False, trace_sink=StreamingTraceSink(io.StringIO()))
        assert result.socket(0).trace == []


class TestStreamingCsv:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        sink = StreamingTraceSink(path, fmt="csv")
        _run(record_trace=False, trace_sink=sink)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == sink.rows + 1

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            StreamingTraceSink(io.StringIO(), fmt="parquet")

    def test_record_before_open_rejected(self):
        sink = StreamingTraceSink(io.StringIO())
        with pytest.raises(SimulationError):
            sink.record(0, _run(record_trace=True).socket(0).trace[0])


class TestRingBufferSink:
    def test_keeps_only_the_tail(self):
        classic = _run(record_trace=True)
        sink = RingBufferTraceSink(capacity=10)
        result = _run(record_trace=False, trace_sink=sink)
        full = classic.socket(0).trace
        assert result.socket(0).trace == full[-10:]
        assert sink.seen[0] == len(full)

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            RingBufferTraceSink(capacity=0)


class TestCompositeSink:
    def test_streams_and_retains_at_once(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        streaming = StreamingTraceSink(path)
        memory = InMemoryTraceSink()
        result = _run(
            record_trace=False, trace_sink=CompositeTraceSink(streaming, memory)
        )
        trace = result.socket(0).trace
        assert len(trace) > 0
        assert len(path.read_text().splitlines()) == len(trace)

    def test_needs_a_child(self):
        with pytest.raises(SimulationError):
            CompositeTraceSink()


def _json_reference(socket_id, sample):
    record = {"socket_id": socket_id}
    record.update(
        (name, getattr(sample, name)) for name in TraceSample.__dataclass_fields__
    )
    return json.dumps(record, separators=(",", ":")) + "\n"


SPECIAL = st.sampled_from(
    [0.0, -0.0, 2.4e9, 1.0, 125.0, 5e-324, 2.2250738585072014e-308, 1e308]
)
ANY_FLOAT = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


class TestJsonlEncoder:
    """``jsonl_sample_line`` is byte-equal to ``json.dumps``."""

    @settings(max_examples=300, deadline=None)
    @given(
        socket_id=st.integers(min_value=0, max_value=63),
        values=st.lists(ANY_FLOAT, min_size=8, max_size=8),
        temperature=st.one_of(st.none(), ANY_FLOAT),
    )
    def test_finite_floats(self, socket_id, values, temperature):
        sample = TraceSample(*values, temperature_c=temperature)
        assert jsonl_sample_line(socket_id, sample) == _json_reference(
            socket_id, sample
        )

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.one_of(ANY_FLOAT, NON_FINITE), min_size=8, max_size=8),
        temperature=st.one_of(st.none(), ANY_FLOAT, NON_FINITE),
    )
    def test_nan_and_infinity_fall_back(self, values, temperature):
        sample = TraceSample(*values, temperature_c=temperature)
        assert jsonl_sample_line(1, sample) == _json_reference(1, sample)

    def test_pinned_forms(self):
        sample = TraceSample(0.01, 2.4e9, 1.2e9, 88.5, 7.25, 125.0, 0.0, -0.0)
        assert jsonl_sample_line(0, sample) == (
            '{"socket_id":0,"time_s":0.01,"core_freq_hz":2400000000.0,'
            '"uncore_freq_hz":1200000000.0,"package_power_w":88.5,'
            '"dram_power_w":7.25,"cap_w":125.0,"flops_rate":0.0,'
            '"bytes_rate":-0.0,"temperature_c":null}\n'
        )
        hot = replace(sample, temperature_c=float("nan"), cap_w=float("inf"))
        assert '"cap_w":Infinity' in jsonl_sample_line(0, hot)
        assert '"temperature_c":NaN' in jsonl_sample_line(0, hot)

    def test_non_float_types_fall_back(self):
        sample = TraceSample(1, 2.4e9, 1.2e9, True, 7.25, 125.0, 0.0, 0.0, 40)
        assert jsonl_sample_line(0, sample) == _json_reference(0, sample)
        assert jsonl_sample_line(True, sample) == _json_reference(True, sample)
