"""Trace sinks: in-memory equivalence, streaming byte-identity, bounds,
and ``record_step`` equal to recording the sample it describes."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.engine import _NodeSink
from repro.config import (
    ControllerConfig,
    EngineConfig,
    MachineConfig,
    NoiseConfig,
    ThermalConfig,
    yeti_socket_config,
)
from repro.core.registry import controller_factory
from repro.errors import SimulationError
from repro.sim.export import trace_to_jsonl
from repro.sim.faults import FaultEvent, FaultPlan
from repro.sim.machine import SimulatedMachine
from repro.sim.result import SocketResult, TraceSample
from repro.sim.run import run_application
from repro.sim.trace import (
    CSV_HEADER,
    CompositeTraceSink,
    InMemoryTraceSink,
    RingBufferTraceSink,
    StreamingTraceSink,
    _CHUNK_LINES,
    jsonl_event_line,
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


class _Float(float):
    """A float subclass: equal to its value, encoded by ``json.dumps``."""


#: Tail values: forms of 1.0 that compare equal yet must print
#: differently (1, True, a subclass, numpy), 0.0 and -0.0, non-finite
#: values, and plain floats that may be reused.
TAIL_VALUE = st.sampled_from(
    [
        1.0,
        1.0,
        1,
        True,
        _Float(1.0),
        np.float64(1.0),
        0.0,
        -0.0,
        float("nan"),
        float("inf"),
        float("-inf"),
        118.92911093898077,
    ]
)
TIME_VALUE = st.one_of(
    st.sampled_from([0.01, 12.340000000000009, 0.0, -0.0, float("nan"), 1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: How one sample's tail differs from its socket's previous one: not at
#: all (so tails repeat in runs), in a float field, or in the
#: temperature (which may also be ``None``).
TAIL_CHANGE = st.one_of(
    st.none(),
    # Few fields, so a field often flips back and forth between forms.
    st.tuples(st.sampled_from([0, 3, 6]), TAIL_VALUE),
    st.tuples(st.just(7), st.one_of(st.none(), TAIL_VALUE)),
)
FAULT_EVENT = st.builds(
    FaultEvent,
    time_s=st.floats(allow_nan=False, allow_infinity=False),
    socket_id=st.sampled_from([-1, 0, 1]),
    channel=st.sampled_from(["msr_fail", "rapl_latch_drop"]),
    detail=st.text(max_size=8),
)
PLAIN_SAMPLE = TraceSample(0.01, 2.4e9, 1.2e9, 88.5, 7.25, 125.0, 1e9, 2e9)


@st.composite
def _sample_run(draw):
    """Records of one run on two interleaved sockets: a list of
    ``("sample", socket_id, sample)`` and ``("event", event)`` items."""
    tails = {
        # Socket 0 starts anywhere, socket 1 on a reusable tail.
        0: [*draw(st.lists(TAIL_VALUE, min_size=7, max_size=7)), None],
        1: [1.0] * 7 + [None],
    }
    records = []
    for socket_id, change, time_s in draw(
        st.lists(
            # ``True`` hashes like socket 1 but must print as ``true``.
            st.tuples(st.sampled_from([0, 1, 1, True]), TAIL_CHANGE, TIME_VALUE),
            max_size=40,
        )
    ):
        if change is not None:
            tails[socket_id][change[0]] = change[1]
        sample = TraceSample(time_s, *tails[socket_id])
        records.append(("sample", socket_id, sample))
    for event in draw(st.lists(FAULT_EVENT, max_size=3)):
        records.insert(draw(st.integers(0, len(records))), ("event", event))
    return records


def _stateless_lines(records):
    """The reference file: ``jsonl_sample_line`` per sample, then the
    event block."""
    return "".join(
        [jsonl_sample_line(r[1], r[2]) for r in records if r[0] == "sample"]
        + [jsonl_event_line(r[1]) for r in records if r[0] == "event"]
    )


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

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(_sample_run(), min_size=2, max_size=2))
    def test_streamed_sequences_match_stateless_lines(self, runs):
        fresh = StreamingTraceSink(io.StringIO())
        with pytest.raises(SimulationError):
            fresh.record(0, PLAIN_SAMPLE)
        # One sink over two runs into one stream: the second run starts
        # clean, so the stream is the two reference files back to back.
        stream = io.StringIO()
        sink = StreamingTraceSink(stream)
        expected = ""
        for records in runs:
            sink.open(2)
            for record in records:
                if record[0] == "sample":
                    sink.record(record[1], record[2])
                else:
                    sink.record_event(record[1].socket_id, record[1])
            sink.close()
            expected += _stateless_lines(records)
            assert stream.getvalue() == expected
        assert sink.rows == expected.count("\n")
        with pytest.raises(SimulationError):
            sink.record(0, PLAIN_SAMPLE)

    @settings(max_examples=100, deadline=None)
    @given(records=_sample_run())
    def test_exported_trace_matches_stateless_lines(self, records):
        # Socket 1's samples (it starts on a reusable tail) as one trace.
        records = [
            ("sample", 1, r[2]) if r[0] == "sample" else r
            for r in records
            if r[0] == "event" or r[1] == 1
        ]
        trace = [r[2] for r in records if r[0] == "sample"]
        events = [r[1] for r in records if r[0] == "event"]
        socket = SocketResult(
            socket_id=1,
            finish_time_s=1.0,
            package_energy_j=0.0,
            dram_energy_j=0.0,
            trace=trace,
        )
        stream = io.StringIO()
        if not trace:
            with pytest.raises(SimulationError):
                trace_to_jsonl(socket, stream, events=events)
            return
        lines = trace_to_jsonl(socket, stream, events=events)
        assert lines == len(trace) + len(events)
        assert stream.getvalue() == _stateless_lines(records)

    @pytest.mark.parametrize("field", range(8))
    @pytest.mark.parametrize(
        "first, then",
        [
            (0.0, -0.0),
            (-0.0, 0.0),
            (1, 1.0),
            (True, 1.0),
            (_Float(1.0), 1.0),
            (np.float64(1.0), 1.0),
            (1.0, 1),
            (1.0, True),
            (1.0, _Float(1.0)),
            (1.0, np.float64(1.0)),
            (float("inf"), float("inf")),
            (float("nan"), float("nan")),
        ],
    )
    def test_equal_values_that_print_differently(self, field, first, then):
        # A tail of equal values must not reuse the text of the other form.
        tail = [1.0] * 7 + [None]
        samples = []
        for value in (first, then, then):
            tail[field] = value
            samples.append(TraceSample(0.01 * len(samples), *tail))
        stream = io.StringIO()
        sink = StreamingTraceSink(stream)
        sink.open(1)
        for sample in samples:
            sink.record(0, sample)
        sink.close()
        assert stream.getvalue() == "".join(
            jsonl_sample_line(0, sample) for sample in samples
        )

    @pytest.mark.parametrize(
        "socket_id, time_s",
        [
            (0, float("nan")),
            (0, float("inf")),
            (0, 1),
            (0, True),
            (0, np.float64(0.5)),
            (0, _Float(0.5)),
            (True, 0.5),
        ],
    )
    def test_odd_heads_on_a_reused_tail(self, socket_id, time_s):
        sample = replace(PLAIN_SAMPLE, time_s=0.5)
        odd = replace(PLAIN_SAMPLE, time_s=time_s)
        stream = io.StringIO()
        sink = StreamingTraceSink(stream)
        sink.open(2)
        sink.record(0, sample)
        sink.record(1, sample)
        sink.record(socket_id, odd)
        sink.close()
        assert stream.getvalue() == (
            jsonl_sample_line(0, sample)
            + jsonl_sample_line(1, sample)
            + jsonl_sample_line(socket_id, odd)
        )


#: A sample's fields in ``record_step`` order.
FIELDS = tuple(TraceSample.__dataclass_fields__)
FAULTS = FaultPlan(msr_read_fail_rate=0.02, cap_latch_fail_rate=0.1)


def _exact(samples):
    """Samples as their fields' types and reprs: ``-0.0`` is not ``0.0``,
    ``True`` is not ``1.0``."""
    return [
        tuple((type(getattr(s, f)), repr(getattr(s, f))) for f in FIELDS)
        for s in samples
    ]


def _retained(sink):
    return lambda: (
        _exact(sink.collected(0)),
        _exact(sink.collected(1)),
        sink.events(),
    )


def _memory_sink():
    sink = InMemoryTraceSink()
    return sink, _retained(sink)


def _ring_sink():
    sink = RingBufferTraceSink(capacity=3)
    return sink, lambda: (_retained(sink)(), sink.seen)


def _stream_sink(fmt):
    def make():
        stream = io.StringIO()
        sink = StreamingTraceSink(stream, fmt=fmt)
        return sink, lambda: (stream.getvalue(), sink.rows)

    return make


def _composite_sink():
    stream = io.StringIO()
    memory = InMemoryTraceSink()
    sink = CompositeTraceSink(StreamingTraceSink(stream), memory)
    return sink, lambda: (stream.getvalue(), _retained(sink)())


def _node_sink():
    # Node 1 of a 2-socket-per-node cluster: ids shift by 2.
    target = InMemoryTraceSink()
    target.open(4)
    sink = _NodeSink(target, 2)
    return sink, lambda: (_retained(sink)(), _exact(target.collected(0)))


SINKS = {
    "memory": _memory_sink,
    "ring": _ring_sink,
    "jsonl": _stream_sink("jsonl"),
    "csv": _stream_sink("csv"),
    "composite": _composite_sink,
    "node": _node_sink,
}


def _split(text):
    """A streamed JSONL file's sample lines by socket id, and its event
    lines (which must all come after the samples)."""
    by_socket, events = {}, []
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if "event" in record:
            events.append(line)
        else:
            assert not events, "a sample line after the event block"
            by_socket.setdefault(record["socket_id"], []).append(line)
    return by_socket, events


class TestRecordStep:
    """``record_step(id, *fields)`` is ``record(id, TraceSample(*fields))``."""

    @settings(max_examples=60, deadline=None)
    @given(records=_sample_run(), kind=st.sampled_from(sorted(SINKS)))
    def test_equals_recording_the_sample(self, records, kind):
        (by_sample, seen_by_sample), (by_step, seen_by_step) = (
            SINKS[kind](),
            SINKS[kind](),
        )
        for sink in (by_sample, by_step):
            sink.open(2)
        for record in records:
            if record[0] == "event":
                by_sample.record_event(record[1].socket_id, record[1])
                by_step.record_event(record[1].socket_id, record[1])
                continue
            _, socket_id, sample = record
            by_sample.record(socket_id, sample)
            by_step.record_step(socket_id, *(getattr(sample, f) for f in FIELDS))
        for sink in (by_sample, by_step):
            sink.close()
        assert seen_by_step() == seen_by_sample()

    def test_temperature_defaults_to_none(self):
        stream = io.StringIO()
        sink = StreamingTraceSink(stream)
        sink.open(1)
        sink.record_step(0, *(getattr(PLAIN_SAMPLE, f) for f in FIELDS[:-1]))
        sink.close()
        assert stream.getvalue() == jsonl_sample_line(0, PLAIN_SAMPLE)

    def test_step_before_open_rejected(self):
        for fmt in StreamingTraceSink.FORMATS:
            sink = StreamingTraceSink(io.StringIO(), fmt=fmt)
            with pytest.raises(SimulationError):
                sink.record_step(0, *(getattr(PLAIN_SAMPLE, f) for f in FIELDS))

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_streamed_run_equals_its_export(self, tmp_path, sockets):
        classic = _run(record_trace=True, socket_count=sockets, faults=FAULTS)
        assert classic.fault_events
        path = tmp_path / "s.jsonl"
        sink = StreamingTraceSink(path)
        _run(
            record_trace=False,
            socket_count=sockets,
            faults=FAULTS,
            trace_sink=sink,
        )
        events = classic.fault_events
        if sockets == 1:
            expected = io.StringIO()
            trace_to_jsonl(classic.socket(0), expected, events=events)
            assert path.read_text() == expected.getvalue()
        by_socket, event_lines = _split(path.read_text())
        assert sorted(by_socket) == list(range(sockets))
        for sid in range(sockets):
            expected = io.StringIO()
            trace_to_jsonl(classic.socket(sid), expected)
            assert "".join(by_socket[sid]) == expected.getvalue()
        assert event_lines == [jsonl_event_line(e) for e in events]
        assert sink.rows == sum(map(len, by_socket.values())) + len(events)

    def test_a_run_that_raises_keeps_every_line(self, tmp_path):
        # 3 s of a 5 s run, then the raise.
        path = tmp_path / "s.jsonl"
        memory = InMemoryTraceSink()
        with pytest.raises(SimulationError, match="exceeded"):
            _run(
                record_trace=False,
                faults=replace(FAULTS, msr_read_fail_rate=0.3),
                engine_cfg=EngineConfig(max_sim_time_s=3.0),
                trace_sink=CompositeTraceSink(StreamingTraceSink(path), memory),
            )
        samples, events = memory.collected(0), memory.events()
        # Whole chunks went out during the run and a remainder at close.
        assert len(samples) > _CHUNK_LINES and len(samples) % _CHUNK_LINES
        assert events
        socket = SocketResult(
            socket_id=0,
            finish_time_s=3.0,
            package_energy_j=0.0,
            dram_energy_j=0.0,
            trace=samples,
        )
        expected = io.StringIO()
        trace_to_jsonl(socket, expected, events=events)
        assert path.read_text() == expected.getvalue()


class TestRetainingSinkIds:
    """A socket id a retaining sink has no list for is a typed error."""

    @pytest.mark.parametrize(
        "make", [InMemoryTraceSink, lambda: RingBufferTraceSink(capacity=4)]
    )
    @pytest.mark.parametrize(
        "opened, socket_id", [(False, 0), (True, 2), (True, 7), (True, -1)]
    )
    def test_bad_socket_id(self, make, opened, socket_id):
        sink = make()
        if opened:
            sink.open(2)
        with pytest.raises(SimulationError, match=f"socket id {socket_id}\\b"):
            sink.record(socket_id, PLAIN_SAMPLE)
        with pytest.raises(SimulationError, match=f"socket id {socket_id}\\b"):
            sink.record_step(socket_id, *(getattr(PLAIN_SAMPLE, f) for f in FIELDS))
        if opened:
            assert sink.collected(0) == sink.collected(1) == []
            assert getattr(sink, "seen", [0, 0]) == [0, 0]
