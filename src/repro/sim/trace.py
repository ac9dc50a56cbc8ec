"""Trace sinks: observers of the engine's per-step samples.

The engine used to append every :class:`~repro.sim.result.TraceSample`
to an in-RAM list — fine for one run, ruinous for million-step sweep
cells.  Recording is now an observer protocol: the engine pushes each
sample into a :class:`TraceSink` and never owns the storage policy.
Engines push a step's fields with :meth:`TraceSink.record_step`, which
builds the :class:`~repro.sim.result.TraceSample` only for sinks that
keep one.

* :class:`InMemoryTraceSink` — today's behaviour, byte-for-byte: the
  full per-socket sample lists end up on ``SocketResult.trace``.
* :class:`StreamingTraceSink` — writes JSONL or CSV rows as they are
  produced (JSONL in chunks of lines); RAM stays O(1) regardless of
  run length, and the JSONL content is byte-identical to serialising
  an in-memory trace of the same run (one :class:`JsonlSampleEncoder`
  per stream, whose bytes ``jsonl_sample_line`` defines, serves both).
* :class:`RingBufferTraceSink` — keeps only the last ``capacity``
  samples per socket (bounded post-mortem window).
* :class:`CompositeTraceSink` — fans each sample out to several sinks,
  so "stream to disk *and* keep the tail in RAM" composes freely.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from typing import IO, TYPE_CHECKING

from ..errors import SimulationError
from .result import TraceSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultEvent

__all__ = [
    "TraceSink",
    "InMemoryTraceSink",
    "RingBufferTraceSink",
    "StreamingTraceSink",
    "CompositeTraceSink",
    "JsonlSampleEncoder",
    "jsonl_sample_line",
    "jsonl_event_line",
    "csv_sample_row",
    "CSV_HEADER",
]

#: Column order of streamed CSV rows (socket id + the trace fields).
CSV_HEADER = (
    "socket_id",
    "time_s",
    "core_freq_hz",
    "uncore_freq_hz",
    "package_power_w",
    "dram_power_w",
    "cap_w",
    "flops_rate",
    "bytes_rate",
    "temperature_c",
)


#: ``json.dumps`` of a sample record with compact separators, as a
#: format: ``%r`` of a finite float is exactly the text ``json`` emits.
_SAMPLE_LINE = (
    '{"socket_id":%r,"time_s":%r,"core_freq_hz":%r,"uncore_freq_hz":%r,'
    '"package_power_w":%r,"dram_power_w":%r,"cap_w":%r,"flops_rate":%r,'
    '"bytes_rate":%r,"temperature_c":%s}\n'
)
_FLOAT = frozenset((float,))
#: JSONL lines a streaming sink buffers before one write to its stream.
_CHUNK_LINES = 256


def jsonl_sample_line(socket_id: int, sample: TraceSample) -> str:
    """One JSONL record (with trailing newline) for one trace sample.

    The stateless definition of a sample line's bytes.  The streaming
    sink and the exporter both encode through a
    :class:`JsonlSampleEncoder`, which writes exactly these bytes, so a
    streamed file and a serialised in-memory trace of the same run are
    byte-identical.

    Plain ints and finite floats are formatted directly; any other
    value (NaN, ±inf, a float subclass) falls back to ``json.dumps``,
    whose output the direct form reproduces byte for byte.
    """
    fields = (
        sample.time_s,
        sample.core_freq_hz,
        sample.uncore_freq_hz,
        sample.package_power_w,
        sample.dram_power_w,
        sample.cap_w,
        sample.flops_rate,
        sample.bytes_rate,
    )
    temp = sample.temperature_c
    checked = fields if temp is None else fields + (temp,)
    # A NaN or ±inf makes the sum non-finite (so can an overflow, which
    # merely takes the exact fallback).
    if (
        type(socket_id) is int
        and _FLOAT.issuperset(map(type, checked))
        and math.isfinite(sum(checked))
    ):
        return _SAMPLE_LINE % (
            socket_id,
            *fields,
            "null" if temp is None else repr(temp),
        )
    record = {
        "socket_id": socket_id,
        "time_s": sample.time_s,
        "core_freq_hz": sample.core_freq_hz,
        "uncore_freq_hz": sample.uncore_freq_hz,
        "package_power_w": sample.package_power_w,
        "dram_power_w": sample.dram_power_w,
        "cap_w": sample.cap_w,
        "flops_rate": sample.flops_rate,
        "bytes_rate": sample.bytes_rate,
        "temperature_c": sample.temperature_c,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


#: The part of a sample line before its tail, for a plain int socket
#: id and a finite float time.
_SAMPLE_HEAD = '{"socket_id":%r,"time_s":%r,'
#: Where the tail (the eight fields after ``time_s``) starts in a line.
_TAIL_KEY = '"core_freq_hz":'
#: Exact types a sample's tail may hold to reuse a kept tail; a ``None``
#: can only equal a kept ``None`` temperature.
_TAIL_TYPES = frozenset((float, type(None)))


class JsonlSampleEncoder:
    """:func:`jsonl_sample_line` for one stream, reusing unchanged tails.

    From one 10 ms sample to the next a socket's eight non-time fields
    rarely change, yet formatting their floats is most of a line's
    cost.  Per socket, the encoder keeps the last tail's values and
    their text; a sample whose tail equals them costs only its
    ``socket_id``/``time_s`` head.  Every line is byte-identical to
    :func:`jsonl_sample_line`, which encodes any line not reused.

    Only a tail whose fields are all exactly ``float`` (temperature may
    be ``None``), finite and nonzero is kept, and a sample reuses it
    only when its own fields have those exact types too, with a plain
    ``int`` socket id and a finite float time.  So ``-0.0``/``0.0``
    flips, NaN, ±inf, bools, ints, float subclasses and numpy scalars —
    values that compare equal yet print differently — never reuse a
    tail.  The state is one entry per socket id; :meth:`reset` clears
    it between streams.
    """

    __slots__ = ("_tails",)

    def __init__(self) -> None:
        #: socket id -> (tail values, tail text).
        self._tails: dict[int, tuple[tuple, str]] = {}

    def reset(self) -> None:
        """Forget every socket's last tail."""
        self._tails.clear()

    def line(self, socket_id: int, sample: TraceSample) -> str:
        """One JSONL record for ``sample``, as :func:`jsonl_sample_line`."""
        tail = (
            sample.core_freq_hz,
            sample.uncore_freq_hz,
            sample.package_power_w,
            sample.dram_power_w,
            sample.cap_w,
            sample.flops_rate,
            sample.bytes_rate,
            sample.temperature_c,
        )
        return self.step_line(socket_id, sample.time_s, tail, sample)

    def step_line(
        self,
        socket_id: int,
        time_s: float,
        tail: tuple,
        sample: TraceSample | None = None,
    ) -> str:
        """The line of ``TraceSample(time_s, *tail)``.

        ``tail`` holds the eight fields after ``time_s``.  The sample is
        built only for a line that does not reuse a tail, unless the
        caller passes it as ``sample``.
        """
        if type(socket_id) is int:
            last = self._tails.get(socket_id)
            if (
                last is not None
                and last[0] == tail
                and _TAIL_TYPES.issuperset(map(type, tail))
                and type(time_s) is float
                and math.isfinite(time_s)
            ):
                return _SAMPLE_HEAD % (socket_id, time_s) + last[1]
        if sample is None:
            sample = TraceSample(time_s, *tail)
        line = jsonl_sample_line(socket_id, sample)
        values = tail if tail[-1] is not None else tail[:-1]
        if (
            type(socket_id) is int
            and _FLOAT.issuperset(map(type, values))
            and 0.0 not in values
            and math.isfinite(sum(values))
        ):
            self._tails[socket_id] = (tail, line[line.index(_TAIL_KEY):])
        return line


def jsonl_event_line(event: "FaultEvent") -> str:
    """One JSONL record (with trailing newline) for one fault event.

    Event records carry an ``"event"`` key (sample records never do),
    so mixed trace files stay trivially splittable.  This is the single
    event encoder shared by the streaming sink and the exporter,
    keeping the two byte-identical.
    """
    record = {
        "event": event.channel,
        "time_s": event.time_s,
        "socket_id": event.socket_id,
        "detail": event.detail,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def csv_sample_row(socket_id: int, sample: TraceSample) -> list[str]:
    """One formatted CSV row for one trace sample (see ``CSV_HEADER``)."""
    return [
        str(socket_id),
        f"{sample.time_s:.6f}",
        f"{sample.core_freq_hz:.0f}",
        f"{sample.uncore_freq_hz:.0f}",
        f"{sample.package_power_w:.3f}",
        f"{sample.dram_power_w:.3f}",
        f"{sample.cap_w:.1f}",
        f"{sample.flops_rate:.3e}",
        f"{sample.bytes_rate:.3e}",
        "" if sample.temperature_c is None else f"{sample.temperature_c:.2f}",
    ]


def _no_socket(socket_id: int, socket_count: int) -> SimulationError:
    """The error a retaining sink raises for a socket id it has no list for."""
    if not socket_count:
        return SimulationError(
            f"trace sink used before open() (socket id {socket_id!r})"
        )
    return SimulationError(
        f"trace sink has no socket id {socket_id!r} "
        f"(opened for {socket_count} sockets)"
    )


class TraceSink:
    """Observer of engine trace samples; default hooks are no-ops.

    Lifecycle: the engine calls :meth:`open` once before the first
    sample, :meth:`record_step` (which defaults to :meth:`record` of
    the sample) for every (socket, sample) in simulation order, and
    :meth:`close` exactly once — in a ``finally``, so sinks holding
    file handles are released even when a run raises.
    """

    def open(self, socket_count: int) -> None:
        """Run is starting; ``socket_count`` sockets will report."""

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """One engine-step sample of one socket."""

    def record_step(
        self,
        socket_id: int,
        time_s: float,
        core_freq_hz: float,
        uncore_freq_hz: float,
        package_power_w: float,
        dram_power_w: float,
        cap_w: float,
        flops_rate: float,
        bytes_rate: float,
        temperature_c: float | None = None,
    ) -> None:
        """One engine-step sample given as its fields, in
        :class:`TraceSample` order: exactly ``record(socket_id,
        TraceSample(time_s, ...))``, which is what this default does.

        The engines call this; a sink that needs no sample object (the
        JSONL stream) overrides it and builds none.
        """
        self.record(
            socket_id,
            TraceSample(
                time_s,
                core_freq_hz,
                uncore_freq_hz,
                package_power_w,
                dram_power_w,
                cap_w,
                flops_rate,
                bytes_rate,
                temperature_c,
            ),
        )

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """One injected fault event (``socket_id`` is ``-1`` for
        node-wide faults).  Only fault-injected runs ever call this, so
        sinks on the fault-free path behave exactly as before."""

    def close(self) -> None:
        """Run finished (or aborted); release any resources."""

    def collected(self, socket_id: int) -> list[TraceSample]:
        """Samples this sink retained for ``socket_id`` (may be empty).

        The engine copies these onto ``SocketResult.trace``; streaming
        sinks retain nothing and return the default empty list.
        """
        return []

    def events(self) -> "list[FaultEvent]":
        """Fault events this sink retained, in emission order."""
        return []


class InMemoryTraceSink(TraceSink):
    """Full per-socket sample lists in RAM (the classic behaviour)."""

    def __init__(self) -> None:
        self._traces: list[list[TraceSample]] = []
        self._events: "list[FaultEvent]" = []

    def open(self, socket_count: int) -> None:
        """Allocate one list per socket."""
        self._traces = [[] for _ in range(socket_count)]
        self._events = []

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """Append the sample to its socket's list."""
        if socket_id < 0:
            raise _no_socket(socket_id, len(self._traces))
        try:
            self._traces[socket_id].append(sample)
        except IndexError:
            raise _no_socket(socket_id, len(self._traces)) from None

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Retain the fault event (events are sparse; one flat list)."""
        self._events.append(event)

    def collected(self, socket_id: int) -> list[TraceSample]:
        """The socket's full sample list (the list itself, not a copy)."""
        return self._traces[socket_id]

    def events(self) -> "list[FaultEvent]":
        """All retained fault events, in emission order."""
        return self._events


class RingBufferTraceSink(TraceSink):
    """Bounded window: only the last ``capacity`` samples per socket."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("ring buffer capacity must be at least 1")
        self.capacity = capacity
        self._buffers: list[deque[TraceSample]] = []
        self._events: "deque[FaultEvent]" = deque(maxlen=capacity)
        #: Total samples observed per socket (including evicted ones).
        self.seen: list[int] = []

    def open(self, socket_count: int) -> None:
        """Allocate one bounded deque per socket."""
        self._buffers = [
            deque(maxlen=self.capacity) for _ in range(socket_count)
        ]
        self._events = deque(maxlen=self.capacity)
        self.seen = [0] * socket_count

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """Append, evicting the oldest sample once at capacity."""
        if socket_id < 0:
            raise _no_socket(socket_id, len(self._buffers))
        try:
            self._buffers[socket_id].append(sample)
        except IndexError:
            raise _no_socket(socket_id, len(self._buffers)) from None
        self.seen[socket_id] += 1

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Keep the event tail, bounded by the same capacity."""
        self._events.append(event)

    def collected(self, socket_id: int) -> list[TraceSample]:
        """The retained tail, oldest first."""
        return list(self._buffers[socket_id])

    def events(self) -> "list[FaultEvent]":
        """The retained fault-event tail, oldest first."""
        return list(self._events)


class StreamingTraceSink(TraceSink):
    """Writes each sample straight to a JSONL or CSV stream.

    ``target`` is a path (opened on :meth:`open`, closed on
    :meth:`close`) or an already-open text stream (left open).  RAM use
    is constant in run length; ``rows`` counts what was written.

    JSONL lines are buffered and reach the stream in chunks of
    :data:`_CHUNK_LINES`; :meth:`close` writes what is left before the
    event block, also after a run that raised.  CSV rows go straight
    to the writer.
    """

    FORMATS = ("jsonl", "csv")

    def __init__(self, target: str | os.PathLike | IO[str], fmt: str = "jsonl"):
        if fmt not in self.FORMATS:
            raise SimulationError(
                f"unknown trace format {fmt!r}; expected one of {self.FORMATS}"
            )
        self.fmt = fmt
        self.rows = 0
        self._target = target
        self._stream: IO[str] | None = None
        self._owns_stream = False
        self._csv_writer = None
        self._events: "list[FaultEvent]" = []
        self._encoder = JsonlSampleEncoder()
        #: JSONL lines not yet written to the stream.
        self._lines: list[str] = []

    def open(self, socket_count: int) -> None:
        """Open the target (if a path) and emit the CSV header."""
        self._encoder.reset()
        if hasattr(self._target, "write"):
            self._stream = self._target  # type: ignore[assignment]
        else:
            self._stream = open(self._target, "w", newline="")
            self._owns_stream = True
        if self.fmt == "csv":
            self._csv_writer = csv.writer(self._stream)
            self._csv_writer.writerow(CSV_HEADER)

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """Write one row; nothing is retained in memory."""
        if self._stream is None:
            raise SimulationError("streaming sink used before open()")
        if self.fmt == "jsonl":
            lines = self._lines
            lines.append(self._encoder.line(socket_id, sample))
            if len(lines) >= _CHUNK_LINES:
                self._write_lines()
        else:
            self._csv_writer.writerow(csv_sample_row(socket_id, sample))
        self.rows += 1

    def record_step(
        self,
        socket_id: int,
        time_s: float,
        core_freq_hz: float,
        uncore_freq_hz: float,
        package_power_w: float,
        dram_power_w: float,
        cap_w: float,
        flops_rate: float,
        bytes_rate: float,
        temperature_c: float | None = None,
    ) -> None:
        """Write one row from the step's fields; a JSONL line whose tail
        the encoder reuses builds no :class:`TraceSample`."""
        if self.fmt != "jsonl":
            super().record_step(
                socket_id,
                time_s,
                core_freq_hz,
                uncore_freq_hz,
                package_power_w,
                dram_power_w,
                cap_w,
                flops_rate,
                bytes_rate,
                temperature_c,
            )
            return
        if self._stream is None:
            raise SimulationError("streaming sink used before open()")
        lines = self._lines
        lines.append(
            self._encoder.step_line(
                socket_id,
                time_s,
                (
                    core_freq_hz,
                    uncore_freq_hz,
                    package_power_w,
                    dram_power_w,
                    cap_w,
                    flops_rate,
                    bytes_rate,
                    temperature_c,
                ),
            )
        )
        if len(lines) >= _CHUNK_LINES:
            self._write_lines()
        self.rows += 1

    def _write_lines(self) -> None:
        """Write the buffered JSONL lines to the stream in one call."""
        self._stream.write("".join(self._lines))
        self._lines.clear()

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Buffer the event; the block is written on :meth:`close`.

        Events go out as one trailing block (not interleaved) so a
        streamed file stays byte-identical to exporting the same run's
        in-memory trace followed by its ``fault_events`` — the identity
        the fault-free path has always guaranteed.  CSV streams carry
        samples only; events are JSONL-only records.
        """
        self._events.append(event)

    def close(self) -> None:
        """Flush events + stream; close the stream if this sink opened it."""
        if self._stream is None:
            return
        if self.fmt == "jsonl":
            self._write_lines()
            for event in self._events:
                self._stream.write(jsonl_event_line(event))
                self.rows += 1
        self._events = []
        self._encoder.reset()
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
        self._stream = None
        self._csv_writer = None


class CompositeTraceSink(TraceSink):
    """Fans every event out to several sinks, in order.

    ``collected`` answers from the first child that retained anything,
    so composing a streaming sink with an in-memory (or ring) sink
    still yields populated ``SocketResult.trace`` lists.
    """

    def __init__(self, *sinks: TraceSink):
        if not sinks:
            raise SimulationError("composite sink needs at least one child")
        self.sinks = sinks

    def open(self, socket_count: int) -> None:
        """Open every child."""
        for sink in self.sinks:
            sink.open(socket_count)

    def record(self, socket_id: int, sample: TraceSample) -> None:
        """Record into every child."""
        for sink in self.sinks:
            sink.record(socket_id, sample)

    def record_step(self, socket_id: int, *fields) -> None:
        """Record the step's fields into every child."""
        for sink in self.sinks:
            sink.record_step(socket_id, *fields)

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Record the fault event into every child."""
        for sink in self.sinks:
            sink.record_event(socket_id, event)

    def close(self) -> None:
        """Close every child (later children close even if one raises)."""
        errors: list[Exception] = []
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)
        if errors:
            raise errors[0]

    def collected(self, socket_id: int) -> list[TraceSample]:
        """The first child's non-empty retained samples, if any."""
        for sink in self.sinks:
            samples = sink.collected(socket_id)
            if samples:
                return samples
        return []

    def events(self) -> "list[FaultEvent]":
        """The first child's non-empty retained fault events, if any."""
        for sink in self.sinks:
            events = sink.events()
            if events:
                return events
        return []
