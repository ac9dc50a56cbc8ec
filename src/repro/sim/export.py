"""Result export: CSV traces and JSON summaries.

The paper's figures are time series and per-configuration aggregates;
downstream users will want both in standard formats.  These writers
are deliberately dependency-free (csv/json from the standard library)
and stream — a 400 s trace at 10 ms resolution is 40 k rows.
"""

from __future__ import annotations

import csv
import json
import io
from typing import IO

from ..errors import SimulationError
from .faults import NODE_WIDE, FaultEvent
from .result import RunResult, SocketResult
from .trace import JsonlSampleEncoder, jsonl_event_line, sample_tail

__all__ = [
    "trace_to_csv",
    "write_trace_csv",
    "trace_to_jsonl",
    "write_trace_jsonl",
    "run_summary",
    "write_summary_json",
]

#: Column order of the trace CSV.
TRACE_FIELDS = (
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


def trace_to_csv(socket: SocketResult, stream: IO[str]) -> int:
    """Write one socket's trace as CSV; returns the row count."""
    if not socket.trace:
        raise SimulationError("run recorded no trace (record_trace=False?)")
    writer = csv.writer(stream)
    writer.writerow(TRACE_FIELDS)
    rows = 0
    for s in socket.trace:
        writer.writerow(
            [
                f"{s.time_s:.6f}",
                f"{s.core_freq_hz:.0f}",
                f"{s.uncore_freq_hz:.0f}",
                f"{s.package_power_w:.3f}",
                f"{s.dram_power_w:.3f}",
                f"{s.cap_w:.1f}",
                f"{s.flops_rate:.3e}",
                f"{s.bytes_rate:.3e}",
                "" if s.temperature_c is None else f"{s.temperature_c:.2f}",
            ]
        )
        rows += 1
    return rows


def write_trace_csv(result: RunResult, path: str, socket_id: int = 0) -> int:
    """Write a socket's trace to ``path``; returns the row count."""
    with open(path, "w", newline="") as f:
        return trace_to_csv(result.socket(socket_id), f)


def trace_to_jsonl(
    socket: SocketResult,
    stream: IO[str],
    events: "list[FaultEvent] | None" = None,
) -> int:
    """Write one socket's trace as JSONL; returns the line count.

    Uses the same encoders as the streaming JSONL sink
    (:class:`repro.sim.trace.JsonlSampleEncoder` /
    :func:`repro.sim.trace.jsonl_event_line`), so serialising an
    in-memory trace is byte-identical to having streamed the run:
    samples first, then ``events`` (if given) as one trailing block —
    the same layout :class:`~repro.sim.trace.StreamingTraceSink`
    produces.
    """
    if not socket.trace:
        raise SimulationError("run recorded no trace (record_trace=False?)")
    lines = 0
    encoder = JsonlSampleEncoder()
    for s in socket.trace:
        stream.write(encoder.step_line(socket.socket_id, s.time_s, sample_tail(s)))
        lines += 1
    for event in events or ():
        stream.write(jsonl_event_line(event))
        lines += 1
    return lines


def write_trace_jsonl(result: RunResult, path: str, socket_id: int = 0) -> int:
    """Write a socket's trace to ``path`` as JSONL; returns the line count.

    Fault events concerning the socket (and node-wide ones) are
    appended after the samples, mirroring the streamed-file layout.
    """
    events = [
        e
        for e in result.fault_events
        if e.socket_id in (socket_id, NODE_WIDE)
    ]
    with open(path, "w") as f:
        return trace_to_jsonl(result.socket(socket_id), f, events=events)


def run_summary(result: RunResult) -> dict:
    """A JSON-serialisable summary of one run.

    Fault-injected runs gain a ``fault_events`` list; fault-free runs
    keep the exact historic key set.
    """
    summary = {
        "application": result.app_name,
        "controller": result.controller_name,
        "execution_time_s": result.execution_time_s,
        "avg_package_power_w": result.avg_package_power_w,
        "avg_dram_power_w": result.avg_dram_power_w,
        "package_energy_j": result.package_energy_j,
        "dram_energy_j": result.dram_energy_j,
        "total_energy_j": result.total_energy_j,
        "sockets": [
            {
                "socket_id": s.socket_id,
                "finish_time_s": s.finish_time_s,
                "package_energy_j": s.package_energy_j,
                "dram_energy_j": s.dram_energy_j,
                "avg_core_freq_hz": (
                    s.average_core_freq_hz() if s.trace else None
                ),
                "phases": [
                    {"name": p.name, "start_s": p.start_s, "end_s": p.end_s}
                    for p in s.phases
                ],
            }
            for s in result.sockets
        ],
    }
    if result.fault_events:
        summary["fault_events"] = [
            {
                "time_s": e.time_s,
                "socket_id": e.socket_id,
                "channel": e.channel,
                "detail": e.detail,
            }
            for e in result.fault_events
        ]
    return summary


def write_summary_json(result: RunResult, path: str, *, indent: int = 1) -> None:
    """Write the run summary to ``path`` as JSON."""
    with open(path, "w") as f:
        json.dump(run_summary(result), f, indent=indent)


def trace_csv_string(result: RunResult, socket_id: int = 0) -> str:
    """The trace CSV as a string (convenience for small runs/tests)."""
    buf = io.StringIO()
    trace_to_csv(result.socket(socket_id), buf)
    return buf.getvalue()
