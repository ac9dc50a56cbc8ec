"""Golden-trace regression: a pinned fault-injected run, byte for byte.

The committed reference (``tests/data/golden_dufp_trace.jsonl``) locks
down the full stack at once — sample encoding, event encoding, fault
draw order, the injector's RNG stream, controller decisions and the
hardening paths they exercise.  An unintentional change to any of them
shows up as a byte diff here.  Intentional changes regenerate the file:

    PYTHONPATH=src python scripts/regen_golden_trace.py
"""

import pytest

import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_dufp_trace.jsonl"
GOLDEN_POWERSAVE = (
    pathlib.Path(__file__).parent / "data" / "golden_powersave_trace.jsonl"
)
GOLDEN_HETERO = pathlib.Path(__file__).parent / "data" / "golden_hetero_trace.jsonl"

# The regeneration script owns the pinned scenarios; import it so the
# test and the regenerator can never drift apart.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from regen_golden_trace import (  # noqa: E402
    golden_hetero_run,
    golden_powersave_run,
    golden_run,
)

from repro.sim.export import write_trace_jsonl  # noqa: E402
from repro.sim.trace import StreamingTraceSink  # noqa: E402

# Golden byte-for-byte regressions: tier 2 (`pytest -m slow`).
pytestmark = pytest.mark.slow


def test_golden_trace_is_byte_identical(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    write_trace_jsonl(golden_run(), str(fresh))
    assert fresh.read_bytes() == GOLDEN.read_bytes(), (
        "fault-injected DUFP trace diverged from the golden reference; "
        "if intentional, regenerate with scripts/regen_golden_trace.py"
    )


def test_golden_trace_contains_fault_events():
    lines = GOLDEN.read_text().splitlines()
    events = [json.loads(line) for line in lines if '"event"' in line]
    assert events, "the pinned scenario must actually inject faults"
    channels = {e["event"] for e in events}
    assert "cap_latch_fail" in channels
    # Events form one trailing block after the samples.
    first_event = next(i for i, line in enumerate(lines) if '"event"' in line)
    assert all('"event"' in line for line in lines[first_event:])
    assert all('"event"' not in line for line in lines[:first_event])


def test_golden_samples_are_well_formed():
    for line in GOLDEN.read_text().splitlines():
        record = json.loads(line)
        if "event" in record:
            assert set(record) == {"event", "time_s", "socket_id", "detail"}
        else:
            assert record["socket_id"] == 0
            assert record["time_s"] > 0


def test_golden_powersave_trace_is_byte_identical(tmp_path):
    """The powersave-governor platform run, byte for byte.

    This one locks down the new platform layers at once: the
    governor's PERF_CTL actuation, the EPP-biased operating point, the
    C-state idle-power path, phase idleness plumbing, and the
    ``cstate_rollover`` fault channel's draw order and event encoding.
    """
    fresh = tmp_path / "fresh.jsonl"
    write_trace_jsonl(golden_powersave_run(), str(fresh))
    assert fresh.read_bytes() == GOLDEN_POWERSAVE.read_bytes(), (
        "powersave-governor platform trace diverged from the golden "
        "reference; if intentional, regenerate with "
        "scripts/regen_golden_trace.py"
    )


def test_golden_powersave_trace_shape():
    lines = GOLDEN_POWERSAVE.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    events = [r for r in records if "event" in r]
    samples = [r for r in records if "event" not in r]
    assert {e["event"] for e in events} == {"cstate_rollover"}
    # The EPP-192 hint pins powersave well below the 2.8 GHz ceiling.
    assert samples, "the pinned scenario records trace samples"
    assert all(s["core_freq_hz"] < 2.0e9 for s in samples)


def test_golden_hetero_trace_is_byte_identical(tmp_path):
    """The coordinated CPU + 2-GPU run, byte for byte.

    Locks down the budget-split layer end to end: the demand/offer
    re-split cadence and arithmetic, per-device trace socket ids, the
    hetero jitter stream and the GPU latch/stall fault draw order.
    """
    fresh = tmp_path / "fresh.jsonl"
    golden_hetero_run(StreamingTraceSink(fresh))
    assert fresh.read_bytes() == GOLDEN_HETERO.read_bytes(), (
        "hetero trace diverged from the golden reference; if "
        "intentional, regenerate with scripts/regen_golden_trace.py"
    )


def test_golden_hetero_trace_shape():
    records = [json.loads(line) for line in GOLDEN_HETERO.read_text().splitlines()]
    samples = [r for r in records if "event" not in r]
    events = [r for r in records if "event" in r]
    assert {s["socket_id"] for s in samples} == {0, 1, 2}
    assert {"cap_latch_fail", "gpu_cap_latch_fail", "gpu_stall"} <= {
        e["event"] for e in events
    }
    # The split moves: the CPU cap takes more than one value.
    assert len({s["cap_w"] for s in samples if s["socket_id"] == 0}) > 1
    kinds = ["event" in r for r in records]
    assert kinds == sorted(kinds)
