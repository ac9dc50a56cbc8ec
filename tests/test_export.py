"""Result export: CSV traces and JSON summaries."""

import csv
import io
import json

import pytest

from repro.config import NoiseConfig
from repro.core.baselines import DefaultController
from repro.errors import SimulationError
from repro.sim.export import (
    TRACE_FIELDS,
    run_summary,
    trace_csv_string,
    trace_to_csv,
    write_summary_json,
    write_trace_csv,
)
from repro.sim.run import run_application
from repro.sim.trace import StreamingTraceSink
from repro.workloads.application import Application
from repro.workloads.phase import phase_from_duration as pfd


QUIET = NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0)


TINY = Application(
    "tiny",
    phases=(
        pfd("a", 0.3, oi=4.0, fpc=2.0),
        pfd("b", 0.2, oi=0.1, fpc=1.0),
    ),
)


@pytest.fixture(scope="module")
def result():
    return run_application(TINY, DefaultController, noise=QUIET, seed=1)


class TestTraceCSV:
    def test_header(self, result):
        text = trace_csv_string(result)
        header = text.splitlines()[0].split(",")
        assert tuple(header) == TRACE_FIELDS

    def test_row_count_matches_trace(self, result):
        text = trace_csv_string(result)
        n_rows = len(text.strip().splitlines()) - 1
        assert n_rows == len(result.socket(0).trace)

    def test_values_parse_back(self, result):
        reader = csv.DictReader(io.StringIO(trace_csv_string(result)))
        rows = list(reader)
        first = rows[0]
        assert float(first["time_s"]) == pytest.approx(0.01)
        assert float(first["core_freq_hz"]) == pytest.approx(2.8e9)
        assert 0 < float(first["package_power_w"]) < 160

    def test_times_monotone(self, result):
        reader = csv.DictReader(io.StringIO(trace_csv_string(result)))
        times = [float(r["time_s"]) for r in reader]
        assert times == sorted(times)

    def test_write_to_file(self, result, tmp_path):
        path = tmp_path / "trace.csv"
        rows = write_trace_csv(result, str(path))
        assert rows > 0
        assert path.read_text().startswith("time_s,")

    def test_traceless_run_rejected(self):
        app = Application("t", phases=(pfd("a", 0.1, oi=1.0, fpc=1.0),))
        run = run_application(
            app, DefaultController, noise=QUIET, record_trace=False
        )
        with pytest.raises(SimulationError):
            trace_csv_string(run)

    def test_equals_streamed_csv_without_socket_column(self, result):
        buf = io.StringIO()
        sink = StreamingTraceSink(buf, fmt="csv")
        run_application(TINY, DefaultController, noise=QUIET, seed=1, trace_sink=sink)
        streamed = buf.getvalue().splitlines(keepends=True)
        assert trace_csv_string(result) == "".join(
            line.split(",", 1)[1] for line in streamed
        )

    def test_returned_count_matches_stream(self, result):
        buf = io.StringIO()
        count = trace_to_csv(result.socket(0), buf)
        assert count == len(buf.getvalue().strip().splitlines()) - 1


class TestSummaryJSON:
    def test_summary_fields(self, result):
        s = run_summary(result)
        assert s["application"] == "tiny"
        assert s["controller"] == "default"
        assert s["execution_time_s"] == pytest.approx(result.execution_time_s)
        assert s["total_energy_j"] == pytest.approx(result.total_energy_j)

    def test_summary_phases(self, result):
        s = run_summary(result)
        names = [p["name"] for p in s["sockets"][0]["phases"]]
        assert names == ["a", "b"]

    def test_summary_is_json_serialisable(self, result):
        text = json.dumps(run_summary(result))
        assert "tiny" in text

    def test_write_to_file(self, result, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(result, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["application"] == "tiny"
        assert loaded["sockets"][0]["avg_core_freq_hz"] > 1e9
