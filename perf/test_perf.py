"""Self-test of the benchmark: ``python -m pytest perf -q`` (under a minute).

Runs every workload once at ``--quick`` size, traced and untraced, and
checks the report schema, the digest equalities, that tracing leaves
results bit-identical, the one-line result the command ends with, and
the comparison tool.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
from spans import LAYER_METRICS, RESULT_LAYER_METRICS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick traced run of every workload: its result line and report."""
    out = tmp_path_factory.mktemp("traced")
    proc = run_bench("--quick", "--reps", "1", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, json.loads((out / "report.json").read_text()), out


def test_result_line(traced):
    result, _, _ = traced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for w in WORKLOADS:
        for m in BENCHMARK["per_layer"]:
            entry = result["metrics"][f"{w}/{m['name']}"]
            assert entry["unit"] == m["unit"]


def test_report_schema(traced):
    _, report, out = traced
    assert report["correct"] is True and report["checks"] == []
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, w in report["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0
        assert w["cells"] and w["digest"]
        for metric in BENCHMARK["end_to_end"]:
            s = w["end_to_end"][metric["name"]]
            assert (s["unit"], s["better"], s["bound"]) == (
                metric["unit"],
                metric["better"],
                metric["bound"],
            )
        for s in w["end_to_end"].values():
            assert s["unit"] and isinstance(s["bound"], float)
            assert s["min"] <= s["q1"] <= s["value"] <= s["q3"] <= s["max"]
            assert s["n"] == len(s["samples"])
        assert set(w["per_layer"]) == set(LAYER_METRICS)
        for s in w["per_layer"].values():
            assert s["unit"] and "bound" in s
        assert (out / f"{name}.spans.jsonl").is_file()


def test_benchmark_json_lists_the_result_layer_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(RESULT_LAYER_METRICS)
    assert [(m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        LAYER_METRICS[m] for m in RESULT_LAYER_METRICS
    ]


def test_digest_equalities(traced):
    _, report, _ = traced
    w = report["workloads"]
    assert w["sharded_cache"]["cells"] == w["paper_grid_batch"]["cells"]
    assert w["sharded_cache"]["digest"] == w["paper_grid_batch"]["digest"]


def test_trace_leaves_results_bit_identical(traced):
    _, report, _ = traced
    for w in report["workloads"].values():
        assert w["traced_digest"] == w["digest"]


def test_spans_attribute_single_process_wall(traced):
    _, report, out = traced
    for name in ("paper_grid_batch", "traced_scalar", "fleet_hetero"):
        assert report["workloads"][name]["per_layer"]["attributed_frac"]["value"] >= 0.8
    first = json.loads((out / "traced_scalar.spans.jsonl").open().readline())
    assert set(first) == {"layer", "start_ns", "end_ns", "parent"}


def test_single_workload_run_reports_end_to_end_metrics(tmp_path):
    proc = run_bench(
        "--quick", "--workload", "traced_scalar", "--seed", "3",
        "--seconds", "0.1", "--trace", "0", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(
        "--workload", "paper_grid_batch", "--seed", "0", "--seconds", "10",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts(traced, capsys):
    _, report, out = traced
    path = out / "report.json"
    assert compare.main([str(path), str(path)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) > 1
    assert all(r.endswith(("within bound", "unresolved")) for r in table[1:])

    def summary(samples, bound=0.1, better="lower"):
        xs = sorted(samples)
        return {"value": xs[len(xs) // 2], "q1": xs[0], "q3": xs[-1],
                "samples": xs, "bound": bound, "better": better}

    base = summary([1.0, 1.01, 1.02])
    assert compare.verdict(base, summary([1.3, 1.31, 1.32])) == "worse"
    assert compare.verdict(base, summary([0.8, 0.81, 0.82])) == "better"
    assert compare.verdict(base, summary([1.05, 1.06, 1.07])) == "within bound"
    noisy = summary([0.5, 1.0, 1.5])
    assert compare.verdict(noisy, summary([1.0, 1.1, 1.2])) == "unresolved"
    assert compare.verdict(noisy, summary([0.1, 0.2, 0.3])) == "better"
    assert compare.verdict(summary([0.0], 0.0), summary([0.01], 0.0)) == "worse"
