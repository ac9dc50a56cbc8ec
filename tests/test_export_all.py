"""The results-bundle exporter and its CLI subcommands."""

import csv
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import NoiseConfig
from repro.errors import ExperimentError
from repro.experiments.export_all import export_all
from repro.experiments.sweep import run_sweep


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    sweep = run_sweep(apps=["CG", "EP"], tolerances_pct=(0.0, 10.0), runs=2, noise=QUIET)
    manifest = export_all(str(out), runs=2, sweep=sweep, include_scorecard=False)
    return out, manifest


class TestExportAll:
    def test_expected_files_present(self, bundle):
        out, manifest = bundle
        for name in (
            "table1.txt",
            "fig1a.txt",
            "fig1b.txt",
            "fig1c.txt",
            "fig3a.txt",
            "fig3b_bars.txt",
            "fig4.txt",
            "fig5.txt",
            "sweep.csv",
            "INDEX.md",
        ):
            assert (out / name).exists(), name

    def test_index_lists_every_file(self, bundle):
        out, manifest = bundle
        index = (out / "INDEX.md").read_text()
        for name in manifest.files:
            if name != "INDEX.md":
                assert name in index

    def test_sweep_csv_parses(self, bundle):
        out, _ = bundle
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 2 * 2  # apps x controllers x tolerances
        row = rows[0]
        assert row["app"] in ("CG", "EP")
        float(row["slowdown_pct"])
        float(row["package_savings_pct"])

    def test_reports_render_content(self, bundle):
        out, _ = bundle
        assert "Table I" in (out / "table1.txt").read_text()
        assert "CG" in (out / "fig3b.txt").read_text()

    def test_zero_runs_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            export_all(str(tmp_path), runs=0)


class TestHeteroCLI:
    def test_hetero_subcommand(self, capsys):
        argv = ["run", "CG", "--gpus", "1", "--scale", "0.5", "--slowdown", "10"]
        for policy in ("hetero-static", "hetero-coord"):
            argv += ["--controller", f"{policy}:budget_w=300"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hetero-coord-300W" in out and "hetero-static-300W" in out


@pytest.mark.slow
def test_fresh_export_equals_committed_results(tmp_path):
    """The committed ``results/`` bundle is what ``repro export`` writes now."""
    committed = Path(__file__).resolve().parent.parent / "results"
    assert main(["export", "--workers", "2", "--out", str(tmp_path)]) == 0
    fresh = sorted(p.name for p in tmp_path.iterdir())
    assert fresh == sorted(p.name for p in committed.iterdir())
    for name in fresh:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
