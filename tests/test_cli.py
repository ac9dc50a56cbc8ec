"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.cluster import ClusterEngine, ClusterSpec
from repro.config import ControllerConfig, NoiseConfig
from repro.core.registry import as_spec, split_policy
from repro.experiments.executor import RunSpec, build_spec_protocol
from repro.experiments.registry import experiment_ids
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.export import write_summary_json, write_trace_jsonl
from repro.sim.run import run_application
from repro.workloads.catalog import build_application

#: The protocol flags each experiment subcommand declares: those its
#: runner reads (the rest take all four).
EXPERIMENT_FLAGS = {
    "table1": set(),
    "fig5": set(),
    "fig1a": {"runs"},
    "fig1b": {"runs"},
    "fig1c": {"runs"},
    "sensitivity": {"workers", "cache", "shard_size"},
}
PROTOCOL_FLAGS = {"runs", "workers", "cache", "shard_size"}


def summary_fields(out: str, kind: str) -> dict:
    """The ``key=value`` fields of the one ``KIND ...`` line in ``out``."""
    (line,) = [ln for ln in out.splitlines() if ln.startswith(kind + " ")]
    return dict(field.split("=", 1) for field in line.split()[1:])


class TestParser:
    def test_experiment_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"

    def test_runs_flag(self):
        args = build_parser().parse_args(["fig3a", "--runs", "3"])
        assert args.runs == 3

    def test_run_subcommand(self):
        args = build_parser().parse_args(
            ["run", "CG", "--controller", "duf", "--slowdown", "20"]
        )
        assert args.app == "CG"
        assert args.controller == ["duf"]
        assert args.slowdown == 20.0

    def test_bad_controller_rejected(self, capsys):
        # Unknown policies now fail at registry resolution, not argparse.
        assert main(["run", "CG", "--controller", "magic"]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "magic" in err

    def test_sweep_controller_flag(self):
        args = build_parser().parse_args(
            ["sweep", "--controller", "dnpc", "--controller", "budget:watts=95"]
        )
        assert args.controller == ["dnpc", "budget:watts=95"]

    def test_experiments_declare_only_the_flags_their_runner_reads(self):
        parser = build_parser()
        for exp_id in experiment_ids():
            declared = set()
            for flag in ("runs", "workers", "cache", "shard-size"):
                try:
                    parser.parse_args([exp_id, f"--{flag}", "2"])
                except SystemExit:
                    continue
                declared.add(flag.replace("-", "_"))
            assert declared == EXPERIMENT_FLAGS.get(exp_id, PROTOCOL_FLAGS), exp_id

    def test_ignored_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_and_cache_flags(self):
        args = build_parser().parse_args(
            ["fig3a", "--workers", "4", "--cache", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.cache == "/tmp/c"

    def test_sweep_grid_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--apps", "CG", "EP",
                "--tolerances", "0", "10",
                "--scale", "0.5",
                "--workers", "2",
            ]
        )
        assert args.apps == ["CG", "EP"]
        assert args.tolerances == [0.0, 10.0]
        assert args.scale == 0.5


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CG" in out and "fig3a" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert main(["run", "EP", "--controller", "default"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "avg package power" in out

    def test_run_dufp(self, capsys):
        assert main(["run", "CG", "--controller", "dufp", "--slowdown", "10"]) == 0
        assert "dufp" in capsys.readouterr().out

    def test_run_static_cap(self, capsys):
        assert main(
            ["run", "EP", "--controller", "static", "--cap", "100"]
        ) == 0
        assert "static-100W" in capsys.readouterr().out

    def test_unknown_app_is_clean_error(self, capsys):
        assert main(["run", "NOPE"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_reduced_grid(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--apps", "EP",
            "--tolerances", "0",
            "--runs", "1",
            "--scale", "0.2",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 3 of 3" in out  # default + duf + dufp
        assert main(argv) == 0  # warm rerun: everything cached
        assert "executed 0 of 3" in capsys.readouterr().out

    def test_gpus_with_nodes_rejected_by_run_and_sweep(self, capsys):
        for command in (["run", "EP"], ["sweep", "--apps", "EP"]):
            assert main(command + ["--gpus", "1", "--nodes", "2"]) == 1
            assert "mutually exclusive" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out


class TestSingleRun:
    """``repro run`` runs one ``RunSpec`` cell per controller, any kind."""

    def test_cpu_run_equals_run_application(self, capsys, tmp_path):
        cli_jsonl, cli_json = tmp_path / "cli.jsonl", tmp_path / "cli.json"
        argv = ["run", "CG", "--controller", "dufp", "--slowdown", "10"]
        argv += ["--scale", "0.3", "--seed", "5"]
        argv += ["--trace-jsonl", str(cli_jsonl), "--summary-json", str(cli_json)]
        assert main(argv) == 0
        out = capsys.readouterr().out

        cfg = ControllerConfig(tolerated_slowdown=0.10)
        result = run_application(
            build_application("CG", scale=0.3),
            as_spec("dufp").build(cfg),
            controller_cfg=cfg,
            seed=5,
        )
        lines = write_trace_jsonl(result, str(tmp_path / "direct.jsonl"))
        write_summary_json(result, str(tmp_path / "direct.json"))
        assert cli_jsonl.read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
        assert cli_json.read_bytes() == (tmp_path / "direct.json").read_bytes()
        freq_ghz = result.socket(0).average_core_freq_hz() / 1e9
        assert out.splitlines() == [
            f"wrote {lines} trace lines to {cli_jsonl}",
            f"wrote summary to {cli_json}",
            "application        : CG",
            "controller         : dufp",
            f"execution time     : {result.execution_time_s:.2f} s",
            f"avg package power  : {result.avg_package_power_w:.1f} W",
            f"avg DRAM power     : {result.avg_dram_power_w:.1f} W",
            f"CPU+DRAM energy    : {result.total_energy_j / 1e3:.2f} kJ",
            f"avg core frequency : {freq_ghz:.2f} GHz",
        ]

    def test_cluster_line_equals_cluster_engine(self, capsys):
        argv = ["run", "WEB", "--nodes", "2", "--node-apps", "WEB", "BATCH"]
        argv += ["--slowdown", "10", "--scale", "0.2", "--seed", "7"]
        argv += ["--controller", "fleet-demand:budget_w=170"]
        assert main(argv) == 0
        fields = summary_fields(capsys.readouterr().out, "CLUSTER")

        cfg = ControllerConfig(tolerated_slowdown=0.10)
        result = ClusterEngine(
            applications=[
                build_application(name, scale=0.2) for name in ("WEB", "BATCH")
            ],
            cluster=ClusterSpec(node_count=2, node_apps=("WEB", "BATCH")),
            policy=split_policy("fleet-demand:budget_w=170", cfg, scope="node"),
            controller_cfg=cfg,
            seed=7,
        ).run()
        _, alloc = result.allocations[-1]
        assert fields == {
            "app": "WEB+BATCH",
            "nodes": "2",
            "sockets": "1",
            "scale": "0.2",
            "seed": "7",
            "policy": "fleet-demand-170W",
            "budget_w": "170",
            "makespan_s": f"{result.makespan_s:.4f}",
            "energy_j": f"{result.total_energy_j:.1f}",
            "jain": f"{result.fairness_index:.4f}",
            "p99_slowdown": f"{result.p99_slowdown:.4f}",
            "allocs": str(len(result.allocations)),
            "last_alloc_w": "/".join(f"{a:.0f}" for a in alloc),
        }

    def test_hetero_line_equals_spec_engine(self, capsys):
        argv = ["run", "CG", "--gpus", "2", "--kernels", "4", "--scale", "0.3"]
        argv += ["--slowdown", "10", "--seed", "7"]
        argv += ["--controller", "hetero-coord:budget_w=450"]
        assert main(argv) == 0
        fields = summary_fields(capsys.readouterr().out, "HETERO")

        spec = RunSpec(
            app_name="CG",
            controller="hetero-coord:budget_w=450",
            controller_cfg=ControllerConfig(tolerated_slowdown=0.10),
            runs=1,
            base_seed=7 - NoiseConfig().seed,
            app_scale=0.3,
            gpu=GPUNodeConfig(gpu_count=2, kernel_count=4),
        )
        _, (engine,) = build_spec_protocol(spec)
        result = engine.run()
        assert fields == {
            "app": "CG",
            "scale": "0.3",
            "gpus": "2",
            "kernels": "4",
            "seed": "7",
            "policy": "hetero-coord-450W",
            "budget_w": "450",
            "makespan_s": f"{result.makespan_s:.4f}",
            "cpu_finish_s": f"{result.cpu_finish_s:.4f}",
            "gpu_finish_s": f"{result.gpu_finish_s:.4f}",
            "cpu_energy_j": f"{result.cpu_energy_j:.1f}",
            "gpu_energy_j": f"{result.gpu_energy_j:.1f}",
            "transfer_s": f"{result.transfer_s:.4f}",
        }

    def test_default_controllers_per_kind(self, capsys):
        argv = ["run", "CG", "--gpus", "1", "--kernels", "2", "--scale", "0.2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "policy=hetero-static-" in out and "policy=hetero-coord-" in out
        assert main(["run", "EP", "--nodes", "2", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "policy=fleet-static-250W" in out and "policy=fleet-demand-250W" in out

    def test_scope_error_names_the_cell_kind(self, capsys):
        assert main(["run", "CG", "--gpus", "1", "--controller", "dufp"]) == 1
        assert "runs on CPU-only cells" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cap", "100"],
            ["--trace-csv", "t.csv"],
            ["--trace-jsonl", "t.jsonl"],
            ["--summary-json", "s.json"],
        ],
    )
    def test_cpu_only_flags_rejected_on_other_kinds(
        self, capsys, flags, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for kind in (["--gpus", "1"], ["--nodes", "2"]):
            assert main(["run", "CG", *kind, *flags]) == 1
            assert "CPU runs only" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_topology_flags_need_nodes(self, capsys):
        assert main(["run", "CG", "--node-apps", "EP"]) == 1
        assert "--nodes" in capsys.readouterr().err
