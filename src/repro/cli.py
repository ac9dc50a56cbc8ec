"""Command-line interface: regenerate any table/figure or run one app.

Examples::

    python -m repro table1
    python -m repro fig3b --runs 3
    python -m repro sweep --workers 8 --cache .repro-cache
    python -m repro sweep --controller dnpc --controller budget:watts=95
    python -m repro run CG --controller dufp --slowdown 10
    python -m repro policies
    python -m repro list

Controllers are selected from the policy registry by id, optionally
with parameters: ``--controller budget:watts=95,period_ticks=3``.
``repro policies`` lists every registered policy with its parameters.

``run`` and ``sweep`` also take platform flags (see docs/PLATFORM.md):
``--dies N`` splits the uncore into N independently-clocked dies,
``--epp N``/``--epb N`` set the HWP energy-performance hints, and
``--cstates`` enables the per-core C-state residency model::

    python -m repro run CG --controller governor-powersave --epp 192
    python -m repro sweep --apps CG --controller governor-ondemand --dies 2

Any sweep-backed experiment accepts ``--workers N`` (batch-sharded
fan-out over grid cells; results are identical at any worker count),
``--shard-size N`` (max cells per worker shard) and ``--cache DIR``
(content-addressed result cache: warm reruns and interrupted sweeps
skip already-computed cells; completed shards write through as the
sweep runs).
"""

from __future__ import annotations

import argparse
import sys

from .config import ControllerConfig
from .core.registry import as_spec, describe_policies, make_spec, parse_policy
from .errors import ReproError
from .experiments.registry import experiment_ids, run_experiment
from .sim.export import write_summary_json, write_trace_csv, write_trace_jsonl
from .sim.faults import parse_fault_plan
from .sim.run import run_application
from .workloads.catalog import application_names, build_application

__all__ = ["main", "build_parser"]


def _add_platform_args(p: argparse.ArgumentParser) -> None:
    """Platform-model flags shared by ``run`` and ``sweep``."""
    p.add_argument(
        "--dies",
        type=int,
        default=1,
        metavar="N",
        help=(
            "split the uncore into N independently-clocked dies "
            "(default 1: the legacy single-domain model)"
        ),
    )
    p.add_argument(
        "--epp",
        type=int,
        default=None,
        metavar="HINT",
        help=(
            "HWP energy-performance preference, 0 (performance) to "
            "255 (power); enables the EPB/EPP model"
        ),
    )
    p.add_argument(
        "--epb",
        type=int,
        default=None,
        metavar="HINT",
        help=(
            "IA32_ENERGY_PERF_BIAS, 0 (performance) to 15 (power); "
            "enables the EPB/EPP model"
        ),
    )
    p.add_argument(
        "--cstates",
        action="store_true",
        help="enable the per-core C-state residency model",
    )


def _platform_socket(args: argparse.Namespace):
    """SocketConfig override built from the platform flags, or ``None``.

    ``None`` — all flags at their defaults — keeps every downstream
    digest and trace byte-identical to a CLI that never had the flags.
    """
    dies = getattr(args, "dies", 1)
    epp = getattr(args, "epp", None)
    epb = getattr(args, "epb", None)
    cstates = getattr(args, "cstates", False)
    if dies == 1 and epp is None and epb is None and not cstates:
        return None
    from dataclasses import replace

    from .config import CStateConfig, EPBConfig, SocketConfig

    sock = SocketConfig()
    if dies != 1:
        sock = replace(sock, uncore=replace(sock.uncore, die_count=dies))
    if epp is not None or epb is not None:
        kwargs = {}
        if epp is not None:
            kwargs["epp"] = epp
        if epb is not None:
            kwargs["epb"] = epb
        sock = replace(sock, epb=EPBConfig(**kwargs))
    if cstates:
        sock = replace(sock, cstates=CStateConfig())
    sock.validate()
    return sock


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (one subcommand per experiment)."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Combining Uncore Frequency and Dynamic "
            "Power Capping to Improve Power Savings' (IPDPSW 2022)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    for exp_id in experiment_ids():
        p = sub.add_parser(exp_id, help=f"regenerate experiment {exp_id}")
        p.add_argument(
            "--runs",
            type=int,
            default=10,
            help="runs per configuration (paper protocol: 10)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes to fan protocol runs over (default: serial)",
        )
        p.add_argument(
            "--cache",
            metavar="DIR",
            default=None,
            help="content-addressed result cache directory",
        )
        p.add_argument(
            "--shard-size",
            type=int,
            default=None,
            metavar="N",
            help=(
                "max grid cells per worker shard (default: auto, one "
                "shard per worker for --engine batch and cluster cells, "
                "~3 per worker for scalar and hetero cells); smaller "
                "shards steal better, larger ones batch better"
            ),
        )
        if exp_id == "sweep":
            p.add_argument(
                "--apps",
                nargs="*",
                default=None,
                metavar="APP",
                help="restrict the grid to these applications",
            )
            p.add_argument(
                "--tolerances",
                nargs="*",
                type=float,
                default=None,
                metavar="PCT",
                help="tolerated-slowdown grid, percent (paper: 0 5 10 20)",
            )
            p.add_argument(
                "--scale",
                type=float,
                default=1.0,
                help="application problem-size scale (CI smoke: 0.3)",
            )
            p.add_argument(
                "--per-cell",
                action="store_true",
                help="print the per-cell timing/cache table",
            )
            p.add_argument(
                "--controller",
                action="append",
                default=None,
                metavar="POLICY",
                help=(
                    "registered policy to sweep, 'name' or "
                    "'name:key=val,...' (repeatable; default: duf dufp)"
                ),
            )
            p.add_argument(
                "--faults",
                metavar="SPEC",
                default=None,
                help=(
                    "fault plan applied to every grid cell, e.g. "
                    "'msr_fail=0.01,cap_latch_fail=0.05' "
                    "(see docs/FAULTS.md)"
                ),
            )
            p.add_argument(
                "--engine",
                choices=("scalar", "batch"),
                default="scalar",
                help=(
                    "simulation engine: 'batch' advances all cells in "
                    "vectorized lockstep — identical results, shared "
                    "cache entries (see docs/BATCHING.md)"
                ),
            )
            p.add_argument(
                "--gpus",
                type=int,
                default=0,
                metavar="N",
                help=(
                    "run every grid cell as a CPU+GPU co-simulation "
                    "with N GPUs under hetero budget-split controllers "
                    "(default controllers: hetero-coord hetero-fair; "
                    "see docs/HETERO.md)"
                ),
            )
            p.add_argument(
                "--kernels",
                type=int,
                default=8,
                metavar="N",
                help="GPU kernel-queue length for --gpus sweeps (default 8)",
            )
            p.add_argument(
                "--nodes",
                type=int,
                default=0,
                metavar="N",
                help=(
                    "run every grid cell as an N-node cluster under "
                    "fleet partitioning controllers (default "
                    "controllers: fleet-demand fleet-fair; see "
                    "docs/CLUSTER.md)"
                ),
            )
            _add_platform_args(p)

    p_list = sub.add_parser("list", help="list applications and experiments")

    p_policies = sub.add_parser(
        "policies", help="list registered control policies and their parameters"
    )

    p_export = sub.add_parser(
        "export", help="regenerate every table/figure into a directory"
    )
    p_export.add_argument("--out", default="results", help="output directory")
    p_export.add_argument("--runs", type=int, default=10)
    p_export.add_argument("--workers", type=int, default=1)
    p_export.add_argument("--cache", metavar="DIR", default=None)
    p_export.add_argument("--shard-size", type=int, default=None, metavar="N")

    p_hetero = sub.add_parser(
        "hetero", help="CPU+GPU shared-budget demo (paper §VII future work)"
    )
    p_hetero.add_argument("--budget", type=float, default=300.0)
    p_hetero.add_argument("--slowdown", type=float, default=10.0)
    p_hetero.add_argument(
        "--app",
        default="CG",
        help=f"application on the CPU socket (one of: "
        f"{', '.join(application_names())}; default CG)",
    )
    p_hetero.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="application problem-size scale (default 0.5)",
    )
    p_hetero.add_argument(
        "--kernels",
        type=int,
        default=8,
        metavar="N",
        help="GPU kernel-queue length (default 8)",
    )
    p_hetero.add_argument(
        "--gpus",
        type=int,
        default=1,
        metavar="N",
        help="GPUs sharing the budget (default 1)",
    )
    p_hetero.add_argument(
        "--seed", type=int, default=0, help="run seed (jitter + faults)"
    )
    p_hetero.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="POLICY",
        help=(
            "hetero budget-split policy, 'name' or 'name:key=val,...' "
            "(repeatable; default: compare hetero-static vs hetero-coord "
            "at --budget)"
        ),
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="multi-node fleet power-capping demo (one global budget)",
    )
    p_cluster.add_argument(
        "--nodes", type=int, default=2, metavar="N", help="node count (default 2)"
    )
    p_cluster.add_argument(
        "--budget",
        type=float,
        default=200.0,
        help="global fleet power budget, watts (default 200)",
    )
    p_cluster.add_argument(
        "--apps",
        nargs="*",
        default=None,
        metavar="APP",
        help=(
            "applications cycled over the nodes (default: WEB BATCH — "
            "co-located latency-sensitive + batch traffic)"
        ),
    )
    p_cluster.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="application problem-size scale (default 0.5)",
    )
    p_cluster.add_argument(
        "--slowdown",
        type=float,
        default=10.0,
        help="node-controller tolerated slowdown, percent (default 10)",
    )
    p_cluster.add_argument(
        "--node-controller",
        default="dufp",
        metavar="POLICY",
        help="per-socket controller stack each node runs (default dufp)",
    )
    p_cluster.add_argument(
        "--period",
        type=float,
        default=1.0,
        metavar="S",
        help="fleet re-allocation period, simulated seconds (default 1)",
    )
    p_cluster.add_argument(
        "--sockets",
        type=int,
        default=1,
        metavar="N",
        help="sockets per node (default 1)",
    )
    p_cluster.add_argument(
        "--seed", type=int, default=0, help="run seed (jitter + faults)"
    )
    p_cluster.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="POLICY",
        help=(
            "fleet partitioning policy, 'name' or 'name:key=val,...' "
            "(repeatable; default: compare fleet-static vs fleet-demand "
            "at --budget)"
        ),
    )

    p_run = sub.add_parser("run", help="run one application once")
    p_run.add_argument("app", help=f"one of: {', '.join(application_names())}")
    p_run.add_argument(
        "--controller",
        default="dufp",
        metavar="POLICY",
        help=(
            "registered policy, 'name' or 'name:key=val,...' "
            "(see 'repro policies'; default: dufp)"
        ),
    )
    p_run.add_argument(
        "--slowdown",
        type=float,
        default=5.0,
        help="tolerated slowdown, percent (default 5)",
    )
    p_run.add_argument(
        "--cap",
        type=float,
        default=None,
        help="shorthand for --controller static:cap_w=CAP",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "seeded fault plan, e.g. 'msr_fail=0.01,cap_latch_fail=0.05' "
            "(see docs/FAULTS.md)"
        ),
    )
    p_run.add_argument(
        "--trace-csv",
        metavar="PATH",
        help="write the socket-0 trace (10 ms samples) to a CSV file",
    )
    p_run.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="write the socket-0 trace to a JSONL file",
    )
    p_run.add_argument(
        "--summary-json",
        metavar="PATH",
        help="write the run summary (times, energies, phases) to JSON",
    )
    _add_platform_args(p_run)
    _ = p_list
    _ = p_policies
    return parser


def _run_single(args: argparse.Namespace) -> str:
    cfg = ControllerConfig(tolerated_slowdown=args.slowdown / 100.0)
    spec = parse_policy(args.controller)
    if args.cap is not None:
        if spec.name != "static" or args.controller != "static":
            raise ReproError(
                "--cap is shorthand for --controller static:cap_w=CAP; "
                "pass parameters inline with any other policy"
            )
        spec = make_spec("static", cap_w=args.cap)
    socket = _platform_socket(args)
    app = build_application(args.app, socket=socket)
    faults = parse_fault_plan(args.faults) if args.faults else None
    machine = None
    if socket is not None:
        from .hardware.topology import MachineConfig
        from .sim.machine import SimulatedMachine

        machine = SimulatedMachine(MachineConfig(socket=socket, socket_count=1))
    result = run_application(
        app,
        spec.build(cfg),
        controller_cfg=cfg,
        machine=machine,
        seed=args.seed,
        faults=faults,
    )
    if args.trace_csv:
        rows = write_trace_csv(result, args.trace_csv)
        print(f"wrote {rows} trace rows to {args.trace_csv}")
    if args.trace_jsonl:
        lines_out = write_trace_jsonl(result, args.trace_jsonl)
        print(f"wrote {lines_out} trace lines to {args.trace_jsonl}")
    if args.summary_json:
        write_summary_json(result, args.summary_json)
        print(f"wrote summary to {args.summary_json}")
    sock = result.socket(0)
    lines = [
        f"application        : {result.app_name}",
        f"controller         : {result.controller_name}",
        f"execution time     : {result.execution_time_s:.2f} s",
        f"avg package power  : {result.avg_package_power_w:.1f} W",
        f"avg DRAM power     : {result.avg_dram_power_w:.1f} W",
        f"CPU+DRAM energy    : {result.total_energy_j / 1e3:.2f} kJ",
        f"avg core frequency : {sock.average_core_freq_hz() / 1e9:.2f} GHz",
    ]
    if faults is not None:
        lines.append(f"fault events       : {len(result.fault_events)}")
    return "\n".join(lines)


def _run_sweep(args: argparse.Namespace) -> str:
    from .experiments.sweep import SWEEP_TOLERANCES_PCT, run_sweep

    gpu = None
    cluster = None
    if args.gpus > 0 and args.nodes > 0:
        raise ReproError("--gpus and --nodes are mutually exclusive")
    if args.gpus > 0:
        from .hardware.gpu import GPUNodeConfig

        gpu = GPUNodeConfig(gpu_count=args.gpus, kernel_count=args.kernels)
        default_controllers = ("hetero-coord", "hetero-fair")
    elif args.nodes > 0:
        from .cluster.spec import ClusterSpec

        cluster = ClusterSpec(node_count=args.nodes)
        default_controllers = ("fleet-demand", "fleet-fair")
    else:
        default_controllers = ("duf", "dufp")
    controllers = (
        tuple(args.controller) if args.controller else default_controllers
    )
    sweep = run_sweep(
        apps=args.apps,
        tolerances_pct=args.tolerances or SWEEP_TOLERANCES_PCT,
        runs=args.runs,
        controllers=controllers,
        app_scale=args.scale,
        faults=parse_fault_plan(args.faults) if args.faults else None,
        engine=args.engine,
        gpu=gpu,
        cluster=cluster,
        socket=_platform_socket(args),
        workers=args.workers,
        cache=args.cache,
        shard_size=args.shard_size,
    )
    lines = [sweep.render()]
    for label in (as_spec(c).label for c in controllers):
        within, total = sweep.respected_count(label)
        lines.append(
            f"{label} tolerance respected in {within}/{total} configurations"
        )
    lines.append(sweep.execution.render(per_cell=args.per_cell))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "list":
            print("applications:", ", ".join(application_names()))
            print("experiments :", ", ".join(experiment_ids()))
        elif args.command == "policies":
            print(describe_policies())
        elif args.command == "run":
            print(_run_single(args))
        elif args.command == "export":
            from .experiments.export_all import export_all

            manifest = export_all(
                args.out,
                runs=args.runs,
                workers=args.workers,
                cache=args.cache,
                shard_size=args.shard_size,
            )
            print(f"wrote {len(manifest.files)} files to {manifest.out_dir}/")
        elif args.command == "hetero":
            print(_run_hetero(args))
        elif args.command == "cluster":
            print(_run_cluster(args))
        elif args.command == "sweep":
            print(_run_sweep(args))
        else:
            print(
                run_experiment(
                    args.command,
                    runs=args.runs,
                    workers=args.workers,
                    cache=args.cache,
                    shard_size=args.shard_size,
                )
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_hetero(args: argparse.Namespace) -> str:
    from .core.registry import split_policy
    from .hardware.gpu import GPUNodeConfig
    from .sim.hetero import HeteroEngine

    cfg = ControllerConfig(tolerated_slowdown=args.slowdown / 100.0)
    app = build_application(args.app, scale=args.scale)
    node = GPUNodeConfig(gpu_count=args.gpus, kernel_count=args.kernels)
    node.validate()
    if args.policy:
        policies = [parse_policy(p) for p in args.policy]
        display = {p.label: p.label for p in policies}
    else:
        # The classic demo: the naive operator split vs the paper's
        # coordinated one, both at --budget.
        policies = [
            make_spec("hetero-static", budget_w=args.budget),
            make_spec("hetero-coord", budget_w=args.budget),
        ]
        display = {
            policies[0].label: "static 50/50",
            policies[1].label: "coordinated",
        }
    lines = [
        f"shared budget {args.budget:.0f} W, tolerance "
        f"{args.slowdown:.0f} %, {args.gpus} GPU(s), "
        f"{args.kernels} kernels, app {app.name} x{args.scale:g}"
    ]
    summaries = []
    for spec in policies:
        split = split_policy(spec, cfg, scope="device")
        result = HeteroEngine(
            application=app,
            node=node,
            policy=split,
            cfg=cfg,
            seed=args.seed,
        ).run()
        _, alloc = result.device_allocations[-1]
        cpu_w, gpu_w = alloc[0], sum(alloc[1:])
        label = display[spec.label]
        lines.append(
            f"  {label:20s} CPU {result.cpu_finish_s:6.2f} s  "
            f"GPU {result.gpu_finish_s:6.2f} s  split {cpu_w:.0f}/{gpu_w:.0f} W"
        )
        summaries.append(
            "HETERO "
            f"app={app.name} scale={args.scale:g} gpus={args.gpus} "
            f"kernels={args.kernels} seed={args.seed} "
            f"policy={spec.label} budget_w={split.budget_w:g} "
            f"makespan_s={result.makespan_s:.4f} "
            f"cpu_finish_s={result.cpu_finish_s:.4f} "
            f"gpu_finish_s={result.gpu_finish_s:.4f} "
            f"cpu_energy_j={result.cpu_energy_j:.1f} "
            f"gpu_energy_j={result.gpu_energy_j:.1f} "
            f"transfer_s={result.transfer_s:.4f}"
        )
    return "\n".join(lines + summaries)


def _run_cluster(args: argparse.Namespace) -> str:
    from .cluster import ClusterEngine, ClusterSpec
    from .core.registry import split_policy

    cfg = ControllerConfig(tolerated_slowdown=args.slowdown / 100.0)
    app_names = tuple(
        a.upper() for a in (args.apps if args.apps else ("WEB", "BATCH"))
    )
    cluster = ClusterSpec(
        node_count=args.nodes,
        node_apps=app_names,
        node_controller=args.node_controller,
        sockets_per_node=args.sockets,
        period_s=args.period,
    )
    cluster.validate()
    apps = [
        build_application(cluster.app_for(i, app_names[0]), scale=args.scale)
        for i in range(args.nodes)
    ]
    if args.policy:
        policies = [parse_policy(p) for p in args.policy]
        display = {p.label: p.label for p in policies}
    else:
        # The classic demo: the never-revisited equal split vs the
        # demand-driven water-filling partition, both at --budget.
        policies = [
            make_spec("fleet-static", budget_w=args.budget),
            make_spec("fleet-demand", budget_w=args.budget),
        ]
        display = {
            policies[0].label: "static equal share",
            policies[1].label: "demand-driven",
        }
    lines = [
        f"fleet budget {args.budget:.0f} W over {args.nodes} node(s) x "
        f"{args.sockets} socket(s), tolerance {args.slowdown:.0f} %, "
        f"period {args.period:g} s, apps {'+'.join(dict.fromkeys(app_names))} "
        f"x{args.scale:g}"
    ]
    summaries = []
    for spec in policies:
        fleet = split_policy(spec, cfg, scope="node")
        result = ClusterEngine(
            applications=apps,
            cluster=cluster,
            policy=fleet,
            controller_cfg=cfg,
            seed=args.seed,
        ).run()
        _, alloc = result.allocations[-1]
        label = display[spec.label]
        makespans = " ".join(f"{m:6.2f}" for m in result.node_makespans_s)
        lines.append(
            f"  {label:20s} nodes [{makespans}] s  "
            f"jain {result.fairness_index:.3f}  "
            f"p99 slowdown {result.p99_slowdown:.3f}"
        )
        summaries.append(
            "CLUSTER "
            f"app={'+'.join(dict.fromkeys(a.name for a in apps))} "
            f"nodes={args.nodes} sockets={args.sockets} "
            f"scale={args.scale:g} seed={args.seed} "
            f"policy={spec.label} budget_w={fleet.budget_w:g} "
            f"makespan_s={result.makespan_s:.4f} "
            f"energy_j={result.total_energy_j:.1f} "
            f"jain={result.fairness_index:.4f} "
            f"p99_slowdown={result.p99_slowdown:.4f} "
            f"allocs={len(result.allocations)} "
            f"last_alloc_w={'/'.join(f'{a:.0f}' for a in alloc)}"
        )
    return "\n".join(lines + summaries)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
