"""Command-line interface: regenerate any table/figure or run one app.

Examples::

    python -m repro table1
    python -m repro fig3b --runs 3
    python -m repro sweep --workers 8 --cache .repro-cache
    python -m repro sweep --controller dnpc --controller budget:watts=95
    python -m repro run CG --controller dufp --slowdown 10
    python -m repro run CG --gpus 2 --controller hetero-coord:budget_w=450
    python -m repro run WEB --nodes 2 --node-apps WEB BATCH \
        --controller fleet-demand:budget_w=170
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

``run`` builds one single-run ``RunSpec`` per ``--controller`` (CPU,
``--gpus N`` hetero or ``--nodes N`` cluster) and runs it through the
protocol's engine builder, like one cell of a sweep.

An experiment subcommand takes the protocol flags its runner reads:
``--runs N``; and, for the sweep-backed ones, ``--workers N``
(batch-sharded fan-out over grid cells; results are identical at any
worker count), ``--shard-size N`` (max cells per worker shard) and
``--cache DIR`` (content-addressed result cache: warm reruns and
interrupted sweeps skip already-computed cells; completed shards write
through as the sweep runs).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace

from .config import ControllerConfig, NoiseConfig
from .core.registry import as_spec, describe_policies, make_spec
from .errors import ReproError
from .experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from .sim.export import write_summary_json, write_trace_csv, write_trace_jsonl
from .sim.faults import parse_fault_plan
from .workloads.catalog import application_names

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
    dies, epp, epb, cstates = args.dies, args.epp, args.epb, args.cstates
    if dies == 1 and epp is None and epb is None and not cstates:
        return None
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


#: The protocol options an experiment subcommand may take, as
#: ``add_argument`` keywords.  Each subcommand declares those its
#: registered runner takes as parameters (:func:`_runner_options`).
_PROTOCOL_OPTIONS = {
    "runs": dict(
        type=int, default=10, help="runs per configuration (paper protocol: 10)"
    ),
    "workers": dict(
        type=int,
        default=1,
        help="processes to fan protocol runs over (default: serial)",
    ),
    "cache": dict(
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory",
    ),
    "shard_size": dict(
        type=int,
        default=None,
        metavar="N",
        help=(
            "max grid cells per worker shard (default: auto, one "
            "shard per worker for --engine batch and cluster cells, "
            "~3 per worker for scalar and hetero cells); smaller "
            "shards steal better, larger ones batch better"
        ),
    ),
}

#: Controllers compared when no ``--controller`` is given, per command
#: and per policy scope of the cell kind (``cell_scope``).
_DEFAULT_CONTROLLERS = {
    "sweep": {
        "socket": ("duf", "dufp"),
        "device": ("hetero-coord", "hetero-fair"),
        "node": ("fleet-demand", "fleet-fair"),
    },
    "run": {
        "socket": ("dufp",),
        "device": ("hetero-static", "hetero-coord"),
        "node": ("fleet-static", "fleet-demand"),
    },
}


def _runner_options(exp_id: str) -> list[str]:
    """The protocol options experiment ``exp_id``'s runner reads."""
    params = inspect.signature(EXPERIMENTS[exp_id]).parameters
    return [option for option in _PROTOCOL_OPTIONS if option in params]


def _add_protocol_args(p: argparse.ArgumentParser, options) -> None:
    for option in options:
        p.add_argument(
            "--" + option.replace("_", "-"), **_PROTOCOL_OPTIONS[option]
        )


def _add_cell_args(p: argparse.ArgumentParser, command: str) -> None:
    """Controller, cell-kind, fault and platform flags of ``run``/``sweep``."""
    defaults = {
        scope: " ".join(names)
        for scope, names in _DEFAULT_CONTROLLERS[command].items()
    }
    p.add_argument(
        "--controller",
        action="append",
        default=None,
        metavar="POLICY",
        help=(
            "registered policy, 'name' or 'name:key=val,...' (repeatable; "
            f"see 'repro policies'; default: {defaults['socket']})"
        ),
    )
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="application problem-size scale (CI smoke: 0.3)",
    )
    p.add_argument(
        "--gpus",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run as a CPU+GPU co-simulation with N GPUs under hetero "
            f"budget-split controllers (default controllers: "
            f"{defaults['device']}; see docs/HETERO.md)"
        ),
    )
    p.add_argument(
        "--kernels",
        type=int,
        default=8,
        metavar="N",
        help="GPU kernel-queue length with --gpus (default 8)",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run as an N-node cluster under fleet partitioning "
            f"controllers (default controllers: {defaults['node']}; "
            "see docs/CLUSTER.md)"
        ),
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "seeded fault plan applied to every run, e.g. "
            "'msr_fail=0.01,cap_latch_fail=0.05' (see docs/FAULTS.md)"
        ),
    )
    _add_platform_args(p)


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
        _add_protocol_args(p, _runner_options(exp_id))
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
                "--per-cell",
                action="store_true",
                help="print the per-cell timing/cache table",
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
            _add_cell_args(p, "sweep")

    sub.add_parser("list", help="list applications and experiments")
    sub.add_parser(
        "policies", help="list registered control policies and their parameters"
    )

    p_export = sub.add_parser(
        "export", help="regenerate every table/figure into a directory"
    )
    p_export.add_argument("--out", default="results", help="output directory")
    _add_protocol_args(p_export, _PROTOCOL_OPTIONS)

    p_run = sub.add_parser(
        "run",
        help="run one application once: on one socket, a CPU+GPU node "
        "(--gpus) or a cluster (--nodes)",
    )
    p_run.add_argument(
        "app",
        help=f"one of: {', '.join(application_names())} (or a service "
        "workload: WEB, BATCH)",
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
    _add_cell_args(p_run, "run")
    p_run.add_argument(
        "--node-apps",
        nargs="+",
        default=(),
        metavar="APP",
        help="applications cycled over the --nodes (default: APP on every node)",
    )
    p_run.add_argument(
        "--node-controller",
        default="dufp",
        metavar="POLICY",
        help="per-socket controller stack each node runs (default dufp)",
    )
    p_run.add_argument(
        "--period",
        dest="period_s",
        type=float,
        default=1.0,
        metavar="S",
        help="fleet re-allocation period, simulated seconds (default 1)",
    )
    p_run.add_argument(
        "--sockets",
        dest="sockets_per_node",
        type=int,
        default=1,
        metavar="N",
        help="sockets per cluster node (default 1)",
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
    return parser


def _cell_kind(args: argparse.Namespace):
    """The ``(gpu, cluster)`` RunSpec fields ``--gpus``/``--nodes`` select.

    ``sweep`` has no topology flags, so its cluster cells take the
    :class:`~repro.cluster.spec.ClusterSpec` defaults, which equal the
    defaults of ``run``'s topology flags.
    """
    from .cluster.spec import ClusterSpec
    from .hardware.gpu import GPUNodeConfig

    if args.gpus > 0 and args.nodes > 0:
        raise ReproError("--gpus and --nodes are mutually exclusive")
    topology = {}
    if args.command == "run":
        topology = dict(
            node_apps=tuple(args.node_apps),
            node_controller=args.node_controller,
            sockets_per_node=args.sockets_per_node,
            period_s=args.period_s,
        )
    if args.nodes > 0:
        return None, ClusterSpec(node_count=args.nodes, **topology)
    if ClusterSpec(**topology) != ClusterSpec():
        raise ReproError(
            "--node-apps, --node-controller, --period and --sockets "
            "shape a cluster; pass --nodes N"
        )
    if args.gpus > 0:
        return GPUNodeConfig(gpu_count=args.gpus, kernel_count=args.kernels), None
    return None, None


def _controllers(args: argparse.Namespace, scope: str) -> tuple:
    """The ``--controller`` selections, or the command's defaults."""
    if args.controller:
        return tuple(args.controller)
    return _DEFAULT_CONTROLLERS[args.command][scope]


def _run_single(args: argparse.Namespace) -> str:
    """One run per controller through ``RunSpec`` → ``build_spec_protocol``."""
    from .experiments.executor import RunSpec, build_spec_protocol, cell_scope

    gpu, cluster = _cell_kind(args)
    scope = cell_scope(gpu, cluster)
    controllers = _controllers(args, scope)
    cpu_only = {
        "--cap": args.cap,
        "--trace-csv": args.trace_csv,
        "--trace-jsonl": args.trace_jsonl,
        "--summary-json": args.summary_json,
    }
    used = [flag for flag, value in cpu_only.items() if value is not None]
    if used and scope != "socket":
        raise ReproError(
            f"{', '.join(used)} apply to CPU runs only, not to --gpus or "
            "--nodes runs"
        )
    if used and len(controllers) > 1:
        raise ReproError(f"{', '.join(used)} take one run; pass one --controller")
    if args.cap is not None:
        if controllers != ("static",):
            raise ReproError(
                "--cap is shorthand for --controller static:cap_w=CAP; "
                "pass parameters inline with any other policy"
            )
        controllers = (make_spec("static", cap_w=args.cap),)
    cell = RunSpec(
        app_name=args.app,
        controller=controllers[0],
        controller_cfg=ControllerConfig(tolerated_slowdown=args.slowdown / 100.0),
        runs=1,
        # Cancels the protocol's noise.seed offset: the run uses --seed.
        base_seed=args.seed - NoiseConfig().seed,
        app_scale=args.scale,
        socket=_platform_socket(args),
        record_trace=True,
        faults=parse_fault_plan(args.faults) if args.faults else None,
        gpu=gpu,
        cluster=cluster,
    )
    blocks = []
    for controller in controllers:
        spec = replace(cell, controller=controller)
        spec.validate()
        shell, (engine,) = build_spec_protocol(spec)
        blocks.append(_BLOCKS[scope](args, spec, shell.app_name, engine))
    return "\n".join(blocks)


def _cpu_block(args, spec, app_name, engine) -> str:
    result = engine.run()
    lines = []
    if args.trace_csv:
        rows = write_trace_csv(result, args.trace_csv)
        lines.append(f"wrote {rows} trace rows to {args.trace_csv}")
    if args.trace_jsonl:
        count = write_trace_jsonl(result, args.trace_jsonl)
        lines.append(f"wrote {count} trace lines to {args.trace_jsonl}")
    if args.summary_json:
        write_summary_json(result, args.summary_json)
        lines.append(f"wrote summary to {args.summary_json}")
    sock = result.socket(0)
    lines += [
        f"application        : {result.app_name}",
        f"controller         : {result.controller_name}",
        f"execution time     : {result.execution_time_s:.2f} s",
        f"avg package power  : {result.avg_package_power_w:.1f} W",
        f"avg DRAM power     : {result.avg_dram_power_w:.1f} W",
        f"CPU+DRAM energy    : {result.total_energy_j / 1e3:.2f} kJ",
        f"avg core frequency : {sock.average_core_freq_hz() / 1e9:.2f} GHz",
    ]
    if args.faults:
        lines.append(f"fault events       : {len(result.fault_events)}")
    return "\n".join(lines)


def _hetero_block(args, spec, app_name, engine) -> str:
    result = engine.run()
    _, alloc = result.device_allocations[-1]
    cpu_w, gpu_w = alloc[0], sum(alloc[1:])
    label = spec.controller.label
    return (
        f"  {label:20s} CPU {result.cpu_finish_s:6.2f} s  "
        f"GPU {result.gpu_finish_s:6.2f} s  split {cpu_w:.0f}/{gpu_w:.0f} W\n"
        "HETERO "
        f"app={app_name} scale={args.scale:g} gpus={spec.gpu.gpu_count} "
        f"kernels={spec.gpu.kernel_count} seed={args.seed} "
        f"policy={label} budget_w={engine.policy.budget_w:g} "
        f"makespan_s={result.makespan_s:.4f} "
        f"cpu_finish_s={result.cpu_finish_s:.4f} "
        f"gpu_finish_s={result.gpu_finish_s:.4f} "
        f"cpu_energy_j={result.cpu_energy_j:.1f} "
        f"gpu_energy_j={result.gpu_energy_j:.1f} "
        f"transfer_s={result.transfer_s:.4f}"
    )


def _cluster_block(args, spec, app_name, engine) -> str:
    result = engine.run()
    _, alloc = result.allocations[-1]
    label = spec.controller.label
    makespans = " ".join(f"{m:6.2f}" for m in result.node_makespans_s)
    return (
        f"  {label:20s} nodes [{makespans}] s  "
        f"jain {result.fairness_index:.3f}  "
        f"p99 slowdown {result.p99_slowdown:.3f}\n"
        "CLUSTER "
        f"app={app_name} nodes={spec.cluster.node_count} "
        f"sockets={spec.cluster.sockets_per_node} "
        f"scale={args.scale:g} seed={args.seed} "
        f"policy={label} budget_w={engine.policy.budget_w:g} "
        f"makespan_s={result.makespan_s:.4f} "
        f"energy_j={result.total_energy_j:.1f} "
        f"jain={result.fairness_index:.4f} "
        f"p99_slowdown={result.p99_slowdown:.4f} "
        f"allocs={len(result.allocations)} "
        f"last_alloc_w={'/'.join(f'{a:.0f}' for a in alloc)}"
    )


#: The block ``run`` prints per controller, by policy scope.
_BLOCKS = {"socket": _cpu_block, "device": _hetero_block, "node": _cluster_block}


def _run_sweep(args: argparse.Namespace) -> str:
    from .experiments.executor import cell_scope
    from .experiments.sweep import SWEEP_TOLERANCES_PCT, run_sweep

    gpu, cluster = _cell_kind(args)
    controllers = _controllers(args, cell_scope(gpu, cluster))
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
        elif args.command == "sweep":
            print(_run_sweep(args))
        else:
            options = _runner_options(args.command)
            print(
                run_experiment(
                    args.command, **{o: getattr(args, o) for o in options}
                )
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
