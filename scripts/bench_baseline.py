"""Scalar-vs-batch throughput baselines and regression gate.

Times two *locked* sweep compositions — every cell a full application
run — through both execution engines and records the result in
``BENCH_simulator.json`` at the repository root:

    PYTHONPATH=src python scripts/bench_baseline.py --write   # refresh
    PYTHONPATH=src python scripts/bench_baseline.py --check   # CI gate

The compositions exercise the regimes the batch engine and the
sharded scheduler must win:

* ``cells64`` — 8 applications x {duf, dufp} x 4 tolerances, one seed
  per cell, full scale: the original sweep-sized workload;
* ``cells1024`` — the same grid x 16 seeds: the lane-parallel
  controller path at scale, where per-run Python overhead would
  dominate a scatter/gather design;
* ``cells1024_sharded`` — the same 1024 engine-runs expressed as 64
  batch-engined ``RunSpec`` grid cells (16 runs each), executed
  through :func:`repro.experiments.executor.run_specs`: single-worker
  pooled batch versus the batch-sharded multiprocess scheduler at 8
  workers.  Its ``min_speedup`` floor (2.5x) is enforced only on
  machines with at least ``min_cores`` (8) CPUs — below that the
  measurement is recorded but cannot gate, since the speedup is a
  property of real parallel hardware.

``--check`` re-measures and fails (exit 1) when, for any composition,

* the batch engine's speedup over scalar (or, for the sharded
  composition on a big-enough machine, the multi-worker speedup over
  the single-worker pooled batch) drops below the composition's
  ``min_speedup`` floor (the floors sit well under the committed
  numbers; they absorb runner noise, not regressions), or
* fresh scalar throughput falls below ``MIN_SCALAR_RATIO`` (80 %) of
  the committed baseline — the batch engine must never be paid for by
  slowing the scalar path down.

The committed baseline was re-recorded after the scalar engine's
per-tick physics became memoised on its discrete operating point
(docs/SUBSTRATE.md, "Scalar hot path"): scalar throughput rose ~1.7x,
so the batch-over-scalar ratios fell (cells64 7.8x -> 4.4x, cells1024
21.2x -> 9.3x) and their floors were reset to ~60 % of the new
numbers.  The calibration-normalised ``MIN_SCALAR_RATIO`` floor now
locks in that scalar gain: a change that gave it back would fail the
gate even though the batch speedups would look better.

``--json PATH`` additionally writes the fresh measurement plus the
gate verdict as machine-readable JSON (CI uploads it on failure, so a
tripped gate is diagnosable without re-running).

Each composition is part of the file's contract: changing one
requires ``--write`` and a justified diff.  Timings are min-of-reps
so one noisy rep cannot fail the gate; simulated-tick counts come
from the run results themselves and are engine-independent (the
engines are numerically identical — see
tests/test_batch_equivalence.py).

Absolute ticks/s are not comparable across machines or interpreter
versions, so the baseline also records a *calibration* probe — a
fixed pure-Python arithmetic loop timed the same way — and the scalar
floor compares throughputs normalised by it.  A slower runner slows
probe and engine alike and passes; only the engine regressing
*relative to the interpreter* fails.  (The speedup floors are already
same-run ratios and need no normalisation.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import ControllerConfig, EngineConfig, with_slowdown
from repro.core.registry import as_spec
from repro.experiments.executor import RunSpec, run_specs
from repro.sim.batch import run_batch
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_simulator.json"

#: Both compositions share the application/policy/tolerance grid; they
#: differ in how many seeds replicate each grid cell.  (MG is excluded
#: deliberately: its 600 phases make phase-crossing bookkeeping, not
#: the per-tick physics, the dominant cost.)
APPS = ("BT", "CG", "EP", "FT", "LU", "UA", "SP", "HPL")
POLICIES = ("duf", "dufp")
TOLERANCES_PCT = (0.0, 5.0, 10.0, 20.0)
APP_SCALE = 1.0

#: The locked compositions.  ``min_speedup`` floors sit at roughly
#: 60 % of the committed numbers so runner noise cannot trip the gate
#: but a real regression does.  The 1024-cell scalar pass is
#: expensive, so its rep counts are lower — at ~90 s a rep,
#: interference noise averages out within one rep.
COMPOSITIONS: dict[str, dict] = {
    "cells64": {
        "seeds_per_cell": 1,
        "min_speedup": 2.6,
        "write_reps": 5,
        "check_reps": 3,
    },
    "cells1024": {
        "seeds_per_cell": 16,
        "min_speedup": 5.5,
        "write_reps": 2,
        "check_reps": 1,
    },
    "cells1024_sharded": {
        "kind": "sharded",
        "seeds_per_cell": 16,
        "min_speedup": 2.5,
        "min_cores": 8,
        "target_workers": 8,
        "write_reps": 2,
        "check_reps": 1,
    },
}

MIN_SCALAR_RATIO = 0.8


def calibrate(reps: int = 5, n: int = 2_000_000) -> float:
    """Interpreter-speed probe: fixed arithmetic loop-ops per second.

    Deliberately plain Python (no numpy) with the mix the scalar
    engine's hot path is made of — float multiply-add and compare —
    so machine and interpreter speed changes move probe and engine
    together.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        x = 1.000000001
        for i in range(n):
            acc += x * i
            if acc > 1e12:
                acc *= 0.5
        best = min(best, time.perf_counter() - t0)
    return n / best


def composition_spec(name: str) -> dict:
    """The locked, committed description of composition ``name``.

    Machine-independent by construction: the sharded composition pins
    ``target_workers``, while the workers/cores actually measured are
    recorded next to the timings, outside this contract.
    """
    conf = COMPOSITIONS[name]
    seeds = conf["seeds_per_cell"]
    spec = {
        "apps": list(APPS),
        "policies": list(POLICIES),
        "tolerances_pct": list(TOLERANCES_PCT),
        "app_scale": APP_SCALE,
        "seeds_per_cell": seeds,
        "cells": len(APPS) * len(POLICIES) * len(TOLERANCES_PCT) * seeds,
    }
    if conf.get("kind") == "sharded":
        spec.update(
            engine="batch",
            grid_cells=len(APPS) * len(POLICIES) * len(TOLERANCES_PCT),
            target_workers=conf["target_workers"],
            min_cores=conf["min_cores"],
        )
    return spec


def build_cells(name: str):
    """The unrun engines of composition ``name``, in seed order."""
    seeds_per_cell = COMPOSITIONS[name]["seeds_per_cell"]
    engines = []
    seed = 0
    for app_name in APPS:
        app = build_application(app_name, scale=APP_SCALE)
        for policy in POLICIES:
            for tol in TOLERANCES_PCT:
                for _ in range(seeds_per_cell):
                    cfg = with_slowdown(ControllerConfig(), tol)
                    engines.append(
                        build_engine(
                            app,
                            as_spec(policy).build(cfg),
                            controller_cfg=cfg,
                            seed=seed,
                            record_trace=False,
                        )
                    )
                    seed += 1
    return engines


def build_sharded_specs(name: str) -> list[RunSpec]:
    """The grid of batch-engined RunSpecs for a sharded composition."""
    runs = COMPOSITIONS[name]["seeds_per_cell"]
    specs = []
    for i, app_name in enumerate(APPS):
        for policy in POLICIES:
            for tol in TOLERANCES_PCT:
                cfg = with_slowdown(ControllerConfig(), tol)
                specs.append(
                    RunSpec(
                        app_name=app_name,
                        controller=policy,
                        controller_cfg=cfg,
                        runs=runs,
                        app_scale=APP_SCALE,
                        base_seed=1_000_000 * i,
                        engine="batch",
                        label=f"{app_name}/{policy}@{tol:g}",
                    )
                )
    return specs


def measure_sharded(name: str, reps: int) -> dict:
    """min-of-``reps`` wall clock: one-worker pooled batch vs sharded."""
    conf = COMPOSITIONS[name]
    cores = os.cpu_count() or 1
    workers = max(2, min(conf["target_workers"], cores))
    serial_walls, sharded_walls = [], []
    ticks = 0
    for rep in range(reps):
        specs = build_sharded_specs(name)
        t0 = time.perf_counter()
        _, summary = run_specs(specs, workers=1)
        serial_walls.append(time.perf_counter() - t0)
        ticks = round(sum(c.ticks for c in summary.cells))

        t0 = time.perf_counter()
        run_specs(specs, workers=workers)
        sharded_walls.append(time.perf_counter() - t0)
        print(
            f"{name} rep {rep + 1}/{reps}: "
            f"serial {serial_walls[-1]:.2f} s, "
            f"sharded(w={workers}) {sharded_walls[-1]:.2f} s "
            f"({serial_walls[-1] / sharded_walls[-1]:.2f}x)",
            file=sys.stderr,
        )
    serial_wall, sharded_wall = min(serial_walls), min(sharded_walls)
    return {
        "composition": composition_spec(name),
        "reps": reps,
        "simulated_ticks": ticks,
        "measured_workers": workers,
        "measured_cpu_count": cores,
        "serial": {
            "wall_s": round(serial_wall, 4),
            "ticks_per_s": round(ticks / serial_wall, 1),
        },
        "sharded": {
            "wall_s": round(sharded_wall, 4),
            "ticks_per_s": round(ticks / sharded_wall, 1),
        },
        "speedup": round(serial_wall / sharded_wall, 3),
    }


def simulated_ticks(results) -> int:
    """Engine-steps the composition simulates (identical per engine)."""
    dt = EngineConfig().dt_s
    return round(
        sum(s.finish_time_s / dt for r in results for s in r.sockets)
    )


def measure_composition(name: str, reps: int) -> dict:
    """min-of-``reps`` wall clock for both engines over ``name``."""
    scalar_walls, batch_walls = [], []
    ticks = 0
    for rep in range(reps):
        engines = build_cells(name)
        t0 = time.perf_counter()
        results = [e.run() for e in engines]
        scalar_walls.append(time.perf_counter() - t0)
        ticks = simulated_ticks(results)

        engines = build_cells(name)
        t0 = time.perf_counter()
        run_batch(engines)
        batch_walls.append(time.perf_counter() - t0)
        print(
            f"{name} rep {rep + 1}/{reps}: "
            f"scalar {scalar_walls[-1]:.2f} s, "
            f"batch {batch_walls[-1]:.2f} s "
            f"({scalar_walls[-1] / batch_walls[-1]:.2f}x)",
            file=sys.stderr,
        )
    scalar_wall, batch_wall = min(scalar_walls), min(batch_walls)
    return {
        "composition": composition_spec(name),
        "reps": reps,
        "simulated_ticks": ticks,
        "scalar": {
            "wall_s": round(scalar_wall, 4),
            "ticks_per_s": round(ticks / scalar_wall, 1),
        },
        "batch": {
            "wall_s": round(batch_wall, 4),
            "ticks_per_s": round(ticks / batch_wall, 1),
        },
        "speedup": round(scalar_wall / batch_wall, 3),
    }


def measure(write: bool, reps_override: int | None) -> dict:
    """Measure every composition; ``reps_override`` applies to all."""
    out = {
        "schema": 3,
        "calibration_ops_per_s": round(calibrate(), 1),
        "compositions": {},
    }
    for name, spec in COMPOSITIONS.items():
        reps = reps_override or (
            spec["write_reps"] if write else spec["check_reps"]
        )
        if spec.get("kind") == "sharded":
            out["compositions"][name] = measure_sharded(name, reps)
        else:
            out["compositions"][name] = measure_composition(name, reps)
    return out


def check(fresh: dict) -> list[str]:
    """Gate violations of ``fresh`` against the committed baseline."""
    if not BASELINE.exists():
        return [f"no committed baseline at {BASELINE}; run --write first"]
    committed = json.loads(BASELINE.read_text())
    if committed.get("schema") != fresh["schema"]:
        return [
            "committed baseline uses a different schema; rerun --write "
            "and justify the diff"
        ]
    problems = []
    machine = (
        fresh["calibration_ops_per_s"] / committed["calibration_ops_per_s"]
    )
    for name, floor_spec in COMPOSITIONS.items():
        f = fresh["compositions"][name]
        c = committed["compositions"].get(name)
        if c is None:
            problems.append(
                f"{name}: missing from the committed baseline; "
                "rerun --write and justify the diff"
            )
            continue
        if c["composition"] != f["composition"]:
            problems.append(
                f"{name}: benchmark composition drifted from the "
                "committed baseline; rerun --write and justify the diff"
            )
        min_speedup = floor_spec["min_speedup"]
        if floor_spec.get("kind") == "sharded":
            # The multi-worker speedup is a property of real parallel
            # hardware; below min_cores the measurement is informative
            # but cannot gate.  No throughput-ratio check either: the
            # calibration probe tracks the interpreter, not numpy or
            # process-spawn costs.
            cores = os.cpu_count() or 1
            if cores < floor_spec["min_cores"]:
                print(
                    f"{name}: {cores} cores < min_cores "
                    f"{floor_spec['min_cores']}; speedup floor not "
                    f"enforced (measured {f['speedup']:.2f}x)",
                    file=sys.stderr,
                )
            elif f["speedup"] < min_speedup:
                problems.append(
                    f"{name}: sharded speedup {f['speedup']:.2f}x over "
                    f"the single-worker pooled batch fell below the "
                    f"{min_speedup:.1f}x floor on a "
                    f"{cores}-core machine"
                )
            continue
        if f["speedup"] < min_speedup:
            problems.append(
                f"{name}: batch speedup {f['speedup']:.2f}x fell below "
                f"the {min_speedup:.1f}x floor (committed: "
                f"{c['speedup']:.2f}x)"
            )
        # Normalise the committed throughput to this machine's speed
        # via the calibration probe before applying the floor.
        expected = c["scalar"]["ticks_per_s"] * machine
        if f["scalar"]["ticks_per_s"] < MIN_SCALAR_RATIO * expected:
            problems.append(
                f"{name}: scalar throughput "
                f"{f['scalar']['ticks_per_s']:.0f} ticks/s regressed "
                f"below {MIN_SCALAR_RATIO:.0%} of the committed "
                f"baseline ({c['scalar']['ticks_per_s']:.0f} ticks/s, "
                f"{expected:.0f} after the {machine:.2f}x machine-"
                f"speed normalisation)"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write", action="store_true", help="record a new baseline"
    )
    mode.add_argument(
        "--check", action="store_true", help="gate against the baseline"
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="timing repetitions for every composition (default: each "
        "composition's committed write/check rep count)",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write the fresh measurement and gate verdict as JSON",
    )
    args = parser.parse_args()

    fresh = measure(args.write, args.reps)
    for name, f in fresh["compositions"].items():
        if "sharded" in f:
            print(
                f"{name}: serial {f['serial']['wall_s']:.2f} s "
                f"({f['serial']['ticks_per_s']:.0f} ticks/s), "
                f"sharded(w={f['measured_workers']}) "
                f"{f['sharded']['wall_s']:.2f} s "
                f"({f['sharded']['ticks_per_s']:.0f} ticks/s), "
                f"speedup {f['speedup']:.2f}x over "
                f"{f['composition']['cells']} cells"
            )
            continue
        print(
            f"{name}: scalar {f['scalar']['wall_s']:.2f} s "
            f"({f['scalar']['ticks_per_s']:.0f} ticks/s), "
            f"batch {f['batch']['wall_s']:.2f} s "
            f"({f['batch']['ticks_per_s']:.0f} ticks/s), "
            f"speedup {f['speedup']:.2f}x over "
            f"{f['composition']['cells']} cells"
        )
    if args.write:
        BASELINE.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote baseline to {BASELINE}")
        if args.json:
            report = dict(fresh, gate={"checked": False, "problems": []})
            args.json.write_text(json.dumps(report, indent=2) + "\n")
        return 0
    problems = check(fresh)
    if args.json:
        report = dict(
            fresh,
            gate={
                "checked": True,
                "passed": not problems,
                "problems": problems,
                "floors": {
                    name: spec["min_speedup"]
                    for name, spec in COMPOSITIONS.items()
                },
                "min_scalar_ratio": MIN_SCALAR_RATIO,
            },
        )
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("benchmark gate passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
