"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and once per set-up
probe; it is not meant to be run by hand.  It imports ``repro``, builds
the workload's inputs, runs the timed execution and prints one JSON
object as the last line of its standard output.  ``setup_done`` is a
``time.monotonic()`` reading, which ``run.py`` subtracts from its own
reading taken just before the interpreter was started.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import suite  # imports repro, which is part of the measured set-up


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced repetition writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    setup, execute = suite.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(args.seed, suite.QUICK if args.quick else suite.FULL, work)
        record = {"setup_done": time.monotonic(), "attempted": inputs["attempted"]}
        if not args.setup_only:
            record.update(_execute(execute, inputs, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None and args.spans and "error" not in record:
        tracer.write(args.spans)
    print(json.dumps(record))
    return 0


def _execute(execute, inputs: dict, tracer) -> dict:
    try:
        out = execute(inputs)
    except Exception:
        # A crashed execution fails every cell it attempted; run.py
        # counts them and reports the benchmark incorrect.
        traceback.print_exc()
        return {"failed": inputs["attempted"], "error": traceback.format_exc()}
    layer = dict(out.layer_metrics)
    if tracer is not None:
        layer.update(tracer.metrics(out.window_ns))
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "wall_s": out.wall_s,
        "ticks": out.ticks,
        "peak_rss_mb": rss_kb / 1024,
        "failed": out.failed,
        "cells": out.cells,
        "digest": suite.workload_digest(out.cells),
        "metrics": out.metrics,
        "layer": layer,
    }


if __name__ == "__main__":
    sys.exit(main())
