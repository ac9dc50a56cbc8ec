"""Layer spans for the traced benchmark run, recorded from outside the program.

:func:`install` wraps the public boundary of each layer at class or
module level.  Every call through a wrapper records one span (layer,
start_ns, end_ns, parent) in flat in-memory arrays; :meth:`Tracer.write`
dumps them as JSONL once the repetition is over.  A layer's self time
is its spans' durations minus the part their child spans cover.

Forked pool workers inherit the wrappers but record nothing: only
spans of the measuring process are collected.

Importing this module does not import ``repro``, so the orchestrator
can read :data:`LAYERS` and :data:`LAYER_METRICS` without it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

#: Layer names, in report order.  Each layer's boundaries are in :func:`install`.
LAYERS = (
    "sim.engine",
    "hardware",
    "core.runtime",
    "papi",
    "core.controllers",
    "core.fleet",
    "core.split",
    "cluster",
    "sim.hetero",
    "sim.batch",
    "sim.trace",
    "workloads",
    "experiments.protocol",
    "experiments.executor",
    "experiments.cache",
)

#: Per-layer metric name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    name: unit
    for layer in LAYERS
    for name, unit in (
        (f"{layer}.calls", ("count", "lower")),
        (f"{layer}.self_s", ("s", "lower")),
        (f"{layer}.self_frac", ("ratio", "lower")),
    )
}
LAYER_METRICS.update(
    {
        "core.runtime.fired_frac": ("ratio", "higher"),
        "sim.batch.runs": ("count", "higher"),
        "sim.batch.lane_parallel_frac": ("ratio", "higher"),
        "sim.trace.bytes": ("bytes", "lower"),
        "experiments.executor.shards": ("count", "lower"),
        "experiments.executor.steals": ("count", "lower"),
        "experiments.executor.worker_busy_frac": ("ratio", "higher"),
        "experiments.executor.result_bytes": ("bytes", "lower"),
        "experiments.cache.hits": ("count", "higher"),
        "experiments.cache.hit_frac": ("ratio", "higher"),
        "experiments.cache.bytes_read": ("bytes", "lower"),
        "experiments.cache.bytes_written": ("bytes", "lower"),
        "experiments.cache.replay_cells_per_s": ("cells/s", "higher"),
        "attributed_frac": ("ratio", "higher"),
        "trace_overhead_frac": ("ratio", "lower"),
    }
)

#: The per-layer metrics of the one-line result.  Self time enters only
#: as ``self_frac``, a share of the timed wall: a share reads the same
#: whether the host runs fast or slow, and an idle layer's ``self_s``
#: would read exactly 0 s on every run.
RESULT_LAYER_METRICS = tuple(m for m in LAYER_METRICS if not m.endswith(".self_s"))


class Tracer:
    """Span store plus the wrapper factory that fills it."""

    def __init__(self) -> None:
        self.active = True
        self.epoch_ns = time.perf_counter_ns()
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def wrap(self, layer: str, fn, on_return=None):
        """``fn`` recording one span of ``layer`` per call.

        ``on_return(result)`` may add to :attr:`counters`.
        """
        layer_id = LAYERS.index(layer)
        layers, starts, ends, parents = self.layer, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(layers)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def metrics(self, window_ns: tuple[int, int]) -> dict[str, float]:
        """``<layer>.calls``/``.self_s``/``.self_frac``, the counter ratios
        and ``attributed_frac``.

        ``window_ns`` is the timed region.  ``self_frac`` divides a
        layer's self time by its length; ``attributed_frac`` is the share
        of it that top-level spans cover.
        """
        import numpy as np

        layer = np.frombuffer(self.layer, dtype=np.int8)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_ns = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        t0, t1 = window_ns
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_ns[i]) / 1e9
            out[f"{name}.self_frac"] = float(self_ns[i]) / (t1 - t0)
        top = ~nested & (start >= t0) & (end <= t1)
        out["attributed_frac"] = float(dur[top].sum()) / (t1 - t0)
        c = self.counters
        out["core.runtime.fired_frac"] = _ratio(c["fired"], out["core.runtime.calls"])
        out["sim.batch.runs"] = c["batched_runs"]
        out["sim.batch.lane_parallel_frac"] = _ratio(c["lane_parallel"], c["lane_checks"])
        return out

    def write(self, path) -> None:
        """One JSONL line per span; a span's id is its 0-based line number.

        Times are nanoseconds since the tracer was created; ``parent``
        is -1 for a top-level span.
        """
        epoch = self.epoch_ns
        with open(path, "w") as fh:
            for l, s, e, p in zip(self.layer, self.start, self.end, self.parent):
                fh.write(
                    f'{{"layer":"{LAYERS[l]}","start_ns":{s - epoch},'
                    f'"end_ns":{e - epoch},"parent":{p}}}\n'
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _subclasses(cls) -> list[type]:
    """``cls`` and all its subclasses, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary so calls through it record spans."""
    from repro.cluster.engine import ClusterEngine
    from repro.core.base import Controller
    from repro.core.fleet import FleetPolicy
    from repro.core.runtime import ControllerRuntime
    from repro.core.split import SplitPolicy
    from repro.experiments import cache, executor, protocol
    from repro.hardware.processor import SimulatedProcessor
    from repro.papi.highlevel import IntervalMeter
    from repro.sim import batch, engine, hetero, trace
    from repro.workloads import catalog

    count = tracer.counters

    def fired(result):
        count["fired"] += bool(result)

    def batched(results):
        count["batched_runs"] += len(results)

    def lane_check(reason):
        count["lane_checks"] += 1
        count["lane_parallel"] += reason is None

    boundaries = [
        ("sim.engine", engine.SimulationStepper, "tick", None),
        ("sim.engine", engine.SimulationEngine, "prepare", None),
        ("sim.engine", engine.SimulationEngine, "collect", None),
        ("hardware", SimulatedProcessor, "step", None),
        ("hardware", SimulatedProcessor, "preview_progress_rate", None),
        ("core.runtime", ControllerRuntime, "on_time", fired),
        ("papi", IntervalMeter, "sample", None),
        ("cluster", ClusterEngine, "run", None),
        ("sim.hetero", hetero.HeteroEngine, "run", None),
        ("sim.batch", batch.BatchSimulationEngine, "run", batched),
        ("sim.batch", batch, "batch_fallback_reason", None),
        ("sim.batch", batch, "controller_lane_fallback_reason", lane_check),
        ("sim.trace", trace.InMemoryTraceSink, "record", None),
        ("sim.trace", trace.StreamingTraceSink, "record", None),
        ("workloads", catalog, "build_application", None),
        ("experiments.protocol", protocol, "build_protocol", None),
        ("experiments.protocol", protocol, "fold_protocol", None),
        ("experiments.executor", executor, "run_specs", None),
        ("experiments.executor", executor, "plan_shards", None),
        ("experiments.executor", executor, "spec_key", None),
        ("experiments.cache", cache.ResultCache, "get", None),
        ("experiments.cache", cache.ResultCache, "put", None),
    ]
    boundaries += [
        ("core.controllers", cls, "tick", None)
        for cls in _subclasses(Controller)
        if "tick" in vars(cls)
    ]
    boundaries += [
        ("core.fleet" if issubclass(cls, FleetPolicy) else "core.split", cls, "allocate", None)
        for cls in _subclasses(SplitPolicy)
        if "allocate" in vars(cls)
    ]
    for layer, owner, name, on_return in boundaries:
        original = vars(owner)[name]
        wrapped = tracer.wrap(layer, original, on_return)
        setattr(owner, name, wrapped)
        if not isinstance(owner, type):
            _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    """Point every ``repro`` module's alias of a module function at its wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
