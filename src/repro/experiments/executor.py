"""Parallel experiment execution with content-addressed caching.

Every independent protocol run — one ``(application, policy, config)``
cell of a sweep, one sensitivity probe — is described by a
:class:`RunSpec`: a frozen, picklable value object carrying everything
the run depends on, including the full
:class:`~repro.core.registry.PolicySpec` (policy id *and* parameters),
so any registered policy is runnable and cacheable.  :func:`run_specs`
fans a batch of specs out over a
:class:`concurrent.futures.ProcessPoolExecutor` (``workers=1`` keeps
the classic in-process serial path) and consults an optional
:class:`~repro.experiments.cache.ResultCache` first, so warm reruns
execute nothing at all.

Multi-worker execution is **batch-sharded**: pending cells are
bin-packed into shards by estimated simulated-tick count
(:func:`plan_shards`).  Poolable cells (batch-engined CPU cells and
fault-free cluster cells) pack into one shard per worker, which runs
them as *one* vectorized lockstep batch inside its worker process, so
each worker pays a batch's fixed cost once.  Solo cells (scalar,
hetero, faulted cluster) over-decompose ~3 shards per worker
and dispatch dynamically — a worker that drains its shard steals the
next queued one, so stragglers do not define the critical path.
Completed shards write through to the cache immediately, so an
interrupted multi-worker sweep keeps every finished cell.

Determinism: a spec fully determines its seeds (``noise.seed + 1009·r
+ base_seed``), and :func:`cell_seed` derives ``base_seed`` from the
cell's *identity* rather than its position in the submission order.
Serial, parallel and sharded executions of the same grid are therefore
bit-identical — at any worker count, shard size or shard permutation —
and so are cold and warm (cached) reruns.
"""

from __future__ import annotations

import heapq
import os
import time
import zlib
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Sequence

from ..analysis.tables import format_table
from ..config import (
    ControllerConfig,
    EngineConfig,
    NoiseConfig,
    SocketConfig,
    config_digest,
)
from ..cluster.spec import ClusterSpec
from ..core.registry import PolicySpec, as_spec, policy_info, policy_names
from ..errors import ExperimentError
from ..hardware.gpu import GPUNodeConfig
from ..sim.eligibility import fallback_reason
from ..sim.faults import FaultPlan
from ..units import smooth_max
from .cache import DIGEST_SCHEMA, ResultCache
from .protocol import ProtocolResult, build_protocol, fold_protocol

__all__ = [
    "RunSpec",
    "CellReport",
    "ShardReport",
    "ExecutionSummary",
    "cell_seed",
    "cell_scope",
    "SCOPE_CELLS",
    "spec_key",
    "execute_spec",
    "build_spec_protocol",
    "estimate_spec_ticks",
    "plan_shards",
    "run_specs",
]

#: Shards the planner cuts per worker for solo cells (scalar, hetero,
#: faulted cluster).  Over-decomposition is what makes dynamic dispatch a
#: work-stealing scheduler: a worker that finishes early steals queued
#: shards, so one slow shard costs at most ~1/OVERSUBSCRIPTION of the
#: ideal per-worker load, not the whole tail.  A solo cell's cost has
#: no per-shard term, so finer shards cost only dispatch.  Batch cells
#: do not over-decompose: a lockstep batch pays a fixed cost per pass
#: over its lanes, so each worker runs one wide batch (docs/EXECUTION.md,
#: "Shard sizing").
SHARD_OVERSUBSCRIPTION = 3

#: Node lanes (runs × nodes × sockets per node) from which pending
#: cluster cells pool into one batch instead of running their scalar
#: fleet loops.  A narrower batch loses to the scalar loop: its fixed
#: cost per pass is paid by too few lanes (measured table in
#: docs/BATCHING.md, "Cluster cells").
CLUSTER_POOL_LANES = 24

#: Planner fallback when an application cannot be sized ahead of time
#: (the estimate only steers bin-packing; results never depend on it).
_FALLBACK_SIM_S = 60.0

#: What each policy scope (:data:`repro.core.registry.SCOPES`) runs on.
SCOPE_CELLS = {
    "socket": "CPU-only cells",
    "device": "hetero cells (gpu=GPUNodeConfig(...))",
    "node": "cluster cells (cluster=ClusterSpec(...))",
}


def cell_scope(gpu: GPUNodeConfig | None, cluster: ClusterSpec | None) -> str:
    """The policy scope a cell with this GPU side and topology needs."""
    if gpu is not None and cluster is not None:
        raise ExperimentError(
            "a cell is either hetero (gpu=...) or a cluster "
            "(cluster=...), not both"
        )
    if gpu is not None:
        return "device"
    return "node" if cluster is not None else "socket"


@dataclass(frozen=True)
class RunSpec:
    """One protocol run, fully described by picklable values.

    Controllers are selected by :class:`~repro.core.registry.
    PolicySpec` (a policy id string coerces at construction), so a
    spec can cross a process boundary and be hashed for the result
    cache — policy *parameters* are part of the content address, so a
    parameter change invalidates cached results exactly like any other
    config change.  ``label`` is display-only and excluded from the
    cache key.
    """

    app_name: str
    controller: PolicySpec | str
    controller_cfg: ControllerConfig = field(default_factory=ControllerConfig)
    runs: int = 10
    base_seed: int = 0
    app_scale: float = 1.0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    engine_cfg: EngineConfig = field(default_factory=EngineConfig)
    socket: SocketConfig | None = None
    socket_count: int = 1
    #: Keep the last run's in-memory trace on ``last_run``.  ``False``
    #: (the default for sweep cells) records no trace on any run:
    #: ``last_run`` keeps its phases and fault events with empty
    #: traces, and the four result columns are the same either way.
    record_trace: bool = False
    #: Optional fault plan applied to every run of the cell.  Part of
    #: the content address — any fault parameter change invalidates
    #: cached results — but omitted from the digest while ``None``
    #: (``digest_omit_default``), so fault-free specs keep the exact
    #: digests they had before fault injection existed.
    faults: FaultPlan | None = field(
        default=None, metadata={"digest_omit_default": True}
    )
    #: Execution strategy: ``"scalar"`` (per-tick loop) or ``"batch"``
    #: (vectorized lockstep, :mod:`repro.sim.batch`).  The two produce
    #: numerically identical results — the differential test suite
    #: enforces it — so the engine is *not* part of the content
    #: address: :func:`spec_key` normalises it away and batch results
    #: share cache entries with scalar ones.
    engine: str = field(default="scalar", metadata={"digest_omit_default": True})
    #: GPU side of a heterogeneous node.  ``None`` (the default) keeps
    #: the spec CPU-only; a :class:`~repro.hardware.gpu.GPUNodeConfig`
    #: turns the cell into a CPU+GPU co-simulation whose ``controller``
    #: must be a registered hetero budget-split policy.  Omitted from
    #: the digest while ``None`` (``digest_omit_default``), so every
    #: pre-existing CPU-only spec keeps its exact cache address.
    gpu: GPUNodeConfig | None = field(
        default=None, metadata={"digest_omit_default": True}
    )
    #: Node topology of a cluster cell.  ``None`` (the default) keeps
    #: the spec single-node; a :class:`~repro.cluster.spec.ClusterSpec`
    #: turns the cell into a fleet-coordinated multi-node simulation
    #: whose ``controller`` must be a registered fleet partitioning
    #: policy.  Omitted from the digest while ``None``
    #: (``digest_omit_default``), so every pre-existing spec keeps its
    #: exact cache address.
    cluster: ClusterSpec | None = field(
        default=None, metadata={"digest_omit_default": True}
    )
    label: str = ""

    def __post_init__(self) -> None:
        # Coerce policy-id strings (including "name:key=val,...") to a
        # registry spec; unknown names fail fast, at submission time.
        object.__setattr__(self, "controller", as_spec(self.controller))
        # An all-zero plan is contractually identical to no plan;
        # normalise here so the two also share one digest.
        if self.faults is not None and not self.faults.active:
            object.__setattr__(self, "faults", None)
        # Hetero cells always run the scalar co-simulation loop; the
        # engine field is display/strategy only (never in the digest),
        # so normalising keeps mixed --engine batch sweeps working.
        if self.gpu is not None and self.engine == "batch":
            object.__setattr__(self, "engine", "scalar")

    def validate(self) -> None:
        if self.controller.name not in policy_names():
            raise ExperimentError(
                f"unknown controller {self.controller.name!r}; "
                f"available: {', '.join(policy_names())}"
            )
        if self.runs < 1:
            raise ExperimentError("RunSpec.runs must be at least 1")
        if self.engine not in ("scalar", "batch"):
            raise ExperimentError(
                f"unknown engine {self.engine!r}; use 'scalar' or 'batch'"
            )
        if self.faults is not None:
            self.faults.validate()
        if self.gpu is not None:
            self.gpu.validate()
        if self.cluster is not None:
            self.cluster.validate()
        scope = cell_scope(self.gpu, self.cluster)
        wanted = policy_info(self.controller.name).scope
        if wanted != scope:
            raise ExperimentError(
                f"controller {self.controller.name!r} runs on "
                f"{SCOPE_CELLS[wanted]}, not on {SCOPE_CELLS[scope]} "
                "(see 'repro policies')"
            )
        if scope != "socket" and self.socket_count != 1:
            raise ExperimentError(
                "hetero and cluster cells size their own sockets (one "
                "CPU socket per hetero node, ClusterSpec.sockets_per_node "
                "per cluster node); leave socket_count at 1"
            )

    @property
    def display(self) -> str:
        return self.label or f"{self.app_name}/{self.controller.label}"


def cell_seed(*parts) -> int:
    """Deterministic seed offset derived from a cell's identity.

    CRC32 of the joined parts: stable across processes and sessions
    (unlike ``hash``), independent of submission order, and distinct
    per cell so sweep cells do not share noise streams.
    """
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def spec_key(spec: RunSpec) -> str:
    """The content address of ``spec``'s result.

    Covers every config dataclass in the spec plus the package version
    and the *digest* schema (:data:`~repro.experiments.cache.
    DIGEST_SCHEMA` — deliberately not the storage-format version, so
    entries written before the compressed v2 store keep their
    addresses), so editing any constant or upgrading the code
    invalidates old entries.  The engine choice is normalised to
    ``"scalar"``: batch and scalar executions of one spec are
    numerically identical, so they share one cache entry (and
    fault-free scalar specs keep their historical digests).
    """
    from .. import __version__

    return config_digest(
        {"version": __version__, "schema": DIGEST_SCHEMA},
        replace(spec, label="", engine="scalar"),
    )


def execute_spec(spec: RunSpec, apps: dict | None = None) -> ProtocolResult:
    """Run one spec to completion (in whichever process this is).

    A CPU-only cell runs its repetitions through the engine it names.
    A fault-free cluster cell pools its nodes as batch lanes when they
    reach :data:`CLUSTER_POOL_LANES`, and runs its scalar fleet loops
    otherwise, whatever its ``engine``: both give the same result.
    ``apps`` is :func:`build_spec_protocol`'s application memo.
    """
    spec.validate()
    result, engines = build_spec_protocol(spec, apps)
    if _poolable(spec) and (
        spec.cluster is None or _pool_lanes(spec) >= CLUSTER_POOL_LANES
    ):
        from ..cluster.engine import run_pooled

        runs = run_pooled(engines)
    else:
        runs = [engine.run() for engine in engines]
    return fold_protocol(result, runs)


def _pool_lanes(spec: RunSpec) -> int:
    """Batch lanes a cluster cell's nodes fill: runs × nodes × sockets."""
    return spec.runs * _devices_per_tick(spec)


def _poolable(spec: RunSpec) -> bool:
    """Whether ``spec`` may join a pooled lockstep batch.

    Batch-engined CPU-only cells, and cluster cells that pass the
    fleet rows of :mod:`repro.sim.eligibility` (no fault plan).  Nodes
    that fail a scalar row are found when the pool is built
    (:func:`~repro.cluster.engine.run_pooled`) and run their scalar
    loop there.
    """
    if spec.cluster is not None:
        return fallback_reason(spec, fleet=True) is None
    return spec.engine == "batch"


def build_spec_protocol(spec: RunSpec, apps: dict | None = None):
    """One spec's result shell and unrun repetition engines.

    :func:`execute_spec` runs them; the pooled batch path of
    :func:`run_specs` pools the engines of *many* poolable specs into
    one lockstep batch.  A cluster cell builds one application per
    node (:meth:`~repro.cluster.spec.ClusterSpec.app_for`).

    ``apps`` memoizes the catalog builds by ``(name, scale, socket)``.
    An application is frozen, so the cells sharing the memo share it,
    and their jittered runs share its phase table.
    """
    from ..workloads.catalog import build_application

    memo = {} if apps is None else apps

    def app(name: str):
        key = (name, spec.app_scale, spec.socket)
        built = memo.get(key)
        if built is None:
            built = memo[key] = build_application(
                name, scale=spec.app_scale, socket=spec.socket
            )
        return built

    if spec.cluster is not None:
        application = [
            app(spec.cluster.app_for(i, spec.app_name))
            for i in range(spec.cluster.node_count)
        ]
    else:
        application = app(spec.app_name)
    return build_protocol(
        application,
        spec.controller,
        controller_cfg=spec.controller_cfg,
        runs=spec.runs,
        base_seed=spec.base_seed,
        noise=spec.noise,
        engine_cfg=spec.engine_cfg,
        socket_count=spec.socket_count,
        record_trace=spec.record_trace,
        socket=spec.socket,
        faults=spec.faults,
        gpu=spec.gpu,
        cluster=spec.cluster,
    )


# -- cost estimation and shard planning --------------------------------


@lru_cache(maxsize=512)
def _nominal_ticks(
    app_name: str,
    app_scale: float,
    socket: SocketConfig | None,
    dt_s: float,
) -> float:
    """Engine steps one default-configuration run of the app simulates.

    Cached per distinct ``(app, scale, socket, dt)``: a 10k-cell grid
    usually reuses a handful of applications, so planning stays O(n)
    dict lookups, not n application builds.  Unknown or unbuildable
    applications get a flat fallback — the estimate steers bin-packing
    only, and execution will surface the real error in the worker.
    """
    from ..workloads.catalog import build_application

    try:
        app = build_application(app_name, scale=app_scale, socket=socket)
        duration_s = app.nominal_duration(socket)
    except Exception:
        duration_s = _FALLBACK_SIM_S
    return max(duration_s / dt_s, 1.0)


def _hetero_gpu_seconds(node: GPUNodeConfig) -> float:
    """Nominal seconds the busiest GPU of ``node`` needs for its queue.

    Round-robin gives device 0 the longest queue; each kernel costs its
    roofline compute time at the maximum boost clock plus its
    host↔device transfers at the peak link bandwidth.  Planning-only —
    throttling, uncore coupling and stalls are ignored, exactly like
    controller slowdowns on the CPU side.
    """
    gpu = node.gpu
    t_compute = smooth_max(
        node.kernel_flops / (gpu.flops_per_hz * gpu.max_freq_hz),
        node.kernel_bytes / gpu.hbm_bw_bytes,
        4.0,
    )
    t_xfer = (node.input_bytes + node.output_bytes) / node.link_bw_bytes
    queue_len = -(-node.kernel_count // node.gpu_count)
    return queue_len * (t_compute + t_xfer)


def _devices_per_tick(spec: RunSpec) -> int:
    """Devices one tick of ``spec`` steps: every socket of every node,
    or the CPU socket plus each GPU of a hetero node."""
    if spec.cluster is not None:
        return spec.cluster.node_count * spec.cluster.sockets_per_node
    if spec.gpu is not None:
        return 1 + spec.gpu.gpu_count
    return spec.socket_count


def estimate_spec_ticks(spec: RunSpec) -> float:
    """Estimated simulated ticks of one cell, for shard bin-packing.

    CPU-only cells: ``runs × sockets × nominal-duration/dt``.
    Controller slowdowns (≤ ~20 %) are deliberately ignored — load
    balance only needs the relative weight of cells, and the estimate
    must never execute anything.

    Hetero cells weigh the whole node: the co-simulation loop runs
    until *both* sides finish and steps every device each tick, so the
    weight is ``runs × (1 + gpu_count) × max(cpu ticks, busiest-GPU
    ticks)`` — without this, LPT planning would pack hetero cells as if
    they were bare CPU runs and starve workers in mixed sweeps.

    Cluster cells sum over nodes: the fleet loop steps every socket of
    every node each tick until the *slowest* node finishes, so the
    weight is ``runs × Σ_nodes(sockets_per_node × node-app ticks)`` —
    each node can run a different application, and a 4-node cell
    really does cost ~4× the matching single-node cell.
    """
    if spec.cluster is not None:
        node_ticks = sum(
            _nominal_ticks(
                spec.cluster.app_for(i, spec.app_name),
                spec.app_scale,
                spec.socket,
                spec.engine_cfg.dt_s,
            )
            for i in range(spec.cluster.node_count)
        )
        return spec.runs * spec.cluster.sockets_per_node * node_ticks
    ticks = _nominal_ticks(
        spec.app_name, spec.app_scale, spec.socket, spec.engine_cfg.dt_s
    )
    if spec.gpu is not None:
        gpu_ticks = _hetero_gpu_seconds(spec.gpu) / spec.engine_cfg.dt_s
        ticks = max(ticks, gpu_ticks)
    return spec.runs * _devices_per_tick(spec) * ticks


def plan_shards(
    specs: Sequence[RunSpec],
    *,
    workers: int,
    shard_size: int | None = None,
) -> list[list[int]]:
    """Partition ``specs`` into shards (lists of indices) for dispatch.

    Greedy LPT bin-packing on :func:`estimate_spec_ticks`: cells are
    placed heaviest-first onto the currently-lightest shard.
    Poolable cells — batch-engined CPU cells and fault-free cluster
    cells — pack into ``workers`` shards, one lockstep batch per
    worker; solo cells (scalar, hetero, faulted cluster) pack apart
    into ``workers × SHARD_OVERSUBSCRIPTION`` shards for work
    stealing.  Neither group gets more shards than it has cells.
    ``shard_size`` caps the number of *cells* per shard and raises
    either group's shard count when needed — smaller shards steal
    better but batch less; see docs/EXECUTION.md for sizing guidance.

    The plan is deterministic in the spec list, and — because cell
    seeds derive from cell identity — execution results are identical
    under any plan: shard membership only moves work between
    processes.  Shards come back heaviest-first, the dispatch order
    that minimises the tail.
    """
    if workers < 1:
        raise ExperimentError("need at least one worker")
    if shard_size is not None and shard_size < 1:
        raise ExperimentError("shard_size must be at least 1")
    est = [estimate_spec_ticks(s) for s in specs]
    batch = [i for i, s in enumerate(specs) if _poolable(s)]
    solo = [i for i, s in enumerate(specs) if not _poolable(s)]
    shards = _pack(batch, est, workers, shard_size) + _pack(
        solo, est, workers * SHARD_OVERSUBSCRIPTION, shard_size
    )
    return [members for _, members in sorted(shards, key=lambda sh: -sh[0])]


def _pack(
    cells: list[int], est: list[float], target: int, shard_size: int | None
) -> list[tuple[float, list[int]]]:
    """Greedy LPT: ``cells`` heaviest-first onto the lightest of at most
    ``target`` shards (more when ``shard_size`` needs them), as
    ``(load, members)`` in shard order."""
    if not cells:
        return []
    target = min(len(cells), target)
    if shard_size is not None:
        target = max(target, -(-len(cells) // shard_size))
    members: list[list[int]] = [[] for _ in range(target)]
    loads = [0.0] * target
    # (load, shard) heap; shards at the cell cap drop out permanently.
    heap = [(0.0, si) for si in range(target)]
    heapq.heapify(heap)
    for i in sorted(cells, key=lambda i: (-est[i], i)):
        load, si = heapq.heappop(heap)
        members[si].append(i)
        loads[si] = load + est[i]
        if shard_size is None or len(members[si]) < shard_size:
            heapq.heappush(heap, (loads[si], si))
    return [(loads[si], sorted(members[si])) for si in range(target) if members[si]]


# -- in-process cell execution -----------------------------------------


def _execute_timed(spec: RunSpec, apps: dict) -> tuple[ProtocolResult, float]:
    """Solo target: the result plus its execution time in seconds."""
    start = time.perf_counter()
    result = execute_spec(spec, apps)
    return result, time.perf_counter() - start


def _solo_ticks(spec: RunSpec, result: ProtocolResult) -> float:
    """Measured ticks of a solo-executed cell: each run's makespan
    times the devices every tick steps, as :func:`estimate_spec_ticks`
    weighs them."""
    return sum(result.times_s) * _devices_per_tick(spec) / spec.engine_cfg.dt_s


def _iter_cells(
    specs: Sequence[RunSpec],
) -> Iterator[tuple[int, ProtocolResult, float, float]]:
    """Execute cells in-process, yielding ``(pos, result, s, ticks)``.

    The poolable subset (:func:`_poolable`) runs as **one** lockstep
    pool (:func:`~repro.cluster.engine.run_pooled`): the repetition
    engines of batch-engined CPU cells, and every node of the cluster
    cells once those fill :data:`CLUSTER_POOL_LANES` lanes (below that
    they run their scalar fleet loops).  All cells share one catalog
    application memo (:func:`build_spec_protocol`), dropped with the
    generator.  A lone batch cell with no
    cluster cells beside it runs solo.  The remaining cells execute
    solo, lazily, so a caller that writes through to a cache persists
    each cell before the next one starts.  Pooled cells' seconds
    apportion the pool's wall clock by each cell's *simulated tick
    count* (engine-independent, from the run results, and for cluster
    cells what the scalar path reports), so ``CellReport.seconds``
    stays meaningful for shard bin-packing and summaries.
    """
    pool_pos = [j for j, s in enumerate(specs) if _poolable(s)]
    fleet_lanes = sum(
        _pool_lanes(specs[j]) for j in pool_pos if specs[j].cluster is not None
    )
    if fleet_lanes < CLUSTER_POOL_LANES:
        pool_pos = [j for j in pool_pos if specs[j].cluster is None]
        if len(pool_pos) < 2:
            pool_pos = []
    pooled = set(pool_pos)
    solo_pos = [j for j in range(len(specs)) if j not in pooled]
    apps: dict = {}
    if pool_pos:
        from ..cluster.engine import run_pooled

        shells = []
        spans = []
        engines = []
        for j in pool_pos:
            shell, cell_engines = build_spec_protocol(specs[j], apps)
            shells.append(shell)
            spans.append((len(engines), len(engines) + len(cell_engines)))
            engines.extend(cell_engines)
        t0 = time.perf_counter()
        run_results = run_pooled(engines)
        batch_wall = time.perf_counter() - t0
        folded = [
            fold_protocol(shell, run_results[lo:hi])
            for shell, (lo, hi) in zip(shells, spans)
        ]
        ticks = [
            _solo_ticks(specs[j], result)
            if specs[j].cluster is not None
            else sum(
                s.finish_time_s
                for r in run_results[lo:hi]
                for s in r.sockets
            )
            / specs[j].engine_cfg.dt_s
            for j, result, (lo, hi) in zip(pool_pos, folded, spans)
        ]
        total_ticks = sum(ticks) or 1.0
        for j, result, t in zip(pool_pos, folded, ticks):
            yield j, result, batch_wall * t / total_ticks, t
    for j in solo_pos:
        result, seconds = _execute_timed(specs[j], apps)
        yield j, result, seconds, _solo_ticks(specs[j], result)


def _run_shard(
    specs: list[RunSpec],
) -> tuple[int, float, list[tuple[int, ProtocolResult, float, float]]]:
    """Pool target: one shard, batch-pooled, in one worker process."""
    t0 = time.perf_counter()
    cells = list(_iter_cells(specs))
    return os.getpid(), time.perf_counter() - t0, cells


#: Per shard, the pid of the worker that started it (0: not started).
#: Set in each worker by :func:`_note_starts`.
_STARTED = None


def _note_starts(started) -> None:
    """Pool initializer: share the start table with this worker."""
    global _STARTED
    _STARTED = started


def _start_shard(si: int, specs: list[RunSpec]):
    """Pool target: mark shard ``si`` started, then run it."""
    _STARTED[si] = os.getpid()
    return _run_shard(specs)


def _run_sharded(shards: list[list[RunSpec]], size: int, finish) -> None:
    """Run ``shards`` on a pool of ``size`` workers, calling ``finish``.

    ``finish(si, pid, seconds, cells)`` runs as each shard returns.  A
    shard that raises costs only itself: the others still finish, then
    its error is re-raised.

    A worker that dies (OOM kill, segfault, ``os._exit``) breaks the
    pool, and every shard it had not returned fails with it.  Those
    shards are resubmitted once, to a fresh pool of the same size.
    The ones that never started run side by side.  Each one that was
    running when the pool broke is a suspect and runs alone, so a
    shard that breaks a pool again is named: it raises
    :class:`ExperimentError` with its cells and its worker's exit
    status, once every other shard has finished.  A pool broken in the
    retry is replaced for the shards still to run, so no shard is
    submitted more than twice, and at most ``size`` workers live at
    any time.
    """
    # Imported here: the pool machinery (multiprocessing, logging,
    # sockets) costs memory and start-up that serial runs never use.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import RawArray

    started = RawArray("q", len(shards))
    failure: BaseException | None = None
    pool = None

    def run(indices) -> tuple[list[int], dict[int, int | None]]:
        """Run shards side by side; those a broken pool lost, and the
        pool's worker exit statuses by pid."""
        nonlocal pool, failure
        if pool is None:
            pool = ProcessPoolExecutor(
                size, initializer=_note_starts, initargs=(started,)
            )
        futures = {pool.submit(_start_shard, si, shards[si]): si for si in indices}
        lost = []
        for fut in as_completed(futures):
            si = futures[fut]
            try:
                pid, shard_wall, cells = fut.result()
            except BrokenProcessPool:
                lost.append(si)
                continue
            except Exception as exc:
                if failure is None:
                    failure = exc
                continue
            finish(si, pid, shard_wall, cells)
        if not lost:
            return [], {}
        # The pool's own table of its workers: the only place their
        # exit statuses are kept.
        workers = pool._processes
        pool.shutdown()  # joins the broken pool's workers
        pool = None
        return sorted(lost), {pid: p.exitcode for pid, p in workers.items()}

    try:
        lost, _ = run(range(len(shards)))
        unstarted = [si for si in lost if not started[si]]
        suspects = [[si] for si in lost if started[si]]
        for batch in filter(None, [unstarted, *suspects]):
            for si in batch:
                started[si] = 0
            again, status = run(batch)
            if again and failure is None:
                cells = ", ".join(s.display for si in again for s in shards[si])
                codes = sorted(
                    {str(status.get(started[si])) for si in again if started[si]}
                )
                failure = ExperimentError(
                    f"a worker process died (exit status "
                    f"{', '.join(codes) or 'unknown'}) running cells {cells} "
                    f"{'alone' if len(batch) == 1 else 'side by side'}, "
                    "after one resubmission"
                )
    except BaseException:
        # Ctrl-C / fatal error: drop queued shards, keep what the
        # write-through already persisted.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool is not None:
        pool.shutdown()
    if failure is not None:
        raise failure


# -- reporting ---------------------------------------------------------


@dataclass(frozen=True)
class CellReport:
    """How one spec was satisfied: executed or served from cache."""

    label: str
    cached: bool
    seconds: float
    #: Simulated engine steps the cell accounted for (0 for cache hits).
    ticks: float = 0.0


@dataclass(frozen=True)
class ShardReport:
    """One dispatched shard: its plan weight and measured execution."""

    index: int
    cells: int
    est_ticks: float
    seconds: float
    pid: int


@dataclass
class ExecutionSummary:
    """Timing and cache accounting for one batch of specs."""

    workers: int = 1
    wall_s: float = 0.0
    cells: list[CellReport] = field(default_factory=list)
    corrupted: int = 0
    #: Sharded-dispatch accounting (empty for serial / fully-cached runs).
    shards: list[ShardReport] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def executed(self) -> int:
        return self.total - self.hits

    @property
    def executed_cpu_s(self) -> float:
        return sum(c.seconds for c in self.cells if not c.cached)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def steals(self) -> int:
        """Shards a worker picked up beyond its first — dynamic dispatch
        absorbing stragglers that a static partition would have serialised."""
        if not self.shards:
            return 0
        return len(self.shards) - len({s.pid for s in self.shards})

    def merge(self, other: "ExecutionSummary") -> None:
        """Fold a later batch (e.g. a second sweep stage) into this one."""
        self.cells.extend(other.cells)
        self.wall_s += other.wall_s
        self.corrupted += other.corrupted
        self.shards.extend(other.shards)

    def render(self, *, per_cell: bool = False) -> str:
        """Human-readable account; ``per_cell`` adds the full table."""
        lines = [
            f"executed {self.executed} of {self.total} cells "
            f"({self.executed_cpu_s:.2f} s cpu) on {self.workers} "
            f"worker{'s' if self.workers != 1 else ''}, "
            f"{self.hits} cache hit{'s' if self.hits != 1 else ''}, "
            f"wall {self.wall_s:.2f} s"
        ]
        if self.shards:
            sizes = [s.cells for s in self.shards]
            procs = len({s.pid for s in self.shards})
            lines.append(
                f"{len(self.shards)} shards over {procs} worker "
                f"process{'es' if procs != 1 else ''} "
                f"(cells/shard {min(sizes)}-{max(sizes)}, "
                f"{self.steals} steal{'s' if self.steals != 1 else ''})"
            )
        if self.corrupted:
            lines.append(f"recovered {self.corrupted} corrupted cache entries")
        if self.executed:
            slow = max(
                (c for c in self.cells if not c.cached), key=lambda c: c.seconds
            )
            lines.append(f"slowest cell: {slow.label} ({slow.seconds:.2f} s)")
        if per_cell and self.cells:
            rows = [
                (c.label, "hit" if c.cached else "run", f"{c.seconds:.3f}")
                for c in self.cells
            ]
            lines.append(
                format_table(
                    ["cell", "source", "seconds"], rows, title="Per-cell timing"
                )
            )
        return "\n".join(lines)


def _as_cache(cache) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# -- the scheduler -----------------------------------------------------


def run_specs(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    cache: ResultCache | str | None = None,
    shard_size: int | None = None,
) -> tuple[list[ProtocolResult], ExecutionSummary]:
    """Execute a batch of specs, results in spec order.

    ``workers=1`` runs in-process (the classic serial path; the
    batch-engined subset of pending cells still pools into one
    lockstep batch).  More workers shard the cache misses with
    :func:`plan_shards` and dispatch shards dynamically over a process
    pool: each shard runs its cells as one vectorized batch in its
    worker, completed shards write through to ``cache`` immediately
    (an interrupted sweep keeps every finished shard), and idle
    workers steal queued shards.  ``shard_size`` caps cells per shard;
    by default batch-engined cells run as one shard per worker and
    solo cells over-decompose ~3 shards per worker.

    ``cache`` may be a :class:`ResultCache` or a directory path; hits
    skip execution entirely and the summary says which cells came from
    where.  Results are bit-identical at any worker count, shard size
    or cache state.

    If a shard fails, every *other* shard still completes and writes
    through before the first failure is re-raised — a transient crash
    costs one shard's work, not the sweep's.  A worker process that
    dies costs one shard too (:func:`_run_sharded`).
    """
    if workers < 1:
        raise ExperimentError("need at least one worker")
    if shard_size is not None and shard_size < 1:
        raise ExperimentError("shard_size must be at least 1")
    for spec in specs:
        spec.validate()
    cache = _as_cache(cache)
    start = time.perf_counter()
    results: list[ProtocolResult | None] = [None] * len(specs)
    reports: list[CellReport | None] = [None] * len(specs)

    pending: list[int] = []
    corrupt_before = cache.stats.corrupted if cache is not None else 0
    for i, spec in enumerate(specs):
        hit = cache.get(spec_key(spec)) if cache is not None else None
        if hit is not None:
            results[i] = hit
            reports[i] = CellReport(spec.display, cached=True, seconds=0.0)
        else:
            pending.append(i)

    def finish_cell(i: int, result: ProtocolResult, seconds: float, ticks: float) -> None:
        results[i] = result
        reports[i] = CellReport(
            specs[i].display, cached=False, seconds=seconds, ticks=ticks
        )
        if cache is not None:
            cache.put(spec_key(specs[i]), result)

    shard_reports: list[ShardReport] = []
    if not pending:
        pass
    elif workers == 1 or len(pending) == 1:
        pend_specs = [specs[i] for i in pending]
        for j, result, seconds, ticks in _iter_cells(pend_specs):
            finish_cell(pending[j], result, seconds, ticks)
    else:
        pend_specs = [specs[i] for i in pending]
        shards = plan_shards(pend_specs, workers=workers, shard_size=shard_size)

        def finish_shard(si: int, pid: int, shard_wall: float, cells) -> None:
            shard = shards[si]
            # Write-through: this shard's cells persist now, not after
            # the pool drains.
            for j, result, seconds, ticks in cells:
                finish_cell(pending[shard[j]], result, seconds, ticks)
            shard_reports.append(
                ShardReport(
                    index=si,
                    cells=len(shard),
                    est_ticks=sum(estimate_spec_ticks(pend_specs[j]) for j in shard),
                    seconds=shard_wall,
                    pid=pid,
                )
            )

        _run_sharded(
            [[pend_specs[j] for j in shard] for shard in shards],
            min(workers, len(shards)),
            finish_shard,
        )

    summary = ExecutionSummary(
        workers=workers,
        wall_s=time.perf_counter() - start,
        cells=[r for r in reports if r is not None],
        corrupted=(cache.stats.corrupted - corrupt_before)
        if cache is not None
        else 0,
        shards=sorted(shard_reports, key=lambda s: s.index),
    )
    return [r for r in results if r is not None], summary
