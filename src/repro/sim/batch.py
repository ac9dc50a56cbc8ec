"""Vectorized batch simulation: N independent runs on one lane array.

:class:`BatchSimulationEngine` advances a batch of independent
:class:`~repro.sim.engine.SimulationEngine` runs with one array
operation per model step across all lanes, where a *lane* is one
``(run, socket)`` pair, and with results numerically identical to the
scalar engine's.  Runs that fail a ``"scalar"`` row of
:mod:`repro.sim.eligibility` fall back to the scalar engine in
:func:`run_batch`.

docs/BATCHING.md states the design and the equivalence contract, and
its "Modules" section which part owns what:
:class:`~repro.sim.lane_physics.LanePhysics` the hardware lanes,
:class:`~repro.sim.lane_runtime.LaneRuntime` the lane-parallel
controller ticks, and this module the run clocks, the workload cursor,
retirement, trace records, fleet rounds and the scatter/gather sync.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cluster.fleet import stage_writes
from ..errors import SimulationError
from ..lazy import attach
from .eligibility import batch_fallback_reason, controller_lane_fallback_reason
from .engine import _DONE_EPS, _MIN_SLICE_S, RunContext, SimulationEngine
from .lane_mirror import stage_write, staged_write
from .lane_physics import LanePhysics
from .lane_runtime import LaneRuntime
from .result import PhaseSpan, RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.fleet import FleetRound

__all__ = [
    "BatchSimulationEngine",
    "run_batch",
    "batch_fallback_reason",
    "controller_lane_fallback_reason",
]

#: Tick counter of a run that stopped: it never starts another tick.
#: As a run's end tick, it marks a run that has not stopped.
_PARKED = np.iinfo(np.int64).max


def _phase_spans(
    names: list[str], ends: np.ndarray, first: int, stop: int, col: int
) -> list[PhaseSpan]:
    """The spans of rows ``first:stop``, each starting where the last ended.

    Row ``first`` is the phase named ``names[col]``.
    """
    end = ends[first:stop].tolist()
    names = names[col : col + stop - first]
    return [PhaseSpan(n, s, e) for n, s, e in zip(names, [0.0, *end], end)]


class BatchSimulationEngine:
    """Vectorized execution of compatible simulation runs.

    All engines must share one :class:`~repro.config.SocketConfig`
    and one engine ``dt_s`` (the tick grid); everything else —
    seeds, controllers, controller configs, applications, fault plans,
    per-run socket counts, trace sinks — may differ per run.
    """

    def __init__(
        self,
        engines: Sequence[SimulationEngine],
        fleets: Sequence[tuple["FleetRound", Sequence[int]]] = (),
    ):
        if not engines:
            raise SimulationError("batch needs at least one engine")
        if len({id(e.machine) for e in engines}) != len(engines):
            raise SimulationError("batched engines must not share a machine")
        first = engines[0]
        self.socket_cfg = first.machine.config.socket
        self.dt = first.engine_cfg.dt_s
        for e in engines:
            reason = batch_fallback_reason(e)
            if reason is not None:
                raise SimulationError(f"engine is not batchable: {reason}")
            if e.machine.config.socket != self.socket_cfg:
                raise SimulationError("batched engines must share one SocketConfig")
            if e.engine_cfg.dt_s != self.dt:
                raise SimulationError("batched engines must share one dt_s")
        self.engines = list(engines)
        members = [r for _, runs in fleets for r in runs]
        if len(set(members)) != len(members) or not all(
            0 <= r < len(engines) for r in members
        ):
            raise SimulationError("fleet nodes must be distinct runs of this batch")
        self._fleets = [(fleet, list(runs)) for fleet, runs in fleets]

    # -- run -----------------------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Execute every run to completion; results in engine order."""
        ctxs = [e.prepare() for e in self.engines]
        for ctx in ctxs:
            ctx.runtime.start()
        # The t = 0 partition stages on the objects, as the scalar
        # cluster loop does once its nodes started; the lanes mirror it.
        for fleet, runs in self._fleets:
            stage_writes([self.engines[r] for r in runs], fleet.start())
        self._build_lanes(ctxs)

        closed: set[int] = set()
        self.physics.tracing = any(ctx.sink is not None for ctx in ctxs)
        for e, ctx in zip(self.engines, ctxs):
            if ctx.sink is not None:
                ctx.sink.open(e.machine.socket_count)
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                self._loop(ctxs, closed)
        finally:
            for r, ctx in enumerate(ctxs):
                if ctx.sink is not None and r not in closed:
                    ctx.sink.close()

        results = []
        for e, ctx, lanes in zip(self.engines, ctxs, self.blocks):
            result = e.collect(
                ctx,
                [float(self.finish[l]) for l in lanes],
                [[] for _ in lanes],
            )
            for sock, l in zip(result.sockets, lanes):
                attach(sock, "phases", self._span_source(l))
            results.append(result)
        return results

    def _span_source(self, l: int) -> partial:
        """Lane ``l``'s closed phase spans, built from the column on call.

        The source holds the batch's name list and end-time column, not
        the engine, so a result kept unread keeps no lane state alive.
        """
        first = int(self._row_first[l])
        return partial(
            _phase_spans,
            self.physics.names,
            self._span_end,
            first,
            int(self.row[l]),
            first + int(self.physics.col_shift[l]),
        )

    # -- setup ----------------------------------------------------------------------

    def _build_lanes(self, ctxs: list[RunContext]) -> None:
        """Mirror every run's objects into the lanes, and build the parts.

        Each lane's workload comes from its jittered application's
        volume rows (:meth:`~repro.workloads.application.Application.
        volume_rows`), never its table or ``phases``.  The lanes' volume
        rows are joined into one table, with a row per lane and phase.
        Every other phase constant, and the span names, live once per
        base application, in columns the lanes' rows map onto.  The
        runs' applications are released here: the lanes need nothing
        else of them.
        """
        engines = self.engines
        self.procs = [p for e in engines for p in e.machine.processors]
        L = self.L = len(self.procs)
        R = len(engines)
        # The one statement of the run <-> lane layout: a run's lanes
        # are one contiguous block, its sockets in order.
        ends = np.cumsum([len(e.machine.processors) for e in engines]).tolist()
        self.blocks = [range(a, b) for a, b in zip([0, *ends], ends)]
        self.run_of = np.repeat(np.arange(R), [len(b) for b in self.blocks])
        # Multi-socket runs share ticks: their lanes start the next one
        # together, reduced over each run's block.
        self._starts = None if L == R else np.array([0, *ends[:-1]])

        volumes: list[np.ndarray] = []
        row_first: list[int] = []
        row_end: list[int] = []
        n_rows = 0
        # Each distinct base table once: its first column, by identity.
        base_col: dict[int, int] = {}
        bases: list[np.ndarray] = []
        names: list[str] = []
        col_first: list[int] = []
        for ctx in ctxs:
            for app in ctx.socket_apps:
                base, rows = app.volume_rows()
                col = base_col.get(id(base))
                if col is None:
                    col = base_col[id(base)] = len(names)
                    bases.append(base.values)
                    names.extend(base.names)
                col_first.append(col)
                volumes.append(rows)
                row_first.append(n_rows)
                n_rows += len(base)
                row_end.append(n_rows)
            ctx.socket_apps.clear()

        # Workload cursor: every lane's phases are consecutive rows of
        # the volume table; ``row`` is the lane's current phase and
        # ``row_end`` one past its last.
        self.row = np.array(row_first, dtype=np.int64)
        self.row_end = np.array(row_end, dtype=np.int64)
        self.physics = physics = LanePhysics(
            self.socket_cfg,
            self.dt,
            self.procs,
            names,
            bases,
            volumes,
            np.array(col_first, dtype=np.int64) - self.row,
        )
        # The pass kernels, bound once: the physics holds no reference
        # back, so the engine frees without the cycle collector.
        self._clocks, self._step = physics.clocks, physics.step
        self.phase_done = self.row >= self.row_end
        self.unfinished = np.ones(L, dtype=bool)
        self._check_finish = bool(self.phase_done.any())
        self.frac = np.zeros(L, dtype=np.float64)
        self.finish = np.full(L, np.nan)
        # Phase spans as one column: a lane crosses its rows in order,
        # so row ``k``'s span ends at ``_span_end[k]`` and starts where
        # row ``k - 1``'s ended (at 0.0 on the lane's first row).
        self._row_first = self.row.copy()
        self._span_end = np.zeros(n_rows, dtype=np.float64)
        first = (~self.phase_done).nonzero()[0]
        physics.load_rows(first, self.row[first])
        self._any_phase_done = bool(self.phase_done.any())

        self.next_tick = np.array([ctx.runtime._next_tick_s for ctx in ctxs])
        self.alive = np.ones(R, dtype=bool)
        self._maybe_done: list[int] = []
        # Run clocks (see ``_tick``): tick start times accumulate
        # ``now += dt`` exactly as the scalar stepper's clock does;
        # ``ticks`` counts the ticks each lane's run has started and
        # ``rem`` is what is left of the lane's current one.  A run
        # whose last lane finished parks its counter and records the
        # tick its clock stopped at.
        self._times = [0.0]
        self._times_arr = np.zeros(64)
        self._times_n = 1
        self.ticks = np.zeros(L, dtype=np.int64)
        self.rem = np.zeros(L, dtype=np.float64)
        self._end_tick = [_PARKED] * R

        # Runs that fail ``controller_lane_fallback_reason`` keep the
        # per-run scatter/gather tick.
        self._vec_run = [controller_lane_fallback_reason(e) is None for e in engines]
        self.lane_runtime = (
            LaneRuntime(
                engines, ctxs, physics, self.blocks, self._vec_run, self.next_tick
            )
            if any(self._vec_run)
            else None
        )

    # -- main loop -------------------------------------------------------------------

    def _loop(self, ctxs: list[RunContext], closed: set[int]) -> None:
        dt = self.dt
        times = self._times
        physics = self.physics
        max_times = [e.engine_cfg.max_sim_time_s for e in self.engines]
        injector_runs = [r for r, ctx in enumerate(ctxs) if ctx.injector is not None]
        trace_runs = [r for r, ctx in enumerate(ctxs) if ctx.sink is not None]
        alive = self.alive
        ended = self._maybe_done
        vec_run = np.array(self._vec_run)
        rounding = [
            (fleet, runs)
            for fleet, runs in self._fleets
            if fleet.ticks_per_period is not None
        ]
        k = 0
        while alive.any():
            # The scalar stepper checks its time limit before every
            # tick; windows stop at the first tick start that reaches
            # the smallest live limit, so checking at syncs is exact.
            now = times[k]
            live = alive.nonzero()[0].tolist()
            limit = min(max_times[r] for r in live)
            if now >= limit:
                for r in live:
                    if now >= max_times[r]:
                        e = self.engines[r]
                        raise SimulationError(
                            f"simulation exceeded {max_times[r]}s "
                            f"(application {e.application!r} stuck?)"
                        )
            # The next sync: a due controller tick (the mirror of
            # ControllerRuntime.on_time's due check; finished runs park
            # their next_tick at +inf), the time limit, a live fleet's
            # next round, or — while a recording run lives — the next
            # trace sample.
            traced = any(alive[r] for r in trace_runs)
            next_due = float(self.next_tick.min())
            rounding = [
                (fleet, runs)
                for fleet, runs in rounding
                if any(alive[r] for r in runs)
            ]
            physics.keep_pkg = bool(rounding)
            next_round = min(
                (
                    (k // fleet.ticks_per_period + 1) * fleet.ticks_per_period
                    for fleet, _ in rounding
                ),
                default=_PARKED,
            )
            sync = k + 1
            while True:
                if sync == len(times):
                    times.append(times[-1] + dt)
                t = times[sync]
                if (
                    traced
                    or t + 1e-12 >= next_due
                    or t >= limit
                    or sync == next_round
                ):
                    break
                sync += 1
            self._tick(sync)
            now = times[sync]
            # A fleet rounds after this tick when one of its nodes ran
            # it: the scalar cluster loop stops once every node is done.
            rounds = [
                (fleet, runs)
                for fleet, runs in rounding
                if fleet.due(sync)
                and any(alive[r] and self._end_tick[r] >= sync for r in runs)
            ]
            if traced:
                self._record(ctxs, trace_runs)
            # Retire finished runs where the scalar loop would: a run that
            # stopped before this sync leaves before the due ticks, one
            # that stopped on it leaves after them.
            early = [r for r in ended if self._end_tick[r] < sync]
            self._retire(ctxs, closed, early)
            for r in injector_runs:
                if alive[r]:
                    ctxs[r].injector.advance(now)
            if now + 1e-12 >= next_due:
                due = np.nonzero(alive & (now + 1e-12 >= self.next_tick))[0]
                vec = vec_run[due]
                vec_due = due[vec]
                sg = False
                for r in due[~vec]:
                    ctx = ctxs[r]
                    self._scatter(r)
                    ctx.runtime.on_time(now)
                    self._gather(r)
                    self.next_tick[r] = ctx.runtime._next_tick_s
                    sg = True
                if len(vec_due):
                    physics.after_lane_ticks(self.lane_runtime.tick(vec_due, now))
                if sg:
                    physics.after_gather()
            self._retire(ctxs, closed, [r for r in ended if alive[r]])
            ended.clear()
            # Fleet rounds come last, as in the scalar cluster loop:
            # after the tick's controller ticks and retirements.
            for fleet, runs in rounds:
                self._fleet_round(fleet, runs, sync)
            k = sync

    def _fleet_round(self, fleet: "FleetRound", runs: list[int], tick: int) -> None:
        """Run ``fleet``'s round after ``tick`` and stage its writes.

        A live node bids its lanes' last-step package power, and its
        write stages on the lane pending arrays exactly as
        ``RAPLPackage.set_limits`` stages it: PL1 = PL2 at the latched
        windows, due after the actuation delay, replacing any pending
        write.  A finished node's write stages on its objects, where,
        as in the scalar loop, it never latches.
        """
        alive, physics = self.alive, self.physics
        pkg = physics.st_pkg.tolist()
        power = [[pkg[l] for l in self.blocks[r]] if alive[r] else None for r in runs]
        writes = fleet.round(tick, power)
        stage_writes(
            [self.engines[r] for r in runs],
            [None if alive[r] else w for r, w in zip(runs, writes)],
        )
        for r, w in zip(runs, writes):
            if w is None or not alive[r]:
                continue
            lanes = self.blocks[r]
            for l in lanes:
                self.procs[l].rapl.check_limits(w, w)
            physics.stage(lanes, w, physics.pl1_win[lanes], w, physics.pl2_win[lanes])
            physics.any_pending = True

    def _retire(
        self, ctxs: list[RunContext], closed: set[int], runs: list[int]
    ) -> None:
        """Take finished runs out of the batch and sync their objects."""
        for r in runs:
            self.alive[r] = False
            self.next_tick[r] = np.inf
            # Final sync: ``collect`` reads energies (and any state a
            # later caller inspects) from the objects.
            self._scatter(r)
            ctx = ctxs[r]
            if ctx.injector is not None:
                # The run's own end time, as its last scalar tick
                # left it (``advance`` only sets the clock).
                ctx.injector.advance(self._times[self._end_tick[r]])
            if self._vec_run[r]:
                self.lane_runtime.retire(self.blocks[r], ctx)
            if ctx.sink is not None:
                ctx.sink.close()
                closed.add(r)

    def _record(self, ctxs: list[RunContext], trace_runs: list[int]) -> None:
        """Hand this tick's trace fields to every recording run's sink."""
        p = self.physics
        fields = (p.proc_now, p.st_core, p.st_uncore, p.st_pkg, p.st_dram, p.pl1_w)
        times, cores, uncores, pkgs, drams, caps = [a.tolist() for a in fields]
        flops, bts = p.st_flops.tolist(), p.st_bytes.tolist()
        temps = p.temp.tolist() if p.has_thermal else [None] * self.L
        alive = self.alive
        for r in trace_runs:
            if not alive[r]:
                continue
            record = ctxs[r].sink.record_step
            for s, l in enumerate(self.blocks[r]):
                record(
                    s,
                    times[l],
                    cores[l],
                    uncores[l],
                    pkgs[l],
                    drams[l],
                    caps[l],
                    flops[l],
                    bts[l],
                    temps[l],
                )

    # -- run clocks: full-width passes up to a sync ------------------------------------

    def _tick(self, sync: int) -> None:
        """Advance every live run's clock to tick ``sync``.

        Lanes never interact between syncs, so each run keeps its own
        clock.  Every pass first starts the next tick of each run that
        is behind the sync and whose lanes have all used up their
        current one (a multi-socket run's lanes share ticks), then runs
        one full-width preview/step over the lanes with time left.  A
        lane split at a phase boundary finishes its tick in the next
        pass while the other runs move on, so each lane steps the same
        sub-slices in the same order as a scalar run; lanes with
        nothing to do this pass sit out with ``dt_l = 0``.  The window
        ends when no lane has time left.
        """
        dt = self.dt
        rem, ticks = self.rem, self.ticks
        first = self._starts
        physics = self.physics
        while True:
            start = (rem == 0.0) & (ticks < sync)
            if first is not None:
                start = np.logical_and.reduceat(start, first)[self.run_of]
            if np.count_nonzero(start):
                rem[start] = dt
                ticks += start
            active = rem > 0.0
            n = np.count_nonzero(active)
            if n == 0:
                return
            physics.all_active = n == self.L
            self._pass(active)

    def _pass(self, active: np.ndarray) -> None:
        """One sub-slice for every ``active`` lane: preview, step, cross."""
        rem = self.rem
        if self._check_finish:
            newly = active & self.phase_done & self.unfinished
            if newly.any():
                self._finish(newly.nonzero()[0].tolist())
        # The physics treats the masks read-only, so aliasing is safe
        # when no lane has retired its phase list.
        working = active & ~self.phase_done if self._any_phase_done else active
        rate, core_hz = self._clocks(active, working)
        slice_ = rem
        ttf = None
        if np.count_nonzero(working):
            if not np.all(rate > 0.0, where=working):
                l = int((working & ~(rate > 0.0)).nonzero()[0][0])
                col = self.row[l] + self.physics.col_shift[l]
                raise SimulationError(
                    f"phase {self.physics.names[col]!r} makes no progress"
                )
            ttf = (1.0 - self.frac) / rate
            slice_ = np.minimum(rem, np.maximum(ttf, _MIN_SLICE_S))
        dt_l = np.where(working, slice_, rem)
        progress_rate = self._step(dt_l, active, core_hz)
        # ``progress_rate`` is finite everywhere and zero on an active
        # lane that idles, and ``dt_l`` is zero off the active set, so
        # the unmasked updates are no-ops there (and ``r - r == 0.0``
        # uses up a finished lane's tick).
        frac = self.frac
        frac += np.minimum(progress_rate * dt_l, 1.0)
        rem -= dt_l
        if ttf is not None:
            # A lane is done at ``1 - _DONE_EPS``, or within 1e-3 of
            # the end when its time-to-finish fit the slice; both need
            # ``frac >= 1 - 1e-3``, so only those lanes are tested.
            near = (frac >= 1.0 - 1e-3).nonzero()[0]
            near = near[working[near]]
            done = (frac[near] >= 1.0 - _DONE_EPS) | (
                ttf[near] <= slice_[near] + _MIN_SLICE_S
            )
            crossed = near[done]
            if len(crossed):
                self._cross(crossed)

    def _finish(self, lanes: list[int]) -> None:
        """Stamp finish times; a run whose last lane finished stops.

        The run still idles out its current tick (its lanes' ``rem``),
        then parks: its tick counter never starts another tick.
        """
        dt = self.dt
        for l in lanes:
            k = int(self.ticks[l])
            self.finish[l] = self._times[k - 1] + (dt - self.rem.item(l))
            self.unfinished[l] = False
            r = self.run_of.item(l)
            block = self.blocks[r]
            if not self.unfinished[block.start : block.stop].any():
                self._maybe_done.append(r)
                self._end_tick[r] = k
                self.ticks[block.start : block.stop] = _PARKED
        self._check_finish = bool((self.phase_done & self.unfinished).any())

    def _tick_starts(self) -> np.ndarray:
        """``_times`` as an array, grown in place as the clock advances."""
        times, arr = self._times, self._times_arr
        n, have = len(times), self._times_n
        if have != n:
            if n > len(arr):
                self._times_arr = arr = np.resize(arr, 2 * n)
            arr[have:n] = times[have:n]
            self._times_n = n
        return arr

    def _cross(self, crossed: np.ndarray) -> None:
        """Close ``crossed`` lanes' phase spans and load their next rows."""
        rows = self.row[crossed]
        # ``times[k - 1]`` is the start of the lane's current tick.
        self._span_end[rows] = self._tick_starts()[self.ticks[crossed] - 1] + (
            self.dt - self.rem[crossed]
        )
        self.frac[crossed] = 0.0
        rows += 1
        self.row[crossed] = rows
        more = rows < self.row_end[crossed]
        if not more.all():
            done = crossed[~more]
            self.phase_done[done] = True
            self.physics.idle(done)
            self._any_phase_done = self._check_finish = True
            crossed, rows = crossed[more], rows[more]
        if len(crossed):
            self.physics.load_rows(crossed, rows)

    # -- object <-> array sync --------------------------------------------------------

    def _scatter(self, r: int) -> None:
        """Write the lane arrays back into run ``r``'s object graph.

        Everything the controller tick can *read* must be current:
        the PAPI counters, RAPL limits/pending/energy, MSR read hooks
        (APERF/MPERF, uncore status, effective frequency), thermals.
        """
        physics, procs, lanes = self.physics, self.procs, self.blocks[r]
        for f in physics.mirror:
            if f.scatter:
                arr = getattr(physics, f.lane)
                for l in lanes:
                    f.write(procs[l], arr.item(l))
        for l in lanes:
            stage_write(procs[l], *physics.pend[:, l].tolist())

    def _gather(self, r: int) -> None:
        """Read back everything the controllers may have actuated."""
        physics, procs, lanes = self.physics, self.procs, self.blocks[r]
        for f in physics.mirror:
            if f.gather:
                arr = getattr(physics, f.lane)
                for l in lanes:
                    arr[l] = f.read(procs[l])
        # A tick stages writes but never clears one: only the RAPL
        # step latches a write, and the lanes step in its place.
        for l in lanes:
            staged = staged_write(procs[l])
            if staged is not None:
                physics.pend[:, l] = staged
                physics.any_pending = True


def run_batch(
    engines: Sequence[SimulationEngine],
    *,
    max_batch: int | None = None,
    fleets: Sequence[tuple["FleetRound", Sequence[int]]] = (),
) -> list[RunResult]:
    """Run many engines, batching the compatible ones.

    Engines are grouped by ``(SocketConfig, dt_s)``; each group runs
    through one :class:`BatchSimulationEngine` (split into chunks of at
    most ``max_batch`` runs when given).  Engines that cannot be
    batched (see :func:`batch_fallback_reason`) run through the scalar
    engine — results are identical either way, so callers never need
    to care which path executed.  Results come back in input order.

    ``fleets`` pairs each fleet round with the indices of its node
    engines (see :func:`repro.cluster.engine.run_pooled`); a fleet's
    nodes must be batchable and share one group, and never split
    across chunks, so ``max_batch`` refuses them.
    """
    if max_batch is not None and max_batch < 1:
        raise SimulationError("max_batch must be at least 1")
    if fleets and max_batch is not None:
        raise SimulationError("max_batch would split fleets across batches")
    nodes = {i for _, members in fleets for i in members}
    results: list[RunResult | None] = [None] * len(engines)
    groups: dict[tuple, list[int]] = {}
    for i, e in enumerate(engines):
        reason = batch_fallback_reason(e)
        if reason is None:
            key = (e.machine.config.socket, e.engine_cfg.dt_s)
            groups.setdefault(key, []).append(i)
        elif i in nodes:
            raise SimulationError(f"fleet node is not batchable: {reason}")
        else:
            results[i] = e.run()
    for idxs in groups.values():
        pos = {i: p for p, i in enumerate(idxs)}
        local = []
        for fleet, members in fleets:
            inside = [pos[i] for i in members if i in pos]
            if len(inside) not in (0, len(members)):
                raise SimulationError(
                    "fleet nodes must share one SocketConfig and dt_s"
                )
            if inside:
                local.append((fleet, inside))
        size = max_batch or len(idxs)
        for chunk in (idxs[i : i + size] for i in range(0, len(idxs), size)):
            out = BatchSimulationEngine([engines[i] for i in chunk], local).run()
            for i, res in zip(chunk, out):
                results[i] = res
    return [r for r in results if r is not None]
