"""Vectorized batch simulation: N independent runs on one lane array.

:class:`BatchSimulationEngine` advances a batch of independent
:class:`~repro.sim.engine.SimulationEngine` runs (different seeds,
tolerances, controllers, applications — same :class:`~repro.config.
SocketConfig` and engine ``dt``) with one array operation per model
step across all lanes, where a *lane* is one ``(run, socket)`` pair.

The design is a synced facade, not a reimplementation of the stack:

* Each run still builds its full scalar object graph through
  :meth:`SimulationEngine.prepare` — controllers, meters, powercap
  zones, MSR files, fault injectors, trace sinks — so every controller
  decision, noise draw and fault draw happens in exactly the code that
  the scalar engine runs.
* Only the per-step hardware physics (RAPL firmware, DVFS resolution,
  uncore governor, roofline, power, thermal, counters) is vectorized.
  Just before a run's controller tick becomes due, the lane arrays are
  *scattered* back into that run's objects; after the tick the
  actuator state is *gathered* back out.
* Runs meet only at *syncs*: a due controller tick, a trace sample,
  the time-limit check, the end of the batch.  Between syncs each run
  keeps its own tick clock, and every full-width kernel pass gives
  each lane of a run behind the sync the next sub-slice of its run's
  current tick.  A lane that a phase boundary splits finishes its
  tick in the next pass while the other runs start their next tick,
  so no lane ever steps outside the vector kernels.
* Fault-free runs whose controllers all publish a lane-parallel tick
  form (:func:`repro.core.registry.vector_tick_form`) skip the
  per-tick scatter/gather entirely: measurement, decision and
  actuation execute as masked vector ops directly on the lane arrays
  (:mod:`repro.sim.eligibility` holds the eligibility table).  The
  scalar object graph of such a run is synced once, when the run
  finishes, and stays the differential-equivalence oracle.

The contract — enforced by ``tests/test_batch_equivalence.py`` — is
numerical identity with the scalar engine: exact for every integer and
boolean quantity (counters, fault draws, PROCHOT), bit-identical for
floats in practice (the kernels mirror the scalar evaluation order,
route ``exp`` through :func:`math.exp` per lane instead of ``np.exp``,
and the roofline p-norm (:func:`repro.units.smooth_max`) through
Python ``**`` per lane — ``np.power`` is *not* bit-identical to it).
The equivalence tests assert ≤1e-9 relative error to leave headroom
for platform libm differences.

Runs that fail a ``"scalar"`` row of that table (a non-default
governor type, an opt-in platform model) fall back to the scalar
engine in :func:`run_batch` (see ``docs/BATCHING.md``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.base import TickLog
from ..core.capping import CapLanes
from ..core.detector import PhaseDetectorLanes
from ..core.duf import LANE_ACTIONS, LANE_HOLD, LaneControllerState
from ..core.registry import vector_tick_form
from ..core.tolerance import SlowdownLanes
from ..core.uncore_actuator import UncoreLanes
from ..errors import SimulationError
from ..lazy import attach
from ..papi.events import CACHE_LINE_BYTES
from ..workloads.phase import (
    BOOST as _BOOST,
    BYTES as _BYTES,
    FLOPS as _FLOPS,
    FPC as _FPC,
    LATENCY as _LS,
    OVERFETCH as _OV,
    TABLE_ROWS,
    UNCORE as _US,
    VOLUMES as _VOLUMES,
)
from .eligibility import batch_fallback_reason, controller_lane_fallback_reason
from .engine import _DONE_EPS, _MIN_SLICE_S, RunContext, SimulationEngine
from .lane_mirror import FIELDS, THERMAL_FIELDS, stage_write, staged_write
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
_PARKED = np.iinfo(np.int64).max

#: Rows of the per-phase constant tables (see ``_build_lanes``): an
#: application's :class:`~repro.workloads.phase.PhaseTable` rows plus
#: the peak rate ``count * fpc``.  A lane's own rows are only the
#: jittered ``_VOLUMES``; the rest is its base application's.
_PEAK = TABLE_ROWS

#: Rows of the per-lane operating-point cache (see ``_points``), and
#: the progress-rate row.
_POINT_ROWS = 9
_PROG = 4

#: Measured rates per lane and tick, in the scalar draw order: flops,
#: bytes, package power, DRAM power.
_RATES = 4

#: Ticks of measurement noise one prefetched block holds: a run's block
#: is ``_NOISE_BLOCK_TICKS * _RATES * sockets`` draws, at least two
#: ticks' worth, so a refill always covers the tick that asked for it.
_NOISE_BLOCK_TICKS = 16


def noise_block_len(sockets):
    """Draws in the noise block of a run with ``sockets`` (int or array)."""
    return _NOISE_BLOCK_TICKS * _RATES * sockets


class _TickColumns:
    """The lane-parallel tick logs of one batch, as columns.

    Each due tick form appends one record of arrays: the tick time,
    the lanes (``int32``: a batch holds far fewer than 2**31), the
    latched PL1 limit, the logged uncore clock, the phase-change flags
    and the ``int8`` action codes (see
    :data:`~repro.core.duf.LANE_ACTIONS`).  :meth:`entries` builds one
    lane's :class:`TickLog` list when a controller's ``ticks`` is first
    read.
    """

    def __init__(self) -> None:
        #: ``(now, lanes, pl1_w, uncore_hz, changed, cap_act, unc_act)``
        self.records: list[tuple] = []
        self._flat: tuple | None = None
        self._flat_n = -1

    def _sorted(self) -> tuple:
        """Every record joined and stable-sorted by lane (cached)."""
        recs = self.records
        if self._flat_n != len(recs):
            sizes = [len(rec[1]) for rec in recs]
            cols = [
                np.repeat([rec[0] for rec in recs], sizes),
                *(np.concatenate([rec[i] for rec in recs]) for i in range(1, 7)),
            ]
            order = np.argsort(cols[1], kind="stable")
            self._flat = tuple(c[order] for c in cols)
            self._flat_n = len(recs)
        return self._flat

    def entries(self, lane: int) -> list[TickLog]:
        """``lane``'s tick log, oldest first."""
        if not self.records:
            return []
        now, lanes, pl1, uncore, changed, cap_act, unc_act = self._sorted()
        lo, hi = np.searchsorted(lanes, (lane, lane + 1))
        acts = LANE_ACTIONS
        return [
            TickLog(t, p, u, c, acts[a], acts[b])
            for t, p, u, c, a, b in zip(
                now[lo:hi].tolist(),
                pl1[lo:hi].tolist(),
                uncore[lo:hi].tolist(),
                changed[lo:hi].tolist(),
                cap_act[lo:hi].tolist(),
                unc_act[lo:hi].tolist(),
            )
        ]


def _stage(pend, rapl_now, delay_s, lanes, pl1_w, pl1_win, pl2_w, pl2_win):
    """Stage a RAPL write on ``lanes`` of the ``pend`` block, due after
    the actuation delay, replacing any write staged there, as
    ``RAPLPackage.set_limits`` does."""
    if len(lanes) == 0:
        return
    due, w1, win1, w2, win2 = pend
    due[lanes] = rapl_now[lanes] + delay_s
    w1[lanes] = pl1_w
    win1[lanes] = pl1_win
    w2[lanes] = pl2_w
    win2[lanes] = pl2_win


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
                raise SimulationError(
                    "batched engines must share one SocketConfig"
                )
            if e.engine_cfg.dt_s != self.dt:
                raise SimulationError("batched engines must share one dt_s")
        self.engines = list(engines)
        members = [r for _, runs in fleets for r in runs]
        if len(set(members)) != len(members) or not all(
            0 <= r < len(engines) for r in members
        ):
            raise SimulationError(
                "fleet nodes must be distinct runs of this batch"
            )
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
            for r, per_socket_w in zip(runs, fleet.start()):
                if per_socket_w is not None:
                    self._write_objects(r, per_socket_w)
        self._build_lanes(ctxs)

        closed: set[int] = set()
        self._tracing = any(ctx.sink is not None for ctx in ctxs)
        for e, ctx in zip(self.engines, ctxs):
            if ctx.sink is not None:
                ctx.sink.open(e.machine.socket_count)
        try:
            with np.errstate(
                divide="ignore", invalid="ignore", over="ignore"
            ):
                self._loop(ctxs, closed)
        finally:
            for r, ctx in enumerate(ctxs):
                if ctx.sink is not None and r not in closed:
                    ctx.sink.close()

        results = []
        for r, (e, ctx) in enumerate(zip(self.engines, ctxs)):
            lanes = self.run_lanes[r]
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
            self._names,
            self._span_end,
            first,
            int(self.row[l]),
            first + int(self._col_shift[l]),
        )

    # -- setup ----------------------------------------------------------------------

    def _build_lanes(self, ctxs: list[RunContext]) -> None:
        """Mirror every run's objects into the lane arrays.

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
        self.procs = []
        self.run_of_list: list[int] = []
        self.run_lanes: list[list[int]] = []
        volumes: list[np.ndarray] = []
        row_first: list[int] = []
        row_end: list[int] = []
        n_rows = 0
        # Each distinct base table once: its first column, by identity.
        base_col: dict[int, int] = {}
        bases: list[np.ndarray] = []
        names: list[str] = []
        col_first: list[int] = []
        for r, (e, ctx) in enumerate(zip(engines, ctxs)):
            lanes = []
            for s, proc in enumerate(e.machine.processors):
                lanes.append(len(self.procs))
                self.procs.append(proc)
                self.run_of_list.append(r)
                base, rows = ctx.socket_apps[s].volume_rows()
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
            self.run_lanes.append(lanes)
            ctx.socket_apps.clear()
        L = self.L = len(self.procs)
        R = len(engines)
        self.run_of = np.array(self.run_of_list)

        cfg = self.socket_cfg
        core, unc, pwr, mem = cfg.core, cfg.uncore, cfg.power, cfg.memory
        self.count = core.count
        self.cmin, self.cmax, self.cstep = (
            core.min_freq_hz,
            core.max_freq_hz,
            core.step_hz,
        )
        self.base_hz = core.base_freq_hz
        self.avx_lic, self.avx_max = core.avx_license_fpc, core.avx_max_freq_hz
        self.avx_on = math.isfinite(self.avx_lic)
        self.umin, self.umax, self.ustep = (
            unc.min_freq_hz,
            unc.max_freq_hz,
            unc.step_hz,
        )
        self.static_w, self.a0, self.u0 = (
            pwr.static_w,
            pwr.core_idle_fraction,
            pwr.uncore_idle_fraction,
        )
        self.ck = core.count * pwr.k_core
        self.k_uncore = pwr.k_uncore
        self.peak_bw = mem.peak_bw_bytes
        self.bw_per_uncore = mem.bw_per_uncore_hz
        self.bw_per_core = mem.bw_per_core_hz
        self.dram_static = mem.dram_static_w
        self.dram_epb = mem.dram_energy_per_byte
        self.sat_hz = mem.peak_bw_bytes / mem.bw_per_uncore_hz
        self.has_thermal = cfg.thermal is not None
        if self.has_thermal:
            th = cfg.thermal
            self.th_r, self.th_tau = th.r_thermal_c_per_w, th.tau_s
            self.th_amb, self.th_trip = th.ambient_c, th.t_prochot_c
            self.th_hyst = th.hysteresis_c
            self.prochot_snap = self.procs[0].dvfs.snap(th.prochot_freq_hz)

        # P-state grid and the per-grid-point core power base — Python
        # floats in the scalar model's exact association order, so
        # ``core_power(f, a) == cp_base[i] * scale`` bitwise.
        n_steps = int(round((self.cmax - self.cmin) / self.cstep))
        pf = [self.cmin + i * self.cstep for i in range(n_steps + 1)]
        self.cp_base = np.array(
            [
                ((self.ck * core.voltage_at(f)) * core.voltage_at(f)) * (f / 1e9)
                for f in pf
            ],
            dtype=np.float64,
        )
        self.cp_grid = self.cp_base[None, :]
        self._grid_last = len(pf) - 1
        self._cp_top = float(self.cp_base[-1])
        # The clamp a search result ``k`` sets, at ``_clamp_tab[k + 1]``
        # (``k = -1``: no grid point fits, so the floor).
        self._clamp_tab = np.minimum(
            np.maximum(np.array([self.cmin, *pf]), self.cmin), self.cmax
        )
        # ``x + (1-x)*a`` with the ``1-x`` hoisted — same product bitwise.
        self._a1 = 1.0 - self.a0
        self._u1 = 1.0 - self.u0

        z = lambda: np.zeros(L, dtype=np.float64)  # noqa: E731
        # What a step integrates over ``dt_l``: retired flops and bytes,
        # package and DRAM energy (the point's first rows, in order),
        # APERF and MPERF (``_cyc``'s rows), then the RAPL and processor
        # clocks, which advance by ``dt_l``.
        self._acc = np.zeros((8, L), dtype=np.float64)
        (
            self.flops_ret,
            self.bytes_trans,
            self.e_pkg,
            self.e_dram,
            self.aperf,
            self.mperf,
            self.rapl_now,
            self.proc_now,
        ) = self._acc
        # The RAPL windowed averages and windows, one row per limit.
        self._avg = np.zeros((2, L), dtype=np.float64)
        self.avg1, self.avg2 = self._avg
        self._win = np.zeros((2, L), dtype=np.float64)
        self.pl1_win, self.pl2_win = self._win
        # The staged RAPL write, in ``staged_write`` order; none is
        # staged while ``pend_due`` is +inf.
        self._pend = np.zeros((5, L), dtype=np.float64)
        self._pend[0] = np.inf
        (
            self.pend_due,
            self.pend1_w,
            self.pend1_win,
            self.pend2_w,
            self.pend2_win,
        ) = self._pend
        # Cap and fleet writes stage here; the partial holds the arrays,
        # not the engine, so the lane controllers form no cycle with it.
        self._stage = partial(
            _stage, self._pend, self.rapl_now, cfg.rapl.actuation_delay_s
        )
        # Hardware state mirrored from the freshly built objects (the
        # controller attach hooks may already have actuated): rows of
        # the blocks above fill in place, other fields get an array.
        self._mirror = FIELDS + THERMAL_FIELDS if self.has_thermal else FIELDS
        for f in self._mirror:
            values = [f.read(p) for p in self.procs]
            row = self.__dict__.get(f.lane)
            if row is None:
                setattr(self, f.lane, np.array(values))
            else:
                row[:] = values
        for l, p in enumerate(self.procs):
            staged = staged_write(p)
            if staged is not None:
                self._pend[:, l] = staged
        # Each lane's operating point (see ``_points``): the rates and
        # power of its last computed (core clock, uncore clock, phase
        # row, working) key, one row per quantity.  The clocks are kept
        # as the key; a crossing changes the row and the working flag,
        # so ``_cross`` drops the crossing lanes' keys.  NaN never
        # compares equal, so a fresh or dropped key always recomputes.
        self._key_core = np.full(L, np.nan)
        self._key_unc = np.full(L, np.nan)
        # The first four rows are the rates ``_acc`` integrates; the
        # last two are the activity and traffic terms of the core and
        # uncore power, which the next step's RAPL clamp reads too.
        self._pt = np.zeros((_POINT_ROWS, L), dtype=np.float64)
        (
            self.p_flops,
            self.p_bytes,
            self.p_total,
            self.p_dram,
            self.p_prog,
            self.p_act,
            self.p_traf,
            self.p_scale,
            self.p_uterm,
        ) = self._pt
        # Before its first step a lane has zero activity and traffic.
        self.p_scale[:] = self.a0 + self._a1 * 0.0
        self.p_uterm[:] = self.u0 + self._u1 * 0.0
        # The uncore power coefficient per lane, for the clock in
        # ``_u_hz``; ``_refresh_uncore`` updates the lanes that moved.
        self._u_hz = np.full(L, np.nan)
        self._u_coef = z()
        self._all_active = True

        # Workload cursor: every lane's phases are consecutive rows of
        # the volume table; ``row`` is the lane's current phase and
        # ``row_end`` one past its last.  Row ``k`` of lane ``l`` is
        # column ``k + _col_shift[l]`` of the base tables.
        self.row = np.array(row_first, dtype=np.int64)
        self.row_end = np.array(row_end, dtype=np.int64)
        self._col_shift = np.array(col_first, dtype=np.int64) - self.row
        self._names = names
        self.phase_done = self.row >= self.row_end
        self.unfinished = np.ones(L, dtype=bool)
        self._check_finish = bool(self.phase_done.any())
        self.frac = z()
        self.finish = np.full(L, np.nan)
        # Phase spans as one column: a lane crosses its rows in order,
        # so row ``k``'s span ends at ``_span_end[k]`` and starts where
        # row ``k - 1``'s ended (at 0.0 on the lane's first row).
        self._row_first = self.row.copy()
        self._span_end = np.zeros(n_rows, dtype=np.float64)
        # The current phase's constants, one row per quantity (the
        # ``cur_*`` names are views), and the matching phase tables: a
        # crossing gathers its next row's volumes and its base column's
        # other quantities.  The bases' own volume rows go unread.
        self._vol = np.concatenate(volumes, axis=1)
        self._tab = np.empty((_PEAK + 1, len(names)), dtype=np.float64)
        np.concatenate(bases, axis=1, out=self._tab[:_PEAK])
        np.multiply(self.count, self._tab[_FPC], out=self._tab[_PEAK])
        self._cur = np.zeros((_PEAK + 1, L), dtype=np.float64)
        self._cur[[_FPC, _BOOST]] = 1.0
        self.cur_fpc, self.cur_boost = self._cur[_FPC], self._cur[_BOOST]
        first = (~self.phase_done).nonzero()[0]
        self._load_rows(first, self.row[first])
        # Batch-wide guards for optional phase terms: when no phase of
        # any lane uses a term, the kernels skip it.  The skipped
        # factors are all exactly 1.0, so skipping is bitwise free.
        self._any_us, self._any_ls, self._any_ov = (
            (self._tab[[_US, _LS, _OV]] > 0.0).any(axis=1).tolist()
        )
        self._any_boost = bool((self._tab[_BOOST] != 1.0).any())
        self._any_phase_done = bool(self.phase_done.any())

        # Last-step snapshot (the trace sample fields).
        self.st_core, self.st_uncore = z(), z()
        self.st_pkg, self.st_dram = z(), z()
        self.st_flops, self.st_bytes = z(), z()

        # Scalar flags guarding rarely-needed kernel blocks.
        self._any_pending = bool(np.isfinite(self.pend_due).any())
        self._tracing = True
        # Fleet rounds bid the last step's package power: ``_loop``
        # keeps ``st_pkg`` while a fleet can still round.
        self._keep_pkg = False
        # The effective P-state clock, refreshed where the clamp or
        # ``perf_ctl`` moves (the next preview reads it too), and the
        # MPERF reference clock: the rates APERF and MPERF count.
        self._cyc = np.empty((2, L), dtype=np.float64)
        self._eff = self._cyc[0]
        self._cyc[1] = self.base_hz
        # The grid point of each lane's clamp (-1: the floor; -2: not
        # yet resolved, so the first step resolves every lane's), and
        # the lanes it holds below the top.
        self._k = np.full(L, -2)
        self._low = np.ones(L, dtype=bool)
        self._any_low = True
        # EMA factors for the common ``dt_l == dt`` slice, one row per
        # RAPL window; lanes with a partial slice are patched
        # per-element (see ``_ema_alphas``).
        # ``_alpha_win`` holds the windows they were computed for.
        self._alpha = np.zeros((2, L), dtype=np.float64)
        self._alpha_win = np.full((2, L), np.nan)
        # Everything else derived from the mirrored fields, as after a
        # gather.
        self._after_gather()
        if self.has_thermal:
            self._alpha_th_arr = np.full(
                L, 1.0 - math.exp(-self.dt / self.th_tau)
            )

        self.next_tick = np.array(
            [ctx.runtime._next_tick_s for ctx in ctxs]
        )
        self.alive = np.ones(R, dtype=bool)
        self._lanes_left = [len(lanes) for lanes in self.run_lanes]
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
        self.rem = z()
        self._end_tick = [0] * R
        # Multi-socket runs share ticks: their lanes start the next one
        # together, reduced over each run's contiguous lane block.
        self._run_first = (
            None
            if L == R
            else np.array([lanes[0] for lanes in self.run_lanes])
        )
        self._init_lane_controllers(ctxs)

    def _init_lane_controllers(self, ctxs: list[RunContext]) -> None:
        """Build the lane-parallel controller state for eligible runs.

        Runs that fail :func:`controller_lane_fallback_reason` keep the
        per-run scatter/gather tick; their lanes simply never appear in
        the index arrays handed to the vector tick forms.
        """
        engines = self.engines
        L = self.L
        self._vec_run = [
            controller_lane_fallback_reason(e) is None for e in engines
        ]
        self._any_vec = any(self._vec_run)
        if not self._any_vec:
            return

        # Per-run tick parameters (the runtime's measurement loop), and
        # the size of each run's contiguous lane block.
        self._interval = np.array(
            [e.controller_cfg.interval_s for e in engines]
        )
        self._nlanes = np.array([len(lanes) for lanes in self.run_lanes])
        # Per-lane noise sigma of each measured rate, in draw order.
        sigma = np.array(
            [
                (e.noise.counter_noise,) * 2 + (e.noise.power_noise,) * 2
                for e in engines
            ]
        )
        self._sigma = sigma[self.run_of]
        # Prefetched measurement-noise blocks (see ``_noise_draws``):
        # run ``r``'s block is ``_nz[_nz_off[r]:][:_nz_len[r]]`` and its
        # next unused draw sits at ``_nz_cur[r]``; a block starts used up.
        self._rngs = [ctx.rng for ctx in ctxs]
        noisy = np.array(self._vec_run) & (sigma > 0.0).any(axis=1)
        self._nz_len = np.where(noisy, noise_block_len(self._nlanes), 0)
        self._nz_off = np.cumsum(self._nz_len) - self._nz_len
        self._nz_cur = self._nz_len.copy()
        self._nz = np.empty(self._nz_len.sum())
        self._tick_log = _TickColumns()

        # Per-lane controllers and their vector tick forms, dispatched
        # by a small integer code so one due set groups by form.
        self.ctrls = [c for e in engines for c in e.controllers]
        codes: dict = {}
        self.ctrl_kind = np.zeros(L, dtype=np.int8)
        for l, ctrl in enumerate(self.ctrls):
            form = vector_tick_form(ctrl)
            if form is not None:
                self.ctrl_kind[l] = codes.setdefault(form, len(codes))
        self._tick_forms = list(codes)

        def cfg_arr(name: str) -> np.ndarray:
            return np.array(
                [
                    getattr(engines[r].controller_cfg, name)
                    for r in self.run_of_list
                ]
            )

        # Mirrors of the PAPI event-set counters: the raw integer reads
        # latched at meter start (all counters are zero there, but the
        # mirrors are derived through the same read formulas so the
        # invariant is by construction, not by assumption).
        rc = self.procs[0].rapl.cfg
        self._e_unit = rc.energy_unit_j
        self._e_span = float(1 << rc.counter_bits)
        self._e_wrap = float(
            int((1 << rc.counter_bits) * rc.energy_unit_j * 1e9)
        )
        self._mt_f = np.trunc(self.flops_ret)
        self._mt_c = np.trunc(self.bytes_trans / float(CACHE_LINE_BYTES))
        self._mt_p = self._energy_raw_nj(self.e_pkg)
        self._mt_d = self._energy_raw_nj(self.e_dram)

        # The actuator pin points as the attach hooks left them.
        pin = np.zeros(L)
        for r, lanes in enumerate(self.run_lanes):
            for s, l in enumerate(lanes):
                pin[l] = ctxs[r].runtime.contexts[s].uncore.pinned_freq_hz

        tol = cfg_arr("tolerated_slowdown")
        err = cfg_arr("measurement_error")
        self._lane_state = LaneControllerState(
            detector=PhaseDetectorLanes(cfg_arr("phase_flops_jump")),
            uncore=UncoreLanes(
                pin=pin,
                win_lo=self.win_lo,
                win_hi=self.win_hi,
                freq=self.ufreq,
                min_hz=self.umin,
                max_hz=self.umax,
                step_hz=cfg_arr("uncore_step_hz"),
            ),
            flops=SlowdownLanes(tol, err),
            bandwidth=SlowdownLanes(tol, err),
            last_increase_flops=np.full(L, np.nan),
            cap=CapLanes(
                pl1_w=self.pl1_w,
                pl1_win=self.pl1_win,
                pl2_win=self.pl2_win,
                stage=self._stage,
                step_w=cfg_arr("cap_step_w"),
                floor_w=cfg_arr("cap_floor_w"),
                default_w=rc.pl1_default_w,
                default_pl2_w=rc.pl2_default_w,
                default_win1=rc.pl1_window_s,
                default_win2=rc.pl2_window_s,
            ),
            cap_flops=SlowdownLanes(tol, err),
            cap_bw=SlowdownLanes(tol, err),
            joint_reset_pending=np.zeros(L, dtype=bool),
            measurement_error=err,
            oi_highly_memory=cfg_arr("oi_highly_memory"),
            oi_memory_boundary=cfg_arr("oi_memory_boundary"),
            oi_highly_cpu=cfg_arr("oi_highly_cpu"),
        )

    def _energy_raw_nj(self, energy_j: np.ndarray) -> np.ndarray:
        """The PAPI rapl component's raw nJ read, vectorized.

        Mirrors ``int(domain.counter * energy_unit_j * 1e9)`` with
        ``counter = int(energy_j / unit) % 2**bits``; every quantity is
        a non-negative integer below 2**53, so ``np.trunc``/``np.mod``
        reproduce the Python ``int()``/``%`` bit-for-bit.
        """
        counter = np.mod(np.trunc(energy_j / self._e_unit), self._e_span)
        return np.trunc((counter * self._e_unit) * 1e9)

    def _load_rows(self, lanes: np.ndarray, rows: np.ndarray) -> None:
        """Gather phase-table ``rows`` into the current-phase arrays."""
        self._cur[_VOLUMES, lanes] = self._vol[:, rows]
        self._cur[_FPC:, lanes] = self._tab[_FPC:, rows + self._col_shift[lanes]]

    def _refresh_uncore(self) -> None:
        """Resync the uncore terms after controllers may have moved them.

        Recomputes the power coefficient of each lane whose uncore clock
        moved, and the governor's lanes: those whose window is open or
        whose clock is off its pin.  DUF/DUFP pin the window at every
        decision, so after their first tick the governor is the
        identity on their lanes (``advance`` assigns ``window_lo``,
        which the clock already equals) and skips them.
        """
        moved = (self.ufreq != self._u_hz).nonzero()[0]
        if len(moved):
            self._uncore_terms(moved)
        self._gov = (
            (self.win_lo != self.win_hi) | (self.ufreq != self.win_lo)
        ).nonzero()[0]

    def _uncore_terms(self, lanes: np.ndarray) -> None:
        """The uncore power coefficient of ``lanes`` at their clocks."""
        f = self.ufreq[lanes]
        uv = self._uvolt(f)
        self._u_coef[lanes] = ((self.k_uncore * uv) * uv) * (f / 1e9)
        self._u_hz[lanes] = f

    # -- main loop -------------------------------------------------------------------

    def _loop(self, ctxs: list[RunContext], closed: set[int]) -> None:
        dt = self.dt
        times = self._times
        max_times = [e.engine_cfg.max_sim_time_s for e in self.engines]
        injector_runs = [
            r for r, ctx in enumerate(ctxs) if ctx.injector is not None
        ]
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
            self._keep_pkg = bool(rounding)
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
                and any(
                    alive[r]
                    and (self._lanes_left[r] > 0 or self._end_tick[r] >= sync)
                    for r in runs
                )
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
                    self._tick_lanes(vec_due, now)
                if sg:
                    self._after_gather()
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
        alive = self.alive
        pkg = self.st_pkg.tolist()
        power = [
            [pkg[l] for l in self.run_lanes[r]] if alive[r] else None
            for r in runs
        ]
        for r, per_socket_w in zip(runs, fleet.round(tick, power)):
            if per_socket_w is None:
                continue
            if not alive[r]:
                self._write_objects(r, per_socket_w)
                continue
            lanes = self.run_lanes[r]
            for l in lanes:
                self.procs[l].rapl.check_limits(per_socket_w, per_socket_w)
            w = per_socket_w
            self._stage(lanes, w, self.pl1_win[lanes], w, self.pl2_win[lanes])
            self._any_pending = True

    def _write_objects(self, r: int, per_socket_w: float) -> None:
        """Stage a fleet write on run ``r``'s RAPL objects."""
        for proc in self.engines[r].machine.processors:
            proc.rapl.set_limits(per_socket_w, per_socket_w)

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
                self._sync_lane_controllers(r, ctx)
                for l in self.run_lanes[r]:
                    attach(
                        self.ctrls[l], "ticks", partial(self._tick_log.entries, l)
                    )
            if ctx.sink is not None:
                ctx.sink.close()
                closed.add(r)

    def _record(self, ctxs: list[RunContext], trace_runs: list[int]) -> None:
        """Hand this tick's trace fields to every recording run's sink."""
        times = self.proc_now.tolist()
        cores = self.st_core.tolist()
        uncores = self.st_uncore.tolist()
        pkgs = self.st_pkg.tolist()
        drams = self.st_dram.tolist()
        caps = self.pl1_w.tolist()
        flops = self.st_flops.tolist()
        bts = self.st_bytes.tolist()
        temps = self.temp.tolist() if self.has_thermal else None
        alive = self.alive
        for r in trace_runs:
            if not alive[r]:
                continue
            record = ctxs[r].sink.record_step
            for s, l in enumerate(self.run_lanes[r]):
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
                    temps[l] if temps is not None else None,
                )

    # -- lane-parallel controller ticks ------------------------------------------------
    #
    # The vector mirror of ``ControllerRuntime.on_time`` for eligible
    # runs: the measurement interval, the PAPI counter reads, the noise
    # draws and the controller decision all execute on the lane arrays,
    # with no scatter/gather.  Eligibility
    # (``controller_lane_fallback_reason``) guarantees the scalar
    # degraded-telemetry branches are unreachable: no injector means the
    # meter never raises and never returns non-finite rates, so every
    # tick takes the clean path — interval ``dt = interval + (now -
    # next_tick)`` with no debt or jitter, one measurement, one tick.

    def _tick_lanes(self, runs: np.ndarray, now: float) -> None:
        """Fire the due controller ticks of ``runs`` on the lane arrays."""
        # Each run's interval spans from its last tick to ``now``; its
        # lanes are one contiguous block, so the due lanes are a run of
        # aranges (``pos0`` is where each run's lanes start in ``idx``).
        interval = self._interval[runs]
        dt_r = interval + (now - self.next_tick[runs])
        self.next_tick[runs] = now + interval
        if self._run_first is None:
            idx, dt, pos0 = runs, dt_r, None
        else:
            counts = self._nlanes[runs]
            pos0 = np.cumsum(counts) - counts
            idx = np.repeat(self._run_first[runs] - pos0, counts) + np.arange(
                pos0[-1] + counts[-1]
            )
            dt = np.repeat(dt_r, counts)

        # EventSet.read_reset: raw integer counter reads and deltas
        # against the mirrors (RAPL nJ deltas modulo the wrap range).
        raw_f = np.trunc(self.flops_ret[idx])
        raw_c = np.trunc(self.bytes_trans[idx] / float(CACHE_LINE_BYTES))
        raw_p = self._energy_raw_nj(self.e_pkg[idx])
        raw_d = self._energy_raw_nj(self.e_dram[idx])
        d_f = raw_f - self._mt_f[idx]
        d_c = raw_c - self._mt_c[idx]
        d_p = np.mod(raw_p - self._mt_p[idx], self._e_wrap)
        d_d = np.mod(raw_d - self._mt_d[idx], self._e_wrap)
        self._mt_f[idx] = raw_f
        self._mt_c[idx] = raw_c
        self._mt_p[idx] = raw_p
        self._mt_d[idx] = raw_d

        # IntervalMeter.sample: deltas -> rates, in the scalar
        # association order, one row per lane.
        rates = np.empty((len(idx), _RATES))
        np.divide(d_f, dt, out=rates[:, 0])
        np.divide(d_c * float(CACHE_LINE_BYTES), dt, out=rates[:, 1])
        np.divide(d_p * 1e-9, dt, out=rates[:, 2])
        np.divide(d_d * 1e-9, dt, out=rates[:, 3])

        # Measurement noise: the scalar meter draws per socket for
        # flops, bytes, pkg, dram — row-major order here — and skips a
        # zero value or a zero sigma.  ``max(v * (1 + sigma*z), 0.0)``
        # is exact IEEE arithmetic, so the vector form matches it.
        # ``dr`` exists only for noise-stream parity (no controller
        # reads the DRAM rate).
        sigma = self._sigma[idx]
        draw = (sigma > 0.0) & (rates != 0.0)
        per_lane = np.count_nonzero(draw, axis=1)
        if per_lane.any():
            need = per_lane if pos0 is None else np.add.reduceat(per_lane, pos0)
            z = self._noise_draws(runs, need)
            rates[draw] = np.maximum(
                rates[draw] * (1.0 + sigma[draw] * z), 0.0
            )
        fl, by, pk = rates[:, 0], rates[:, 1], rates[:, 2]

        # Measurement.operational_intensity (inf on no memory traffic).
        oi = np.where(by <= 0.0, np.inf, fl / by)

        # Dispatch per controller kind (runs usually share one form).
        st = self._lane_state
        kinds = self.ctrl_kind[idx]
        # ``bincount`` keeps ``numpy.ma`` unimported (``np.unique``
        # loads it); the codes come out in the same ascending order.
        for code in np.flatnonzero(np.bincount(kinds)):
            pos_k = (kinds == code).nonzero()[0]
            sub = idx[pos_k]
            form = self._tick_forms[code]
            changed, cap_act, unc_act = form.tick(
                st, sub, fl[pos_k], by[pos_k], pk[pos_k], oi[pos_k]
            )
            uncore = self.ufreq if form.log_only else st.uncore.pin
            self._log_lane_ticks(now, sub, changed, cap_act, unc_act, uncore)

        # Cache maintenance the scalar path performs via ``_gather`` /
        # ``_after_gather``: staged cap writes re-arm the pending-latch
        # scan (off, it saw no other write staged); moved uncore pins
        # refresh their lanes' uncore terms (their operating points miss
        # on the clock).  Only ``_clocks`` moves the RAPL clamp and only
        # ``_gather`` moves ``perf_ctl``, so ``_eff`` stays valid.
        if not self._any_pending:
            self._any_pending = bool(np.isfinite(self.pend_due[idx]).any())
        self._refresh_uncore()

    def _noise_draws(self, runs: np.ndarray, need: np.ndarray) -> np.ndarray:
        """The next ``need[i]`` standard-normal draws of each of ``runs``.

        Draws come from each run's prefetched block.  A run whose block
        has fewer than ``need`` left moves the leftover to the front and
        refills the rest with one ``standard_normal`` call on its own
        generator.  ``standard_normal(k)`` consumes the bit stream like
        ``k`` scalar draws, so a run's blocks, read in order, are exactly
        the scalar meter's draw sequence; nothing else draws from a
        vector run's generator during the batch.
        """
        cur, size = self._nz_cur, self._nz_len
        c = cur[runs]
        short = c + need > size[runs]
        if short.any():
            nz, off = self._nz, self._nz_off
            for r in runs[short].tolist():
                block = nz[off[r] : off[r] + size[r]]
                used = cur[r]
                block[: size[r] - used] = block[used:]
                block[size[r] - used :] = self._rngs[r].standard_normal(used)
                cur[r] = 0
            c = cur[runs]
        ends = np.cumsum(need)
        pos = np.repeat(self._nz_off[runs] + c - (ends - need), need)
        cur[runs] = c + need
        return self._nz[pos + np.arange(ends[-1])]

    def _log_lane_ticks(
        self,
        now: float,
        idx: np.ndarray,
        changed: np.ndarray,
        cap_act: np.ndarray | None,
        unc_act: np.ndarray,
        uncore: np.ndarray,
    ) -> None:
        """Log each lane's tick as columns, as the scalar tick's TickLog.

        ``cap_w`` reads the *latched* PL1 limit (pending writes from
        this very tick have not taken effect — same as the scalar
        ``ctx.cap.cap_w`` read at log time); ``uncore_hz`` reads
        ``uncore``: an acting form's post-action pin (the scalar MSR
        write is immediate), a log-only form's running uncore clock.
        The controllers build their :class:`TickLog` lists from these
        columns when read (see :meth:`Controller.ticks`).
        """
        if cap_act is None:
            cap_act = np.full(len(idx), LANE_HOLD, dtype=np.int8)
        lanes = idx.astype(np.int32)
        self._tick_log.records.append(
            (now, lanes, self.pl1_w[idx], uncore[idx], changed, cap_act, unc_act)
        )

    def _sync_lane_controllers(self, r: int, ctx: RunContext) -> None:
        """Replay a finished vector run's actuations into its objects.

        ``_scatter`` already synced everything the arrays track; what
        remains is the actuator-owned state the scalar tick would have
        written through the real objects: the uncore pin (MSR 0x620
        plus the driver's window snap — idempotent when re-applied) and
        the cap actuator's ``just_reset`` latch.  Controller-internal
        tracker state (phase maxima, detector history) is deliberately
        not synced: nothing observable reads it after the run ends.
        A log-only form never actuated, so its lanes replay nothing: a
        re-pin would close a default run's open uncore window and
        overwrite the pin a static-uncore baseline set at attach.
        """
        st = self._lane_state
        forms = self._tick_forms
        for s, l in enumerate(self.run_lanes[r]):
            if forms[self.ctrl_kind[l]].log_only:
                continue
            sctx = ctx.runtime.contexts[s]
            sctx.uncore._pin(float(st.uncore.pin[l]))
            sctx.cap.just_reset = bool(st.cap.just_reset[l])

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
        first = self._run_first
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
            self._all_active = n == self.L
            self._pass(active)

    def _pass(self, active: np.ndarray) -> None:
        """One sub-slice for every ``active`` lane: preview, step, cross."""
        rem = self.rem
        if self._check_finish:
            newly = active & self.phase_done & self.unfinished
            if newly.any():
                self._finish(newly.nonzero()[0].tolist())
        # ``_step`` and everything below treat the masks read-only, so
        # aliasing is safe when no lane has retired its phase list.
        working = (
            active & ~self.phase_done if self._any_phase_done else active
        )
        rate, core_hz = self._clocks(active, working)
        slice_ = rem
        ttf = None
        if np.count_nonzero(working):
            if not np.all(rate > 0.0, where=working):
                l = int((working & ~(rate > 0.0)).nonzero()[0][0])
                raise SimulationError(
                    f"phase {self._names[self.row[l] + self._col_shift[l]]!r} "
                    "makes no progress"
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
            r = self.run_of_list[l]
            self._lanes_left[r] -= 1
            if self._lanes_left[r] == 0:
                self._maybe_done.append(r)
                self._end_tick[r] = k
                self.ticks[self.run_lanes[r]] = _PARKED
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
        # The row and the working flag are part of the point's key.
        self._key_core[crossed] = np.nan
        rows += 1
        self.row[crossed] = rows
        more = rows < self.row_end[crossed]
        if not more.all():
            done = crossed[~more]
            self.phase_done[done] = True
            # A lane with no phase left idles at boost 1.0, so the step
            # can read ``cur_boost`` unmasked on every active lane.
            self.cur_boost[done] = 1.0
            self._any_phase_done = self._check_finish = True
            crossed, rows = crossed[more], rows[more]
        if len(crossed):
            self._load_rows(crossed, rows)

    # -- vector kernels ---------------------------------------------------------------

    def _csnap(self, f: np.ndarray) -> np.ndarray:
        inner = self.cmin + np.trunc((f - self.cmin) / self.cstep) * self.cstep
        return np.where(
            f <= self.cmin,
            self.cmin,
            np.where(f >= self.cmax, self.cmax, inner),
        )

    def _usnap(self, f: np.ndarray) -> np.ndarray:
        inner = self.umin + np.rint((f - self.umin) / self.ustep) * self.ustep
        return np.where(
            f <= self.umin,
            self.umin,
            np.where(f >= self.umax, self.umax, inner),
        )

    def _cvolt(self, f: np.ndarray) -> np.ndarray:
        core = self.socket_cfg.core
        if self.cmax == self.cmin:
            return np.full_like(f, core.v_max)
        t = (f - self.cmin) / (self.cmax - self.cmin)
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        return core.v_min + t * (core.v_max - core.v_min)

    def _uvolt(self, f: np.ndarray) -> np.ndarray:
        unc = self.socket_cfg.uncore
        if self.umax == self.umin:
            return np.full_like(f, unc.v_max)
        t = (f - self.umin) / (self.umax - self.umin)
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        return unc.v_min + t * (unc.v_max - unc.v_min)

    def _refresh_alpha(self) -> None:
        """Recompute the full-slice EMA factors whose window moved.

        A latched or gathered limit mostly keeps its window, so its
        factor stands.
        """
        moved = (self._win != self._alpha_win).nonzero()
        if len(moved[0]):
            x = -self.dt / self._win[moved]
            self._alpha[moved] = 1.0 - np.array(list(map(math.exp, x.tolist())))
            self._alpha_win[moved] = self._win[moved]

    def _ema_alphas(
        self, dt_l: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``1 - exp(-dt_l/window)`` factors, bit-exact per active lane.

        One row per RAPL window, and the thermal factor.  Almost every
        active lane steps the full tick ``dt`` (factor precomputed in
        ``_refresh_alpha``); only lanes split at a phase boundary need
        a fresh :func:`math.exp`, patched per element.  Inactive lanes
        get meaningless factors: the caller masks them.
        """
        a = self._alpha
        a_th = self._alpha_th_arr if self.has_thermal else None
        split = dt_l != self.dt
        if not self._all_active:
            split &= active
        odd = split.nonzero()[0]
        if len(odd):
            # ``-d / w`` is the scalar ``-dt / window`` bit for bit (IEEE
            # division is exact to the rounding and sign-symmetric).
            neg = -dt_l[odd]
            x = neg / self._win[:, odd]
            a = a.copy()
            a[:, odd] = 1.0 - np.array(
                list(map(math.exp, x.ravel().tolist()))
            ).reshape(x.shape)
            if a_th is not None:
                a_th = a_th.copy()
                a_th[odd] = 1.0 - np.array(
                    list(map(math.exp, (neg / self.th_tau).tolist()))
                )
        return a, a_th

    def _pnorm(
        self, a: np.ndarray, b: np.ndarray, lanes: np.ndarray
    ) -> np.ndarray:
        """:func:`repro.units.smooth_max` of ``a`` and ``b``, per lane.

        Every phase has work, so no lane has both times zero.  A scalar
        loop: bit-identity needs ``math``'s pow, and ``np.power``
        differs by ulps.  The max ``m`` is factored out as
        ``smooth_max`` does, and its own term ``(m / m) ** p`` is
        exactly 1.0, so ``m * (1 + (min / m) ** p) ** (1 / p)`` is its
        float bit for bit (and ``m`` itself where the other time is
        zero), with the divisions and products done once for all lanes
        (IEEE arithmetic, exact as numpy does it).
        """
        m = np.maximum(a, b)
        r = (np.minimum(a, b) / m).tolist()
        p = self.sharpness[lanes].tolist()
        return m * np.array([(1.0 + x**s) ** (1.0 / s) for x, s in zip(r, p)])

    def _points(
        self,
        lanes: np.ndarray,
        core_hz: np.ndarray,
        unc: np.ndarray,
        working: np.ndarray | None,
    ) -> np.ndarray:
        """The operating points of ``lanes``, as ``_pt`` rows.

        ``PhaseExecutionModel.instantaneous`` + ``package_power`` +
        ``dram_power`` over an index set (a lane may appear twice):
        ``core_hz`` and ``unc`` hold each entry's clocks, and
        ``working`` flags the entries that execute their lane's phase
        (``None``: all do).  An entry that does not work idles: zero
        rates, idle power.  Every value is a pure function of the key
        (clocks, phase row, working), so a later step at the same key
        reuses it bit for bit.
        """
        cur = self._cur[:, lanes]
        t_c = cur[_FLOPS] / (cur[_PEAK] * core_hz)
        bw = np.minimum(
            np.minimum(self.peak_bw, self.bw_per_uncore * unc),
            (self.bw_per_core * core_hz) * self.count,
        )
        t_m = cur[_BYTES] / bw
        # The latency and uncore sensitivity factors (adjacent rows) are
        # exactly 1.0 for a phase without the term (``0 * (ratio - 1)``
        # with a finite ratio >= 1), and multiply a zero time where a
        # phase has no flops or bytes, so they apply unmasked.
        if self._any_us or self._any_ls:
            ls, us = 1.0 + cur[_LS : _US + 1] * (self.umax / unc - 1.0)
            t_c *= us
            t_m *= ls
        t = self._pnorm(t_c, t_m, lanes)
        # ``x / inf == +0.0`` exactly, so an infinite time zeroes every
        # rate of an idle lane in one shot.
        if working is not None:
            t = np.where(working, t, np.inf)
        out = np.empty((_POINT_ROWS, len(lanes)))
        (
            flops_rate,
            bytes_rate,
            total,
            dram_w,
            prog,
            activity,
            traffic,
            scale,
            uterm,
        ) = out
        np.divide(cur[_FLOPS : _BYTES + 1], t, out=out[:2])
        np.divide(1.0, t, out=prog)
        np.minimum(t_c / t, 1.0, out=activity)
        np.minimum(bytes_rate / self.peak_bw, 1.0, out=traffic)

        cv = self._cvolt(core_hz)
        np.add(self.a0, self._a1 * activity, out=scale)
        np.add(self.u0, self._u1 * traffic, out=uterm)
        core_w = (((self.ck * cv) * cv) * (core_hz / 1e9)) * scale
        if self._any_boost:
            # 1.0 on an idle lane (see ``_cross``).
            core_w *= cur[_BOOST]
        np.add(self.static_w + core_w, self._u_coef[lanes] * uterm, out=total)
        # Overfetch below the saturating uncore clock.  Its factor is
        # exactly 1.0 without overfetch or at and above that clock, and
        # an idle lane moves no bytes, so it applies unmasked.
        dram_traffic = bytes_rate
        if self._any_ov:
            dram_traffic = bytes_rate * (
                1.0 + cur[_OV] * np.maximum(1.0 - unc / self.sat_hz, 0.0)
            )
        np.add(self.dram_static, self.dram_epb * dram_traffic, out=dram_w)
        return out

    def _clamp(
        self, lanes: np.ndarray, scale: np.ndarray, budget_cores: np.ndarray
    ) -> None:
        """``PackagePowerModel.max_core_freq_under`` on ``lanes``.

        Grid point ``i`` fits when ``(cp_base[i] * scale) * boost <=
        budget_cores``, the scalar model's products in its order, and
        the search returns the last one that fits (-1 when none does).
        The products rise with ``i``, so the points that fit are a
        prefix and the last one is their count less one.  Lanes whose
        grid point moved take its clamp and a fresh effective clock.
        """
        p = self.cp_grid * scale[:, None]
        if self._any_boost:
            p = p * self.cur_boost[lanes, None]
        k = np.count_nonzero(p <= budget_cores[:, None], axis=1) - 1
        new = (k != self._k[lanes]).nonzero()[0]
        if not len(new):
            return
        lanes, k = lanes[new], k[new]
        self._k[lanes] = k
        self._low[lanes] = k < self._grid_last
        self._any_low = bool(self._low.any())
        clamp = self._clamp_tab[k + 1]
        self.clamp[lanes] = clamp
        self._eff[lanes] = self._csnap(
            np.minimum(np.minimum(self.req[lanes], self.ctl[lanes]), clamp)
        )

    def _governor(self, lanes: np.ndarray) -> None:
        """The hardware uncore governor's move on ``lanes``, in its window."""
        lo, hi = self.win_lo[lanes], self.win_hi[lanes]
        pinned = lo == hi
        demand = self.demand[lanes]
        demand_t = np.minimum(self.p_traf[lanes] / self.g_sat[lanes], 1.0)
        demand_t = np.where(
            self.p_act[lanes] >= self.g_thresh[lanes],
            np.maximum(demand_t, self.g_floor[lanes]),
            demand_t,
        )
        new_demand = demand + self.g_resp[lanes] * (demand_t - demand)
        target = lo + new_demand * (hi - lo)
        self.demand[lanes] = np.where(pinned, demand, new_demand)
        freq = np.where(pinned, lo, self._usnap(target))
        moved = lanes[freq != self.ufreq[lanes]]
        self.ufreq[lanes] = freq
        if len(moved):
            self._uncore_terms(moved)

    def _clocks(
        self, active: np.ndarray, working: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Steps 1-5 of ``SimulatedProcessor.step``, and the preview.

        ``preview_progress_rate`` runs at the clocks the last step left.
        A working lane whose preview key equals its cached key (no
        crossing, no controller move since) previews from the cache;
        the others keep their preview clocks.  The step's clamp,
        uncore move and clocks read only the last step's state, so they
        resolve next, before the slice is known, and the operating
        point of each active lane whose key moved is recomputed into
        the cache.  A preview lane previews at its step's point, or,
        where the step's clocks moved too, at a point computed beside
        the step's in the same call.

        Returns the preview's progress rate (meaningful on working
        lanes) and the step's core clocks.
        """
        all_active = self._all_active
        key_core, key_unc = self._key_core, self._key_unc
        unc = self.ufreq
        pcore = self._eff
        if self.avx_on:
            pcore = np.where(
                self.cur_fpc >= self.avx_lic,
                np.minimum(pcore, self.avx_max),
                pcore,
            )
        stale = (pcore != key_core) | (unc != key_unc)
        stale &= working
        pv = stale.nonzero()[0]
        pcore, punc = pcore[pv], unc[pv]
        rate = self.p_prog.copy()

        # 1. RAPL firmware: windowed averages -> budget -> clamp.  With
        # headroom ``h >= 0`` the budget ``PL1 + 2h`` is positive (PL1
        # is), so one ``maximum`` covers both of the scalar branches.
        h = self.pl1_w - self.avg1
        budget = np.maximum(self.pl1_w + 2.0 * h, 0.0)
        if self._all_en:
            budget = np.minimum(budget, self.pl2_w)
        else:
            budget = np.where(self.pl1_en, budget, np.inf)
            budget = np.where(
                self.pl2_en, np.minimum(budget, self.pl2_w), budget
            )
        # Until step 4-5 refreshes it, the cache holds each lane's last
        # step's point: its activity and traffic are the scalar
        # ``_prev_activity`` and ``_prev_traffic``, and its power terms
        # the ones the scalar clamp derives from them.
        up_prev = self._u_coef * self.p_uterm
        budget_cores = budget - (self.static_w + up_prev)
        scale_prev = self.p_scale
        top = self._cp_top * scale_prev
        if self._any_boost:
            # 1.0 on an idle lane (see ``_cross``).
            top = top * self.cur_boost
        fit = top <= budget_cores
        # A lane whose top grid point fits gets it, as the search would
        # return, and keeps it while it fits; only lanes that are, or
        # were, power-limited move their clamp.
        if self._any_low or not fit.all():
            moved = ~fit | self._low
            if not all_active:
                moved &= active
            mv = moved.nonzero()[0]
            if len(mv):
                self._clamp(mv, scale_prev[mv], budget_cores[mv])

        # 2. Hardware uncore governor moves inside its window; on a
        # pinned lane whose clock sits on the pin ``advance`` is the
        # identity, so only ``_gov``'s lanes run it.
        gov = self._gov
        if len(gov):
            if not all_active:
                gov = gov[active[gov]]
            if len(gov):
                self._governor(gov)

        # 3. Core clock resolution (+ AVX license, + PROCHOT).
        eff = self._eff
        core_hz = eff
        if self.avx_on:
            core_hz = np.where(
                working & (self.cur_fpc >= self.avx_lic),
                np.minimum(eff, self.avx_max),
                eff,
            )
        if self.has_thermal:
            core_hz = np.where(
                self.prochot,
                np.minimum(core_hz, self.prochot_snap),
                core_hz,
            )

        # 4-5. Roofline rates and package + DRAM power: the cached
        # operating point, recomputed on the lanes whose key moved.
        # The phase row and working flag are part of the key too; they
        # change only at a crossing, which drops the key (``_cross``).
        moved = (core_hz != key_core) | (unc != key_unc)
        if not all_active:
            moved &= active
        mv = moved.nonzero()[0]
        n = len(mv)
        lanes, cores, uncs = mv, core_hz[mv], unc[mv]
        idle = working is not active
        works = working[mv] if idle else None
        if len(pv):
            # A preview lane at its step's clocks moved its key, so the
            # step recomputes it; the rest get points of their own.
            own = (pcore != core_hz[pv]) | (punc != unc[pv])
            ex = own.nonzero()[0]
            if len(ex):
                lanes = np.concatenate((mv, pv[ex]))
                cores = np.concatenate((cores, pcore[ex]))
                uncs = np.concatenate((uncs, punc[ex]))
                if idle:
                    works = np.concatenate((works, np.ones(len(ex), dtype=bool)))
        if len(lanes):
            out = self._points(lanes, cores, uncs, works)
            self._pt[:, mv] = out[:, :n]
            key_core[mv] = cores[:n]
            key_unc[mv] = uncs[:n]
        if len(pv):
            at = pv[~own]
            rate[at] = out[_PROG, np.searchsorted(mv, at)]
            if len(ex):
                rate[pv[ex]] = out[_PROG, n:]
        return rate, core_hz

    def _step(
        self, dt_l: np.ndarray, active: np.ndarray, core_hz: np.ndarray
    ) -> np.ndarray:
        """Steps 6-9 of ``SimulatedProcessor.step`` over ``dt_l``, at
        the operating points ``_clocks`` resolved."""
        all_active = self._all_active
        total = self.p_total

        # 6. RAPL step: meter energy, latch pending limits, averages.
        # The integrals drop the ``active`` mask: inactive lanes have
        # ``dt_l == 0`` and finite rates, so their increment is an
        # exact ``+0.0``, a bitwise no-op on the non-negative state.
        acc = self._acc
        acc[:4] += self._pt[:4] * dt_l
        acc[4:6] += self._cyc * dt_l
        acc[6:] += dt_l
        if self._any_pending:
            # No write pending is due at +inf.
            latched = self.rapl_now >= self.pend_due
            if not all_active:
                latched &= active
            if latched.any():
                np.copyto(self.pl1_w, self.pend1_w, where=latched)
                np.copyto(self.pl1_win, self.pend1_win, where=latched)
                np.copyto(self.pl2_w, self.pend2_w, where=latched)
                np.copyto(self.pl2_win, self.pend2_win, where=latched)
                self.pl1_en |= latched
                self.pl2_en |= latched
                self.pend_due[latched] = np.inf
                self._any_pending = bool(np.isfinite(self.pend_due).any())
                self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
                self._refresh_alpha()
        a, a_th = self._ema_alphas(dt_l, active)
        avg = self._avg
        if all_active:
            avg += a * (total - avg)
        else:
            np.copyto(avg, avg + a * (total - avg), where=active)

        # 7. Thermal RC + PROCHOT hysteresis.
        if self.has_thermal:
            th_target = self.th_amb + total * self.th_r
            np.copyto(
                self.temp,
                self.temp + a_th * (th_target - self.temp),
                where=active,
            )
            self.prochot = np.where(
                active & (self.temp >= self.th_trip),
                True,
                np.where(
                    active & (self.temp <= self.th_trip - self.th_hyst),
                    False,
                    self.prochot,
                ),
            )

        # 9. Trace snapshot (skipped when no run records a trace); a
        # live fleet needs only the package power.
        if self._tracing:
            np.copyto(self.st_core, core_hz, where=active)
            np.copyto(self.st_uncore, self.ufreq, where=active)
            np.copyto(self.st_pkg, total, where=active)
            np.copyto(self.st_dram, self.p_dram, where=active)
            np.copyto(self.st_flops, self.p_flops, where=active)
            np.copyto(self.st_bytes, self.p_bytes, where=active)
        elif self._keep_pkg:
            np.copyto(self.st_pkg, total, where=active)
        # Finite on every lane, and zero on an active lane that idles.
        return self.p_prog

    # -- object <-> array sync --------------------------------------------------------

    def _scatter(self, r: int) -> None:
        """Write the lane arrays back into run ``r``'s object graph.

        Everything the controller tick can *read* must be current:
        the PAPI counters, RAPL limits/pending/energy, MSR read hooks
        (APERF/MPERF, uncore status, effective frequency), thermals.
        """
        procs, lanes = self.procs, self.run_lanes[r]
        for f in self._mirror:
            if f.scatter:
                arr = getattr(self, f.lane)
                for l in lanes:
                    f.write(procs[l], arr.item(l))
        for l in lanes:
            stage_write(procs[l], *self._pend[:, l].tolist())

    def _gather(self, r: int) -> None:
        """Read back everything the controllers may have actuated."""
        procs, lanes = self.procs, self.run_lanes[r]
        for f in self._mirror:
            if f.gather:
                arr = getattr(self, f.lane)
                for l in lanes:
                    arr[l] = f.read(procs[l])
        # A tick stages writes but never clears one: only the RAPL
        # step latches a write, and the lanes step in its place.
        for l in lanes:
            staged = staged_write(procs[l])
            if staged is not None:
                self._pend[:, l] = staged
                self._any_pending = True

    def _after_gather(self) -> None:
        """Batch-wide refreshes after a group of ``_gather`` calls.

        These scan whole arrays, so one pass after all due runs have
        synced replaces a pass per run.
        """
        self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
        self._refresh_alpha()
        self._refresh_uncore()
        # ``perf_ctl`` may have moved.
        self._eff[:] = self._csnap(
            np.minimum(np.minimum(self.req, self.ctl), self.clamp)
        )


def _chunks(items: list[int], size: int) -> list[list[int]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


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
        for chunk in _chunks(idxs, max_batch or len(idxs)):
            out = BatchSimulationEngine(
                [engines[i] for i in chunk], local
            ).run()
            for i, res in zip(chunk, out):
                results[i] = res
    return [r for r in results if r is not None]
