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
and the roofline p-norm through :func:`repro.units.smooth_max` —
``np.power`` is *not* bit-identical to Python ``**``).
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
from ..papi.events import CACHE_LINE_BYTES
from ..units import smooth_max
from ..workloads.phase import (
    BOOST as _BOOST,
    BYTES as _BYTES,
    FLOPS as _FLOPS,
    FPC as _FPC,
    LATENCY as _LS,
    OVERFETCH as _OV,
    TABLE_ROWS,
    UNCORE as _US,
)
from .eligibility import batch_fallback_reason, controller_lane_fallback_reason
from .engine import _DONE_EPS, _MIN_SLICE_S, RunContext, SimulationEngine
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
#: the peak rate ``count * fpc``.
_PEAK = TABLE_ROWS

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
    the lanes, the latched PL1 limit, the logged uncore clock, the
    phase-change flags and the ``int8`` action codes (see
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


def _phase_spans(
    names: list[str], ends: np.ndarray, first: int, stop: int
) -> list[PhaseSpan]:
    """The spans of rows ``first:stop``, each starting where the last ended."""
    end = ends[first:stop].tolist()
    return [
        PhaseSpan(n, s, e) for n, s, e in zip(names[first:stop], [0.0, *end], end)
    ]


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
                sock.attach_phase_source(self._span_source(l))
            results.append(result)
        return results

    def _span_source(self, l: int) -> partial:
        """Lane ``l``'s closed phase spans, built from the column on call.

        The source holds the batch's name list and end-time column, not
        the engine, so a result kept unread keeps no lane state alive.
        """
        return partial(
            _phase_spans,
            self._names,
            self._span_end,
            int(self._row_first[l]),
            int(self.row[l]),
        )

    # -- setup ----------------------------------------------------------------------

    def _build_lanes(self, ctxs: list[RunContext]) -> None:
        """Mirror every run's objects into the lane arrays.

        Each lane's workload comes from its jittered application's
        phase table, never its ``phases``: the tables are joined into
        one, and the span names come from the tables' name tuples,
        which jitter shares with the base application.
        """
        engines = self.engines
        self.procs = []
        self.run_of_list: list[int] = []
        self.run_lanes: list[list[int]] = []
        tables: list[np.ndarray] = []
        names: list[str] = []
        row_first: list[int] = []
        row_end: list[int] = []
        for r, (e, ctx) in enumerate(zip(engines, ctxs)):
            lanes = []
            for s, proc in enumerate(e.machine.processors):
                lanes.append(len(self.procs))
                self.procs.append(proc)
                self.run_of_list.append(r)
                table = ctx.socket_apps[s].table
                row_first.append(len(names))
                tables.append(table.values)
                names.extend(table.names)
                row_end.append(len(names))
            self.run_lanes.append(lanes)
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
        self.pfreqs = np.array(pf, dtype=np.float64)
        self.cp_base = np.array(
            [
                ((self.ck * core.voltage_at(f)) * core.voltage_at(f)) * (f / 1e9)
                for f in pf
            ],
            dtype=np.float64,
        )
        self.cp_grid = self.cp_base[None, :]
        self._grid_last = len(pf) - 1
        # When the top grid point fits every lane's budget nobody is
        # clamped; precompute what the full search would return then.
        self._cp_top = float(self.cp_base[-1])
        self._clamp_top = min(max(pf[-1], self.cmin), self.cmax)
        # ``x + (1-x)*a`` with the ``1-x`` hoisted — same product bitwise.
        self._a1 = 1.0 - self.a0
        self._u1 = 1.0 - self.u0

        z = lambda: np.zeros(L, dtype=np.float64)  # noqa: E731
        # Hardware state mirrored from the freshly built objects (the
        # controller attach hooks may already have actuated).
        self.req = np.array(
            [p.dvfs.governor.requested_freq(core) for p in self.procs]
        )
        self.ctl = np.array([p.dvfs.perf_ctl_ceiling_hz for p in self.procs])
        self.clamp = np.array([p.dvfs.rapl_clamp_hz for p in self.procs])
        self.aperf, self.mperf = z(), z()
        self.ufreq = np.array([p.uncore._freq_hz for p in self.procs])
        self.win_lo = np.array([p.uncore.window_lo_hz for p in self.procs])
        self.win_hi = np.array([p.uncore.window_hi_hz for p in self.procs])
        self.demand = np.array(
            [p.uncore.governor._current_demand for p in self.procs]
        )
        gov = [p.uncore.governor for p in self.procs]
        self.g_sat = np.array([g.saturation_util for g in gov])
        self.g_floor = np.array([g.busy_floor for g in gov])
        self.g_thresh = np.array([g.busy_threshold for g in gov])
        self.g_resp = np.array([g.response for g in gov])
        self.sharpness = [p.perf.overlap_sharpness for p in self.procs]
        # Last ``(t_c, t_m) -> t`` per lane: between clock or phase
        # moves a lane's roofline inputs repeat for many steps, so the
        # scalar ``smooth_max`` loop only visits lanes whose inputs
        # actually changed (see ``_phase_time``).  NaN never compares
        # equal, so fresh lanes always recompute.
        self._sm = np.array([np.full(L, np.nan), np.full(L, np.nan), z()])
        # Phase-time memo (see ``_phase_time``) and the log of lanes
        # whose phase changed since an entry was stored.
        self._pt_memo: dict[bytes, list] = {}
        self._pt_dirty_log: list[int] = []
        self._all_active = True

        self.pl1_w = np.array([p.rapl.pl1.limit_w for p in self.procs])
        self.pl1_win = np.array([p.rapl.pl1.window_s for p in self.procs])
        self.pl1_en = np.array([p.rapl.pl1.enabled for p in self.procs])
        self.pl2_w = np.array([p.rapl.pl2.limit_w for p in self.procs])
        self.pl2_win = np.array([p.rapl.pl2.window_s for p in self.procs])
        self.pl2_en = np.array([p.rapl.pl2.enabled for p in self.procs])
        self.avg1 = np.array([p.rapl._avg_pl1_w for p in self.procs])
        self.avg2 = np.array([p.rapl._avg_pl2_w for p in self.procs])
        self.rapl_now = np.array([p.rapl._now_s for p in self.procs])
        self.e_pkg = np.array([p.rapl.package._energy_j for p in self.procs])
        self.e_dram = np.array([p.rapl.dram._energy_j for p in self.procs])
        self.pend_due = np.full(L, np.inf)
        self.pend1_w, self.pend1_win = z(), z()
        self.pend2_w, self.pend2_win = z(), z()
        for l, p in enumerate(self.procs):
            if p.rapl._pending is not None:
                due, pl1, pl2 = p.rapl._pending
                self.pend_due[l] = due
                self.pend1_w[l], self.pend1_win[l] = pl1.limit_w, pl1.window_s
                self.pend2_w[l], self.pend2_win[l] = pl2.limit_w, pl2.window_s
        if self.has_thermal:
            self.temp = np.array(
                [p.thermal.temperature_c for p in self.procs]
            )
            self.prochot = np.array(
                [p.thermal.prochot for p in self.procs], dtype=bool
            )

        self.prev_act, self.prev_traf = z(), z()
        self.flops_ret, self.bytes_trans, self.proc_now = z(), z(), z()

        # Workload cursor: every lane's phases are consecutive rows of
        # flat per-phase tables; ``row`` is the lane's current phase and
        # ``row_end`` one past its last.
        self.row = np.array(row_first, dtype=np.int64)
        self.row_end = np.array(row_end, dtype=np.int64)
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
        self._span_end = np.zeros(len(names), dtype=np.float64)
        # The current phase's constants, one row per quantity (the
        # ``cur_*`` names are views), and the matching phase tables: a
        # crossing gathers every quantity of its next row in one go.
        self._tab = np.empty((_PEAK + 1, len(names)), dtype=np.float64)
        np.concatenate(tables, axis=1, out=self._tab[:_PEAK])
        np.multiply(self.count, self._tab[_FPC], out=self._tab[_PEAK])
        self._cur = np.zeros((_PEAK + 1, L), dtype=np.float64)
        self._cur[[_FPC, _BOOST]] = 1.0
        self.cur_flops, self.cur_bytes = self._cur[_FLOPS], self._cur[_BYTES]
        self.cur_fpc, self.cur_boost = self._cur[_FPC], self._cur[_BOOST]
        self.cur_ov = self._cur[_OV]
        first = (~self.phase_done).nonzero()[0]
        self._load_rows(first, self.row[first])
        self._refresh_phase_flags()

        # Last-step snapshot (the trace sample fields).
        self.st_core, self.st_uncore = z(), z()
        self.st_pkg, self.st_dram = z(), z()
        self.st_flops, self.st_bytes = z(), z()

        # Scalar flags guarding rarely-needed kernel blocks, and the
        # last step's effective clock (reused by the next preview).
        self._any_pending = bool(np.isfinite(self.pend_due).any())
        self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
        self._eff: np.ndarray | None = None
        self._tracing = True
        # Fleet rounds bid the last step's package power: ``_loop``
        # keeps ``st_pkg`` while a fleet can still round.
        self._keep_pkg = False
        self._refresh_uncore()
        # EMA factors for the common ``dt_l == dt`` slice; lanes with a
        # partial slice are patched per-element (see ``_ema_alphas``).
        self._alpha1 = np.zeros(L, dtype=np.float64)
        self._alpha2 = np.zeros(L, dtype=np.float64)
        self._refresh_alpha(range(L))
        if self.has_thermal:
            self._alpha_th_arr = np.full(
                L, 1.0 - math.exp(-self.dt / self.th_tau)
            )
        # The roofline time from the last ``_step`` can serve the next
        # preview when no state it depends on moved in between; AVX
        # clamping and PROCHOT make step and preview clocks diverge,
        # so reuse is only safe without them.  ``_t_cache`` holds it
        # with the lanes it covers; under a static uncore the
        # phase-time memo serves the preview instead.
        self._t_reuse = (not self.avx_on) and (not self.has_thermal)
        self._t_cache: tuple[np.ndarray, np.ndarray] | None = None

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
                rapl_now=self.rapl_now,
                pend_due=self.pend_due,
                pend1_w=self.pend1_w,
                pend1_win=self.pend1_win,
                pend2_w=self.pend2_w,
                pend2_win=self.pend2_win,
                step_w=cfg_arr("cap_step_w"),
                floor_w=cfg_arr("cap_floor_w"),
                default_w=rc.pl1_default_w,
                default_pl2_w=rc.pl2_default_w,
                default_win1=rc.pl1_window_s,
                default_win2=rc.pl2_window_s,
                delay_s=rc.actuation_delay_s,
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
        self._cur[:, lanes] = self._tab[:, rows]
        self._pt_dirty_log.extend(lanes.tolist())

    def _refresh_phase_flags(self) -> None:
        """Batch-wide guards for optional phase terms.

        When no lane's *current* phase uses a term, the kernel skips
        it; the skipped multiplications are all exactly ``* 1.0`` or
        masked writes with an all-false mask, so skipping is bitwise
        free.  Recomputed whenever any lane crosses a phase boundary.
        """
        self._any_us, self._any_ls, self._any_ov = (
            (self._cur[[_US, _LS, _OV]] > 0.0).any(axis=1).tolist()
        )
        self._any_boost = bool((self.cur_boost != 1.0).any())
        self._any_phase_done = bool(self.phase_done.any())

    def _refresh_uncore(self) -> None:
        """Freeze uncore-derived terms while every window is pinned.

        DUF/DUFP pin the uncore window every decision, so after the
        first controller tick the governor is a fixed point:
        ``advance`` assigns ``window_lo`` which the frequency already
        equals.  While that holds the whole governor block is skipped
        and the uncore voltage/power/bandwidth/ratio terms are
        constants, recomputed only when a controller moves a window
        (``_gather``).
        """
        self._all_pinned = bool((self.win_lo == self.win_hi).all())
        self._u_static = self._all_pinned and bool(
            (self.ufreq == self.win_lo).all()
        )
        self._pt_memo.clear()
        self._pt_dirty_log.clear()
        if self._u_static:
            uv = self._uvolt(self.ufreq)
            self._u_coef = ((self.k_uncore * uv) * uv) * (self.ufreq / 1e9)
            self._u_ratio = self.umax / self.ufreq
            self._bw_cap = np.minimum(
                self.peak_bw, self.bw_per_uncore * self.ufreq
            )

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
        delay = self.socket_cfg.rapl.actuation_delay_s
        for r, per_socket_w in zip(runs, fleet.round(tick, power)):
            if per_socket_w is None:
                continue
            if not alive[r]:
                self._write_objects(r, per_socket_w)
                continue
            lanes = self.run_lanes[r]
            for l in lanes:
                self.procs[l].rapl.check_limits(per_socket_w, per_socket_w)
            self.pend_due[lanes] = self.rapl_now[lanes] + delay
            self.pend1_w[lanes] = per_socket_w
            self.pend1_win[lanes] = self.pl1_win[lanes]
            self.pend2_w[lanes] = per_socket_w
            self.pend2_win[lanes] = self.pl2_win[lanes]
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
                    self.ctrls[l].attach_tick_source(
                        partial(self._tick_log.entries, l)
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
        # scan; moved uncore pins invalidate the uncore-derived
        # constants and the roofline reuse cache.  Only ``_step`` moves
        # the RAPL clamp and only ``_gather`` moves ``perf_ctl``, so the
        # last step's effective clock (``_eff``) stays valid.
        if st.cap.wrote_pending:
            st.cap.wrote_pending = False
            self._any_pending = True
        if st.uncore.any_moved:
            st.uncore.any_moved = False
            self._refresh_uncore()
            self._t_cache = None

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
        self._tick_log.records.append(
            (now, idx, self.pl1_w[idx], uncore[idx], changed, cap_act, unc_act)
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
        slice_ = rem
        ttf = None
        if np.count_nonzero(working):
            rate = self._preview(working)
            bad = working & ~(rate > 0.0)
            if np.count_nonzero(bad):
                l = int(bad.nonzero()[0][0])
                raise SimulationError(
                    f"phase {self._names[self.row[l]]!r} makes no progress"
                )
            ttf = (1.0 - self.frac) / rate
            slice_ = np.minimum(rem, np.maximum(ttf, _MIN_SLICE_S))
        dt_l = np.where(working, slice_, rem)
        progress_rate = self._step(dt_l, active, working)
        # ``progress_rate`` and ``dt_l`` are exactly zero off the
        # working set, so the unmasked updates are no-ops there (and
        # ``r - r == 0.0`` uses up a finished lane's tick).
        self.frac += np.minimum(progress_rate * dt_l, 1.0)
        rem -= dt_l
        if ttf is not None:
            done = working & (
                (self.frac >= 1.0 - _DONE_EPS)
                | (
                    (ttf <= slice_ + _MIN_SLICE_S)
                    & (self.frac >= 1.0 - 1e-3)
                )
            )
            crossed = done.nonzero()[0]
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
        if self._t_cache is not None:
            self._t_cache[1][crossed] = False
        rows += 1
        self.row[crossed] = rows
        more = rows < self.row_end[crossed]
        if not more.all():
            self.phase_done[crossed[~more]] = True
            self._check_finish = True
            crossed, rows = crossed[more], rows[more]
        if len(crossed):
            self._load_rows(crossed, rows)
        self._refresh_phase_flags()

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

    def _refresh_alpha(self, lanes) -> None:
        """Recompute the full-slice EMA factors for ``lanes``."""
        d = self.dt
        for l in lanes:
            self._alpha1[l] = 1.0 - math.exp(-d / self.pl1_win[l])
            self._alpha2[l] = 1.0 - math.exp(-d / self.pl2_win[l])

    def _ema_alphas(
        self, dt_l: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``1 - exp(-dt_l/window)`` factors, bit-exact per active lane.

        Almost every active lane steps the full tick ``dt`` (factor
        precomputed in ``_refresh_alpha``); only lanes split at a phase
        boundary need a fresh :func:`math.exp`, patched per element.
        Inactive lanes get meaningless factors: the caller masks them.
        """
        a1, a2 = self._alpha1, self._alpha2
        a_th = self._alpha_th_arr if self.has_thermal else None
        split = dt_l != self.dt
        if not self._all_active:
            split &= active
        odd = split.nonzero()[0]
        if len(odd):
            exp = math.exp
            neg = (-dt_l[odd]).tolist()
            a1, a2 = a1.copy(), a2.copy()
            a1[odd] = [
                1.0 - exp(d / w)
                for d, w in zip(neg, self.pl1_win[odd].tolist())
            ]
            a2[odd] = [
                1.0 - exp(d / w)
                for d, w in zip(neg, self.pl2_win[odd].tolist())
            ]
            if a_th is not None:
                tau = self.th_tau
                a_th = a_th.copy()
                a_th[odd] = [1.0 - exp(d / tau) for d in neg]
        return a1, a2, a_th

    def _phase_time(
        self, core_hz: np.ndarray, need: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Roofline phase time ``t`` and compute time ``t_c``.

        Values are meaningful only where ``need`` (a lane mask; ``None``
        means every lane with phases left).

        While the uncore is static, ``(t, t_c)`` is a pure function of
        the clock vector and the per-lane phase, so results memoize on
        the clock bytes.  Each entry records the lanes it computed: a
        lane may sit out one pass and work the next, so a hit whose
        need set grew is a miss.  Lanes that crossed a phase boundary
        since an entry was stored are re-derived on their index set.
        """
        if self._u_static:
            key = core_hz.tobytes()
            hit = self._pt_memo.get(key)
            # A ``None`` entry covered every lane with phases left when
            # it was stored; that set only shrinks.
            if hit is not None and (
                hit[1] is None
                or (need is not None and not (need > hit[1]).any())
            ):
                ver, _, t, t_c = hit
                log = self._pt_dirty_log
                if ver < len(log):
                    dirty = np.array(sorted(set(log[ver:])))
                    dirty = dirty[~self.phase_done[dirty]]
                    if len(dirty):
                        t[dirty], t_c[dirty] = self._roofline(
                            core_hz[dirty], dirty
                        )
                    hit[0] = len(log)
                return t, t_c
        t, t_c = self._roofline(core_hz, None, need)
        if self._u_static:
            self._pt_memo[key] = [len(self._pt_dirty_log), need, t, t_c]
        return t, t_c

    def _roofline(
        self,
        core_hz: np.ndarray,
        lanes: np.ndarray | None,
        need: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``PhaseExecutionModel._roof_times`` + ``smooth_max``.

        Over ``lanes`` (an index array; ``core_hz`` holds just those
        lanes) or, with ``None``, over every lane, filling the p-norm
        in only where ``need`` (``None``: every lane with phases left).
        """
        ix = slice(None) if lanes is None else lanes
        cur = self._cur[:, ix]
        if self._any_us or self._any_ls:
            ratio = (
                self._u_ratio[ix]
                if self._u_static
                else self.umax / self.ufreq[ix]
            )
        # The sensitivity factors are exactly 1.0 for a phase without
        # the term (``0 * (ratio - 1)`` with a finite ratio >= 1), and
        # multiply a zero time where a phase has no flops or bytes, so
        # they apply unmasked.
        t_c = cur[_FLOPS] / (cur[_PEAK] * core_hz)
        if self._any_us:
            t_c *= 1.0 + cur[_US] * (ratio - 1.0)
        bw_cap = (
            self._bw_cap[ix]
            if self._u_static
            else np.minimum(self.peak_bw, self.bw_per_uncore * self.ufreq[ix])
        )
        bw = np.minimum(bw_cap, (self.bw_per_core * core_hz) * self.count)
        t_m = cur[_BYTES] / bw
        if self._any_ls:
            t_m *= 1.0 + cur[_LS] * (ratio - 1.0)
        t = np.where(t_m == 0.0, t_c, np.where(t_c == 0.0, t_m, np.nan))
        hole = np.isnan(t)
        if lanes is None:
            if need is not None:
                hole &= need
            elif self._any_phase_done:
                hole &= ~self.phase_done
            # Reuse each lane's last smooth_max result while its
            # roofline inputs are unchanged; only moved lanes take the
            # scalar loop (bit-identity needs ``math``'s pow, and
            # ``np.power`` differs by ulps).  An index set holds lanes
            # that just entered a phase, so it skips the reuse check.
            if np.count_nonzero(hole):
                sm_tc, sm_tm, sm_t = self._sm
                same = hole & (t_c == sm_tc) & (t_m == sm_tm)
                np.copyto(t, sm_t, where=same)
                hole &= ~same
        pos = hole.nonzero()[0]
        if len(pos):
            ids = pos if lanes is None else lanes[pos]
            sharp = self.sharpness
            tcl, tml = t_c[pos].tolist(), t_m[pos].tolist()
            tl = [
                smooth_max(a, b, sharp[l])
                for a, b, l in zip(tcl, tml, ids.tolist())
            ]
            t[pos] = tl
            self._sm[:, ids] = (tcl, tml, tl)
        return t, t_c

    def _preview(self, working: np.ndarray) -> np.ndarray:
        """``preview_progress_rate`` for the working lanes."""
        cached = self._t_cache
        if cached is not None:
            # The last step's roofline time, re-derived only for lanes
            # that crossed a phase boundary since (``_t_reuse`` means
            # the preview clock is the step's effective clock).
            t, covered = cached
            stale = (working & ~covered).nonzero()[0]
            if len(stale):
                t = t.copy()
                t[stale] = self._roofline(self._eff[stale], stale)[0]
            return 1.0 / t
        eff = self._eff
        if eff is None:
            eff = self._csnap(
                np.minimum(np.minimum(self.req, self.ctl), self.clamp)
            )
        core_hz = eff
        if self.avx_on:
            core_hz = np.where(
                self.cur_fpc >= self.avx_lic,
                np.minimum(eff, self.avx_max),
                eff,
            )
        t, _ = self._phase_time(core_hz, None if self._t_reuse else working)
        return 1.0 / t

    def _step(
        self, dt_l: np.ndarray, active: np.ndarray, working: np.ndarray
    ) -> np.ndarray:
        """One ``SimulatedProcessor.step`` across all active lanes."""
        boost = (
            np.where(working, self.cur_boost, 1.0) if self._any_boost else None
        )

        # 1. RAPL firmware: windowed averages -> budget -> clamp.
        h = self.pl1_w - self.avg1
        budget = np.where(
            h < 0.0,
            np.maximum(self.pl1_w + 2.0 * h, 0.0),
            self.pl1_w + 2.0 * h,
        )
        if self._all_en:
            budget = np.minimum(budget, self.pl2_w)
        else:
            budget = np.where(self.pl1_en, budget, np.inf)
            budget = np.where(
                self.pl2_en, np.minimum(budget, self.pl2_w), budget
            )
        if self._u_static:
            u_coef = self._u_coef
        else:
            uv = self._uvolt(self.ufreq)
            u_coef = ((self.k_uncore * uv) * uv) * (self.ufreq / 1e9)
        up_prev = u_coef * (self.u0 + self._u1 * self.prev_traf)
        budget_cores = budget - (self.static_w + up_prev)
        scale_prev = self.a0 + self._a1 * self.prev_act
        top = self._cp_top * scale_prev
        if boost is not None:
            top = top * boost
        fit = top <= budget_cores
        if fit.all():
            # Nobody is power-limited: the search would return the top
            # grid point everywhere.  (``where=True`` is the unmasked
            # fast path when every lane is active this pass.)
            np.copyto(
                self.clamp,
                self._clamp_top,
                where=True if self._all_active else active,
            )
        else:
            # A lane whose top grid point fits gets it, as the search
            # would return; only the power-limited lanes scan the grid.
            np.copyto(
                self.clamp,
                self._clamp_top,
                where=True if self._all_active else active,
            )
            lim = (active & ~fit).nonzero()[0]
            if len(lim):
                fits = self.cp_grid * scale_prev[lim, None]
                if boost is not None:
                    fits = fits * boost[lim, None]
                fits = fits <= budget_cores[lim, None]
                any_fit = fits.any(axis=1)
                idx = self._grid_last - np.argmax(fits[:, ::-1], axis=1)
                best = np.where(any_fit, self.pfreqs[idx], self.cmin)
                self.clamp[lim] = np.minimum(
                    np.maximum(best, self.cmin), self.cmax
                )

        # 2. Hardware uncore governor moves inside its window.  When
        # every window is pinned and the frequency already sits on the
        # pin, ``advance`` is the identity (see ``_refresh_uncore``).
        if not self._u_static:
            if self._all_pinned:
                np.copyto(self.ufreq, self.win_lo, where=active)
            else:
                pinned = self.win_lo == self.win_hi
                demand_t = np.minimum(self.prev_traf / self.g_sat, 1.0)
                np.copyto(
                    demand_t,
                    np.maximum(demand_t, self.g_floor),
                    where=self.prev_act >= self.g_thresh,
                )
                new_demand = self.demand + self.g_resp * (
                    demand_t - self.demand
                )
                target = self.win_lo + new_demand * (self.win_hi - self.win_lo)
                np.copyto(self.demand, new_demand, where=active & ~pinned)
                np.copyto(
                    self.ufreq,
                    np.where(pinned, self.win_lo, self._usnap(target)),
                    where=active,
                )

        # 3. Core clock resolution (+ AVX license, + PROCHOT).
        eff = self._csnap(np.minimum(np.minimum(self.req, self.ctl), self.clamp))
        self._eff = eff
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

        # 4. Roofline rates.
        # When the next preview may reuse ``t`` (from ``_t_cache``, or
        # from the phase-time memo under a static uncore) it covers
        # every lane with phases left: lanes sitting this pass out keep
        # their clock and phase, so their ``smooth_max`` inputs hit the
        # per-lane memo.
        t, t_c = self._phase_time(core_hz, None if self._t_reuse else working)
        if self._t_reuse and not self._u_static:
            self._t_cache = (t, ~self.phase_done)
        # ``x / inf == +0.0`` exactly, so masking the divisor with inf
        # zeroes every non-working rate in one shot — bit-identical to
        # the per-rate ``where(working, ..., 0.0)`` it replaces.
        tm = np.where(working, t, np.inf)
        flops_rate = self.cur_flops / tm
        bytes_rate = self.cur_bytes / tm
        activity = np.minimum(t_c / tm, 1.0)
        traffic = np.minimum(bytes_rate / self.peak_bw, 1.0)
        progress_rate = 1.0 / tm

        # 5. Package + DRAM power.
        cv = self._cvolt(core_hz)
        c_coef = ((self.ck * cv) * cv) * (core_hz / 1e9)
        core_w = c_coef * (self.a0 + self._a1 * activity)
        if boost is not None:
            core_w = core_w * boost
        if self._u_static:
            uc2 = self._u_coef
        else:
            uv2 = self._uvolt(self.ufreq)
            uc2 = ((self.k_uncore * uv2) * uv2) * (self.ufreq / 1e9)
        uncore_w = uc2 * (self.u0 + self._u1 * traffic)
        total = (self.static_w + core_w) + uncore_w
        dram_traffic = bytes_rate
        if self._any_ov:
            ov = working & (self.cur_ov > 0.0) & (self.ufreq < self.sat_hz)
            if ov.any():
                dram_traffic = np.where(
                    ov,
                    bytes_rate
                    * (1.0 + self.cur_ov * (1.0 - self.ufreq / self.sat_hz)),
                    bytes_rate,
                )
        dram_w = self.dram_static + self.dram_epb * dram_traffic

        # 6. RAPL step: latch pending limits, meter energy, averages.
        # Accumulators drop the ``active`` mask: inactive lanes have
        # ``dt_l == 0`` so their increment is an exact ``+0.0``, a
        # bitwise no-op on the non-negative state here.
        self.rapl_now += dt_l
        if self._any_pending:
            latched = (
                active
                & np.isfinite(self.pend_due)
                & (self.rapl_now >= self.pend_due)
            )
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
                self._refresh_alpha(np.nonzero(latched)[0].tolist())
        self.e_pkg += total * dt_l
        self.e_dram += dram_w * dt_l
        a1, a2, a_th = self._ema_alphas(dt_l, active)
        if self._all_active:
            self.avg1 += a1 * (total - self.avg1)
            self.avg2 += a2 * (total - self.avg2)
        else:
            avg1, avg2 = self.avg1, self.avg2
            np.copyto(avg1, avg1 + a1 * (total - avg1), where=active)
            np.copyto(avg2, avg2 + a2 * (total - avg2), where=active)

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

        # 8. APERF/MPERF and the retired-work counters (``dt_l == 0``
        # makes every inactive increment an exact no-op, as above).
        self.aperf += eff * dt_l
        self.mperf += self.base_hz * dt_l
        self.flops_ret += flops_rate * dt_l
        self.bytes_trans += bytes_rate * dt_l
        self.proc_now += dt_l
        if self._all_active:
            np.copyto(self.prev_act, activity)
            np.copyto(self.prev_traf, traffic)
        else:
            np.copyto(self.prev_act, activity, where=active)
            np.copyto(self.prev_traf, traffic, where=active)

        # 9. Trace snapshot (skipped when no run records a trace); a
        # live fleet needs only the package power.
        if self._tracing:
            np.copyto(self.st_core, core_hz, where=active)
            np.copyto(self.st_uncore, self.ufreq, where=active)
            np.copyto(self.st_pkg, total, where=active)
            np.copyto(self.st_dram, dram_w, where=active)
            np.copyto(self.st_flops, flops_rate, where=active)
            np.copyto(self.st_bytes, bytes_rate, where=active)
        elif self._keep_pkg:
            np.copyto(self.st_pkg, total, where=active)
        return progress_rate

    # -- object <-> array sync --------------------------------------------------------

    def _scatter(self, r: int) -> None:
        """Write the lane arrays back into run ``r``'s object graph.

        Everything the controller tick can *read* must be current:
        the PAPI counters, RAPL limits/pending/energy, MSR read hooks
        (APERF/MPERF, uncore status, effective frequency), thermals.
        """
        from ..hardware.rapl import PowerLimit

        for l in self.run_lanes[r]:
            p = self.procs[l]
            p.flops_retired = self.flops_ret.item(l)
            p.bytes_transferred = self.bytes_trans.item(l)
            p.now_s = self.proc_now.item(l)
            d = p.dvfs
            d._aperf_cycles = self.aperf.item(l)
            d._mperf_cycles = self.mperf.item(l)
            d.rapl_clamp_hz = self.clamp.item(l)
            p.uncore._freq_hz = self.ufreq.item(l)
            ra = p.rapl
            ra._now_s = self.rapl_now.item(l)
            ra.pl1.limit_w = self.pl1_w.item(l)
            ra.pl1.window_s = self.pl1_win.item(l)
            ra.pl1.enabled = self.pl1_en.item(l)
            ra.pl2.limit_w = self.pl2_w.item(l)
            ra.pl2.window_s = self.pl2_win.item(l)
            ra.pl2.enabled = self.pl2_en.item(l)
            ra._avg_pl1_w = self.avg1.item(l)
            ra._avg_pl2_w = self.avg2.item(l)
            ra.package._energy_j = self.e_pkg.item(l)
            ra.dram._energy_j = self.e_dram.item(l)
            due = self.pend_due.item(l)
            if math.isfinite(due):
                ra._pending = (
                    due,
                    PowerLimit(
                        self.pend1_w.item(l), self.pend1_win.item(l)
                    ),
                    PowerLimit(
                        self.pend2_w.item(l), self.pend2_win.item(l)
                    ),
                )
            else:
                ra._pending = None
            if self.has_thermal:
                p.thermal.temperature_c = self.temp.item(l)
                p.thermal.prochot = self.prochot.item(l)

    def _gather(self, r: int) -> None:
        """Read back everything the controllers may have actuated."""
        for l in self.run_lanes[r]:
            p = self.procs[l]
            self.ctl[l] = p.dvfs.perf_ctl_ceiling_hz
            u = p.uncore
            self.ufreq[l] = u._freq_hz
            self.win_lo[l] = u.window_lo_hz
            self.win_hi[l] = u.window_hi_hz
            ra = p.rapl
            self.pl1_w[l] = ra.pl1.limit_w
            self.pl1_win[l] = ra.pl1.window_s
            self.pl1_en[l] = ra.pl1.enabled
            self.pl2_w[l] = ra.pl2.limit_w
            self.pl2_win[l] = ra.pl2.window_s
            self.pl2_en[l] = ra.pl2.enabled
            if ra._pending is not None:
                due, pl1, pl2 = ra._pending
                self.pend_due[l] = due
                self.pend1_w[l], self.pend1_win[l] = pl1.limit_w, pl1.window_s
                self.pend2_w[l], self.pend2_win[l] = pl2.limit_w, pl2.window_s
                self._any_pending = True
            else:
                self.pend_due[l] = np.inf
        self._refresh_alpha(self.run_lanes[r])

    def _after_gather(self) -> None:
        """Batch-wide refreshes after a group of ``_gather`` calls.

        These scan whole arrays, so one pass after all due runs have
        synced replaces a pass per run.
        """
        self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
        self._refresh_uncore()
        # ``perf_ctl`` may have moved, so the last effective clock is stale.
        self._eff = None
        self._t_cache = None


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
