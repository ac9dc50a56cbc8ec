"""Vectorized batch simulation: N independent runs in lockstep.

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
* Fault-free runs whose controllers all publish a lane-parallel tick
  form (:func:`repro.core.registry.vector_tick_form`) skip the
  per-tick scatter/gather entirely: measurement, decision and
  actuation execute as masked vector ops directly on the lane arrays
  (see :func:`controller_lane_fallback_reason` for the eligibility
  rules).  The scalar object graph of such a run is synced once, when
  the run finishes, and stays the differential-equivalence oracle.

The contract — enforced by ``tests/test_batch_equivalence.py`` — is
numerical identity with the scalar engine: exact for every integer and
boolean quantity (counters, fault draws, PROCHOT), bit-identical for
floats in practice (the kernels mirror the scalar evaluation order,
route ``exp`` through :func:`math.exp` per lane instead of ``np.exp``,
and the roofline p-norm through :func:`repro.units.smooth_max` —
``np.power`` is *not* bit-identical to Python ``**``).
The equivalence tests assert ≤1e-9 relative error to leave headroom
for platform libm differences.

Runs whose hardware carries a non-default governor type fall back to
the scalar engine in :func:`run_batch` (see ``docs/BATCHING.md``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.base import TickLog
from ..core.capping import CapLanes
from ..core.detector import PhaseDetectorLanes
from ..core.duf import LANE_ACTIONS, LaneControllerState
from ..core.registry import vector_tick_form
from ..core.tolerance import SlowdownLanes
from ..core.uncore_actuator import UncoreLanes
from ..errors import SimulationError
from ..hardware.dvfs import PerformanceGovernor, PowersaveGovernor
from ..hardware.uncore import DefaultUncoreGovernor, TpmiUncore
from ..papi.events import CACHE_LINE_BYTES
from ..units import smooth_max
from .engine import _DONE_EPS, _MIN_SLICE_S, RunContext, SimulationEngine
from .result import PhaseSpan, RunResult, TraceSample

__all__ = [
    "BatchSimulationEngine",
    "run_batch",
    "batch_fallback_reason",
    "controller_lane_fallback_reason",
]


def batch_fallback_reason(engine: SimulationEngine) -> str | None:
    """Why ``engine`` cannot join a batch (``None`` when it can).

    The batch kernels hard-code the stock governor behaviours and the
    legacy single-domain platform models; any custom governor object
    could carry state or policy the arrays do not model, and the
    opt-in platform models (multi-die uncore, C-states, EPB/EPP) only
    exist in the scalar object graph, so such runs take the scalar
    path.
    """
    for proc in engine.machine.processors:
        if type(proc.dvfs.governor) not in (
            PerformanceGovernor,
            PowersaveGovernor,
        ):
            return (
                f"non-default cpufreq governor {type(proc.dvfs.governor).__name__}"
            )
        if type(proc.uncore.governor) is not DefaultUncoreGovernor:
            return (
                f"non-default uncore governor {type(proc.uncore.governor).__name__}"
            )
        if isinstance(proc.uncore, TpmiUncore):
            return (
                f"multi-die uncore ({proc.config.uncore.die_count} dies) "
                "models per-die clocks the lockstep arrays do not"
            )
        if proc.cstates is not None:
            return "C-state residency model needs the scalar power path"
        if proc.epb_model is not None:
            return "EPB/EPP hint model needs the scalar operating-point path"
    return None


def controller_lane_fallback_reason(engine: SimulationEngine) -> str | None:
    """Why ``engine``'s ticks cannot run lane-parallel (``None``: they can).

    A run stays inside the batch either way; this only decides whether
    its controller ticks execute as masked vector ops or through the
    per-run scatter/gather sync.  The vector path requires:

    * no active fault plan — injected meter/tick/latch faults flow
      through the scalar runtime's degraded-telemetry machinery, which
      only the real object graph implements;
    * a single-domain uncore — the vector actuator models one uncore
      clock per lane, so per-die (TPMI) sockets get their own pinned
      reason rather than falling through to a generic one;
    * every controller registered a lane-parallel tick form (exact
      type match: subclasses carry extra state the vector forms do not
      model and fall back automatically);
    * ``cap_floor_w`` at or above the RAPL minimum limit — a lower
      floor makes the scalar actuator raise ``RAPLError`` through the
      powercap zone, a behaviour the vector path must not paper over.
    """
    if engine.faults is not None and engine.faults.active:
        return "active fault plan needs the scalar telemetry stack"
    for proc in engine.machine.processors:
        if isinstance(proc.uncore, TpmiUncore):
            return (
                f"multi-die uncore ({proc.config.uncore.die_count} dies): "
                "lane kernels model one uncore clock per lane"
            )
    for ctrl in engine.controllers:
        if vector_tick_form(ctrl) is None:
            return (
                f"controller {type(ctrl).__name__} has no vector tick form"
            )
    min_limit = min(p.rapl.cfg.min_limit_w for p in engine.machine.processors)
    if engine.controller_cfg.cap_floor_w < min_limit:
        return (
            f"cap_floor_w {engine.controller_cfg.cap_floor_w} W below the "
            f"RAPL minimum limit {min_limit} W (scalar path raises)"
        )
    return None


class BatchSimulationEngine:
    """Lockstep execution of compatible simulation runs.

    All engines must share one :class:`~repro.config.SocketConfig`
    and one engine ``dt_s`` (the lockstep grid); everything else —
    seeds, controllers, controller configs, applications, fault plans,
    per-run socket counts, trace sinks — may differ per run.
    """

    def __init__(self, engines: Sequence[SimulationEngine]):
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

    # -- run -----------------------------------------------------------------------

    def run(self) -> list[RunResult]:
        """Execute every run to completion; results in engine order."""
        ctxs = [e.prepare() for e in self.engines]
        for ctx in ctxs:
            ctx.runtime.start()
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
            results.append(
                e.collect(
                    ctx,
                    [float(self.finish[l]) for l in lanes],
                    [self.spans[l] for l in lanes],
                )
            )
        return results

    # -- setup ----------------------------------------------------------------------

    def _build_lanes(self, ctxs: list[RunContext]) -> None:
        engines = self.engines
        self.procs = []
        self.run_of_list: list[int] = []
        self.run_lanes: list[list[int]] = []
        self.phases: list[tuple] = []
        for r, (e, ctx) in enumerate(zip(engines, ctxs)):
            lanes = []
            for s, proc in enumerate(e.machine.processors):
                lanes.append(len(self.procs))
                self.procs.append(proc)
                self.run_of_list.append(r)
                self.phases.append(tuple(ctx.socket_apps[s].phases))
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
        # Python-float copies of the grid for the scalar lane tail.
        self._pf_list = pf
        self._cpb_list = self.cp_base.tolist()
        # When the top grid point fits every lane's budget nobody is
        # clamped; precompute what the full search would return then.
        self._cp_top = self._cpb_list[-1]
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
        self._sm_tc = np.full(L, np.nan)
        self._sm_tm = np.full(L, np.nan)
        self._sm_t = np.zeros(L, dtype=np.float64)
        # Phase-time memo (see ``_phase_time``) and the log of lanes
        # whose phase changed since an entry was stored.
        self._pt_memo: dict[bytes, list] = {}
        self._pt_dirty_log: list[int] = []
        self._all_alive = True

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

        # Workload cursor.
        self.phase_idx = [0] * L
        self.phase_done = np.array(
            [len(ph) == 0 for ph in self.phases], dtype=bool
        )
        self.unfinished = np.ones(L, dtype=bool)
        self._check_finish = bool(self.phase_done.any())
        self.frac = z()
        self.finish = np.full(L, np.nan)
        self.phase_start = [0.0] * L
        self.spans: list[list[PhaseSpan]] = [[] for _ in range(L)]
        self.cur_name = [""] * L
        self.cur_flops, self.cur_bytes = z(), z()
        self.cur_fpc = np.ones(L, dtype=np.float64)
        self.cur_peak_coef = z()
        self.cur_us, self.cur_ls, self.cur_ov = z(), z(), z()
        self.cur_us_on = np.zeros(L, dtype=bool)
        self.cur_ls_on = np.zeros(L, dtype=bool)
        self.cur_ov_on = np.zeros(L, dtype=bool)
        self.cur_boost = np.ones(L, dtype=np.float64)
        # Per-phase constants flattened to plain float tuples so
        # ``_load_phase`` is attribute-lookup free on the hot path.
        self.phase_vals = [
            tuple(
                (
                    ph.name,
                    ph.flops,
                    ph.bytes,
                    ph.fpc,
                    self.count * ph.fpc,
                    ph.uncore_sensitivity,
                    ph.latency_sensitivity,
                    ph.overfetch,
                    ph.uncore_sensitivity > 0.0 and ph.flops > 0.0,
                    ph.latency_sensitivity > 0.0,
                    ph.overfetch > 0.0,
                    ph.power_boost,
                )
                for ph in phs
            )
            for phs in self.phases
        ]
        for l in range(L):
            if not self.phase_done[l]:
                self._load_phase(l)
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
        self._refresh_uncore()
        # EMA factors for the common ``dt_l == dt`` slice; lanes with a
        # partial slice are patched per-element (see ``_ema_alphas``).
        self._alpha1 = np.zeros(L, dtype=np.float64)
        self._alpha2 = np.zeros(L, dtype=np.float64)
        self._refresh_alpha(range(L))
        if self.has_thermal:
            self._alpha_th = 1.0 - math.exp(-self.dt / self.th_tau)
            self._alpha_th_arr = np.full(L, self._alpha_th)
        # The roofline time from the last ``_step`` can serve the next
        # preview when no state it depends on moved in between; AVX
        # clamping and PROCHOT make step and preview clocks diverge,
        # so reuse is only safe without them.
        self._t_reuse = (not self.avx_on) and (not self.has_thermal)
        self._t_cache: tuple[np.ndarray, np.ndarray] | None = None

        self.next_tick = np.array(
            [ctx.runtime._next_tick_s for ctx in ctxs]
        )
        self.alive = np.ones(R, dtype=bool)
        self._lanes_left = [len(lanes) for lanes in self.run_lanes]
        self._maybe_done: list[int] = []
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

        # Per-run tick parameters (the runtime's measurement loop).
        self._interval = [e.controller_cfg.interval_s for e in engines]
        self._rngs = [ctx.rng for ctx in ctxs]
        self._counter_noise = [e.noise.counter_noise for e in engines]
        self._power_noise = [e.noise.power_noise for e in engines]

        # Per-lane controllers and their vector tick forms, dispatched
        # by a small integer code so one due set groups by form.
        self.ctrls = [c for e in engines for c in e.controllers]
        self._tick_forms: list = []
        codes: dict = {}
        self.ctrl_kind = np.zeros(L, dtype=np.int8)
        for l, ctrl in enumerate(self.ctrls):
            form = vector_tick_form(ctrl)
            if form is None:
                continue
            code = codes.get(form)
            if code is None:
                code = codes[form] = len(self._tick_forms)
                self._tick_forms.append(form)
            self.ctrl_kind[l] = code

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

    def _load_phase(self, l: int) -> None:
        (
            name,
            flops,
            byts,
            fpc,
            peak_coef,
            us,
            ls,
            ov,
            us_on,
            ls_on,
            ov_on,
            boost,
        ) = self.phase_vals[l][self.phase_idx[l]]
        self._pt_dirty_log.append(l)
        self.cur_name[l] = name
        self.cur_flops[l] = flops
        self.cur_bytes[l] = byts
        self.cur_fpc[l] = fpc
        self.cur_peak_coef[l] = peak_coef
        self.cur_us[l] = us
        self.cur_ls[l] = ls
        self.cur_ov[l] = ov
        self.cur_us_on[l] = us_on
        self.cur_ls_on[l] = ls_on
        self.cur_ov_on[l] = ov_on
        self.cur_boost[l] = boost

    def _refresh_phase_flags(self) -> None:
        """Batch-wide guards for optional phase terms.

        When no lane's *current* phase uses a term, the kernel skips
        it; the skipped multiplications are all exactly ``* 1.0`` or
        masked writes with an all-false mask, so skipping is bitwise
        free.  Recomputed whenever any lane crosses a phase boundary.
        """
        self._any_us = bool(self.cur_us_on.any())
        self._any_ls = bool(self.cur_ls_on.any())
        self._any_ov = bool(self.cur_ov_on.any())
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
        now = 0.0
        dt = self.dt
        max_times = [e.engine_cfg.max_sim_time_s for e in self.engines]
        min_max_time = min(max_times)
        injector_runs = [
            r for r, ctx in enumerate(ctxs) if ctx.injector is not None
        ]
        trace_runs = [r for r, ctx in enumerate(ctxs) if ctx.sink is not None]
        alive = self.alive
        # Both caches below change only when a run finishes, so they
        # are refreshed inside the ``_maybe_done`` block rather than
        # recomputed every tick.
        lane_mask = alive[self.run_of]
        self._all_alive = bool(alive.all())
        next_due = float(self.next_tick.min())
        while alive.any():
            if now >= min_max_time:
                for r in np.nonzero(alive)[0]:
                    if now >= max_times[r]:
                        e = self.engines[r]
                        raise SimulationError(
                            f"simulation exceeded {max_times[r]}s "
                            f"(application {e.application!r} stuck?)"
                        )
            self._tick(now, lane_mask)
            if trace_runs:
                self._record(ctxs, trace_runs)
            now += dt
            for r in injector_runs:
                if alive[r]:
                    ctxs[r].injector.advance(now)
            # Mirror of ControllerRuntime.on_time's due check: the call
            # is skipped exactly when it would return early.  Finished
            # runs park their next_tick at +inf, so the scalar minimum
            # is an exact pre-filter for the array comparison.
            if now + 1e-12 >= next_due:
                due = np.nonzero(alive & (now + 1e-12 >= self.next_tick))[0]
                vec_due: list[int] = []
                sg = False
                for r in due:
                    if self._vec_run[r]:
                        vec_due.append(r)
                        continue
                    ctx = ctxs[r]
                    self._scatter(r)
                    ctx.runtime.on_time(now)
                    self._gather(r)
                    self.next_tick[r] = ctx.runtime._next_tick_s
                    sg = True
                if vec_due:
                    self._tick_lanes(vec_due, now)
                if sg:
                    self._after_gather()
                next_due = float(self.next_tick.min())
            if self._maybe_done:
                for r in self._maybe_done:
                    if alive[r] and self._lanes_left[r] == 0:
                        alive[r] = False
                        self.next_tick[r] = np.inf
                        # Final sync: ``collect`` reads energies (and
                        # any state a later caller inspects) from the
                        # objects.
                        self._scatter(r)
                        ctx = ctxs[r]
                        if self._vec_run[r]:
                            self._sync_lane_controllers(r, ctx)
                        if ctx.sink is not None:
                            ctx.sink.close()
                            closed.add(r)
                self._maybe_done.clear()
                lane_mask = alive[self.run_of]
                self._all_alive = bool(alive.all())
                next_due = float(self.next_tick.min())

    def _record(self, ctxs: list[RunContext], trace_runs: list[int]) -> None:
        """Materialise this tick's trace samples for recording runs."""
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
            record = ctxs[r].sink.record
            for s, l in enumerate(self.run_lanes[r]):
                record(
                    s,
                    TraceSample(
                        time_s=times[l],
                        core_freq_hz=cores[l],
                        uncore_freq_hz=uncores[l],
                        package_power_w=pkgs[l],
                        dram_power_w=drams[l],
                        cap_w=caps[l],
                        flops_rate=flops[l],
                        bytes_rate=bts[l],
                        temperature_c=temps[l] if temps is not None else None,
                    ),
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

    def _tick_lanes(self, runs: list[int], now: float) -> None:
        """Fire the due controller ticks of ``runs`` on the lane arrays."""
        lanes: list[int] = []
        dts: list[float] = []
        for r in runs:
            interval = self._interval[r]
            dt_r = interval + (now - self.next_tick[r])
            for l in self.run_lanes[r]:
                lanes.append(l)
                dts.append(dt_r)
            self.next_tick[r] = now + interval
        idx = np.array(lanes)
        dt = np.array(dts)

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
        # association order.
        fl = d_f / dt
        by = (d_c * float(CACHE_LINE_BYTES)) / dt
        pk = (d_p * 1e-9) / dt
        dr = (d_d * 1e-9) / dt

        # Measurement noise consumes each run's shared generator in the
        # scalar draw order — per socket: flops, bytes, pkg, dram —
        # with the zero-value and zero-sigma draws skipped identically.
        # ``standard_normal(k)`` consumes the bit stream exactly like
        # ``k`` scalar draws, so each run's draws collapse to one call.
        fll, byl = fl.tolist(), by.tolist()
        pkl, drl = pk.tolist(), dr.tolist()
        pos = 0
        targets: list[tuple[list, int, float]] = []
        for r in runs:
            rng = self._rngs[r]
            cn = self._counter_noise[r]
            pn = self._power_noise[r]
            del targets[:]
            for _ in self.run_lanes[r]:
                if cn > 0.0:
                    if fll[pos] != 0.0:
                        targets.append((fll, pos, cn))
                    if byl[pos] != 0.0:
                        targets.append((byl, pos, cn))
                if pn > 0.0:
                    if pkl[pos] != 0.0:
                        targets.append((pkl, pos, pn))
                    if drl[pos] != 0.0:
                        targets.append((drl, pos, pn))
                pos += 1
            if targets:
                draws = rng.standard_normal(len(targets)).tolist()
                for (lst, i, sigma), z in zip(targets, draws):
                    lst[i] = max(lst[i] * (1.0 + sigma * z), 0.0)
        # ``dr`` exists only for noise-stream parity (no controller
        # reads the DRAM rate), so only the other three rebuild.
        fl, by = np.array(fll), np.array(byl)
        pk = np.array(pkl)

        # Measurement.operational_intensity (inf on no memory traffic).
        oi = np.where(by <= 0.0, np.inf, fl / by)

        # Dispatch per controller kind (runs usually share one form).
        st = self._lane_state
        kinds = self.ctrl_kind[idx]
        for code in np.unique(kinds):
            pos_k = np.flatnonzero(kinds == code)
            sub = idx[pos_k]
            changed, cap_act, unc_act = self._tick_forms[code](
                st, sub, fl[pos_k], by[pos_k], pk[pos_k], oi[pos_k]
            )
            self._log_lane_ticks(now, sub, changed, cap_act, unc_act)

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

    def _log_lane_ticks(
        self,
        now: float,
        idx: np.ndarray,
        changed: np.ndarray,
        cap_act: np.ndarray | None,
        unc_act: np.ndarray,
    ) -> None:
        """Append each lane's :class:`TickLog`, as the scalar tick does.

        ``cap_w`` reads the *latched* PL1 limit (pending writes from
        this very tick have not taken effect — same as the scalar
        ``ctx.cap.cap_w`` read at log time); ``uncore_hz`` reads the
        post-action pin (the scalar MSR write is immediate).
        """
        ctrls = self.ctrls
        pl1 = self.pl1_w[idx].tolist()
        pin = self._lane_state.uncore.pin[idx].tolist()
        ch = changed.tolist()
        ca = (
            [LANE_ACTIONS[c] for c in cap_act.tolist()]
            if cap_act is not None
            else ["hold"] * len(idx)
        )
        ua = [LANE_ACTIONS[c] for c in unc_act.tolist()]
        for i, l in enumerate(idx.tolist()):
            ctrls[l].ticks.append(
                TickLog(now, pl1[i], pin[i], ch[i], ca[i], ua[i])
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
        """
        st = self._lane_state
        for s, l in enumerate(self.run_lanes[r]):
            sctx = ctx.runtime.contexts[s]
            sctx.uncore._pin(float(st.uncore.pin[l]))
            sctx.cap.just_reset = bool(st.cap.just_reset[l])

    # -- one macro step, all lanes ---------------------------------------------------

    def _tick(self, step_start: float, lane_mask: np.ndarray) -> None:
        """One macro step: one full-width kernel pass, then a tail.

        Lanes are independent between controller syncs, so after the
        vectorized pass covers everyone's first slice, the few lanes
        split at a phase boundary finish their step through the
        bit-exact scalar mirror (``_lane_tail``) instead of dragging
        every lane through extra full-width sub-iterations.
        """
        dt = self.dt
        remaining = np.where(lane_mask, dt, 0.0)
        active = lane_mask
        if self._check_finish:
            newly = active & self.phase_done & self.unfinished
            if newly.any():
                self.finish[newly] = step_start + (dt - remaining[newly])
                self.unfinished[newly] = False
                for l in np.nonzero(newly)[0]:
                    r = self.run_of_list[l]
                    self._lanes_left[r] -= 1
                    if self._lanes_left[r] == 0:
                        self._maybe_done.append(r)
                self._check_finish = bool(
                    (self.phase_done & self.unfinished).any()
                )
        # ``_step`` and everything below treat the masks read-only, so
        # aliasing is safe when no lane has retired its phase list.
        working = (
            active & ~self.phase_done if self._any_phase_done else active
        )
        slice_ = remaining
        ttf = None
        if working.any():
            rate = self._preview(working)
            bad = working & ~(rate > 0.0)
            if bad.any():
                l = int(np.nonzero(bad)[0][0])
                raise SimulationError(
                    f"phase {self.cur_name[l]!r} makes no progress"
                )
            ttf = (1.0 - self.frac) / rate
            slice_ = np.minimum(remaining, np.maximum(ttf, _MIN_SLICE_S))
        dt_l = np.where(working, slice_, remaining)
        progress_rate = self._step(dt_l, active, working)
        # ``progress_rate`` and ``dt_l`` are exactly zero off the
        # working set, so the unmasked updates are no-ops there
        # (and ``r - r == 0.0`` retires idle lanes).
        made = np.minimum(progress_rate * dt_l, 1.0)
        self.frac += made
        remaining = remaining - dt_l
        if ttf is not None:
            done = working & (
                (self.frac >= 1.0 - _DONE_EPS)
                | (
                    (ttf <= slice_ + _MIN_SLICE_S)
                    & (self.frac >= 1.0 - 1e-3)
                )
            )
            crossed = np.nonzero(done)[0]
            for l in crossed:
                end = step_start + (dt - float(remaining[l]))
                self.spans[l].append(
                    PhaseSpan(
                        name=self.cur_name[l],
                        start_s=self.phase_start[l],
                        end_s=end,
                    )
                )
                self.phase_idx[l] += 1
                self.frac[l] = 0.0
                self.phase_start[l] = end
                if self.phase_idx[l] >= len(self.phases[l]):
                    self.phase_done[l] = True
                    self._check_finish = True
                else:
                    self._load_phase(l)
            if len(crossed):
                self._refresh_phase_flags()
                self._t_cache = None
        tail = np.nonzero(remaining > 0.0)[0]
        if len(tail):
            self._eff = None
            self._t_cache = None
            for l in tail.tolist():
                self._lane_tail(l, float(remaining[l]), step_start)
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
        self, dt_l: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``1 - exp(-dt_l/window)`` factors, bit-exact per lane.

        Almost every lane steps either the full macro ``dt`` (factor
        precomputed in ``_refresh_alpha``) or ``0`` (factor exactly
        ``0.0`` since ``exp(-0.0) == 1``); only lanes split at a phase
        boundary need a fresh :func:`math.exp`, patched per element.
        """
        full = dt_l == self.dt
        if full.all():
            return (
                self._alpha1,
                self._alpha2,
                self._alpha_th_arr if self.has_thermal else None,
            )
        a1 = np.where(full, self._alpha1, 0.0)
        a2 = np.where(full, self._alpha2, 0.0)
        a_th = (
            np.where(full, self._alpha_th, 0.0) if self.has_thermal else None
        )
        odd = (dt_l != 0.0) & ~full
        if odd.any():
            for l in np.nonzero(odd)[0].tolist():
                d = dt_l[l]
                a1[l] = 1.0 - math.exp(-d / self.pl1_win[l])
                a2[l] = 1.0 - math.exp(-d / self.pl2_win[l])
                if a_th is not None:
                    a_th[l] = 1.0 - math.exp(-d / self.th_tau)
        return a1, a2, a_th

    def _phase_time(
        self, core_hz: np.ndarray, need: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Roofline phase time ``t`` and compute time ``t_c``.

        Mirrors ``PhaseExecutionModel._roof_times`` + ``smooth_max``;
        values are meaningful only where ``need`` (working lanes).

        While the uncore is static, ``(t, t_c)`` is a pure function of
        the clock vector and the per-lane phase, so results memoize on
        the clock bytes; lanes that crossed a phase boundary since an
        entry was stored are re-derived scalar (``_t_lane``) instead of
        recomputing the whole batch.  Caching over shrinking ``need``
        masks is safe because ``working`` only ever shrinks, so a
        cached entry always covers at least the lanes now needed.
        """
        if self._u_static:
            key = core_hz.tobytes()
            hit = self._pt_memo.get(key)
            if hit is not None:
                ver, t, t_c = hit
                log = self._pt_dirty_log
                if ver < len(log):
                    clk = np.frombuffer(key, dtype=np.float64)
                    for l in set(log[ver:]):
                        if not self.phase_done[l]:
                            t[l], t_c[l] = self._t_lane(l, clk[l])
                    hit[0] = len(log)
                return t, t_c
        if self._any_us or self._any_ls:
            ratio = (
                self._u_ratio if self._u_static else self.umax / self.ufreq
            )
        t_c = self.cur_flops / (self.cur_peak_coef * core_hz)
        if self._any_us:
            np.copyto(
                t_c,
                t_c * (1.0 + self.cur_us * (ratio - 1.0)),
                where=self.cur_us_on,
            )
        bw_cap = (
            self._bw_cap
            if self._u_static
            else np.minimum(self.peak_bw, self.bw_per_uncore * self.ufreq)
        )
        bw = np.minimum(bw_cap, (self.bw_per_core * core_hz) * self.count)
        t_m = self.cur_bytes / bw
        if self._any_ls:
            np.copyto(
                t_m,
                t_m * (1.0 + self.cur_ls * (ratio - 1.0)),
                where=self.cur_ls_on,
            )
        t = np.where(t_m == 0.0, t_c, np.where(t_c == 0.0, t_m, np.nan))
        hole = need & np.isnan(t)
        if hole.any():
            # Reuse each lane's last smooth_max result while its
            # roofline inputs are unchanged; only moved lanes take the
            # scalar loop (bit-identity needs ``math``'s pow, and
            # ``np.power`` differs by ulps).
            same = hole & (t_c == self._sm_tc) & (t_m == self._sm_tm)
            np.copyto(t, self._sm_t, where=same)
            todo = hole & ~same
            if todo.any():
                sharp = self.sharpness
                idxs = np.nonzero(todo)[0].tolist()
                if len(idxs) > 32:
                    tcl = t_c.tolist()
                    tml = t_m.tolist()
                    for l in idxs:
                        t[l] = smooth_max(tcl[l], tml[l], sharp[l])
                else:
                    for l in idxs:
                        t[l] = smooth_max(t_c.item(l), t_m.item(l), sharp[l])
                np.copyto(self._sm_tc, t_c, where=todo)
                np.copyto(self._sm_tm, t_m, where=todo)
                np.copyto(self._sm_t, t, where=todo)
        if self._u_static:
            self._pt_memo[key] = [len(self._pt_dirty_log), t, t_c]
        return t, t_c

    def _preview(self, working: np.ndarray) -> np.ndarray:
        """``preview_progress_rate`` for the working lanes."""
        cached = self._t_cache
        if cached is not None:
            t_prev, need_prev = cached
            if not (working & ~need_prev).any():
                return 1.0 / t_prev
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
        t, _ = self._phase_time(core_hz, working)
        return 1.0 / t

    # -- scalar lane tail --------------------------------------------------------------
    #
    # Phase boundaries split a macro tick into sub-slices, but lanes
    # never interact between controller syncs, so only the *first*
    # slice runs through the full-width kernels; each lane split at a
    # boundary then finishes its tick alone through these pure-Python
    # mirrors.  Python float arithmetic is the same IEEE-754 double
    # arithmetic numpy applies elementwise, so as long as every formula
    # keeps the kernels' exact shape and association the tail is
    # bit-identical to the full-width path it replaces.

    def _csnap_s(self, f: float) -> float:
        if f <= self.cmin:
            return self.cmin
        if f >= self.cmax:
            return self.cmax
        # math.floor == np.trunc for the non-negative quotient here.
        return self.cmin + math.floor((f - self.cmin) / self.cstep) * self.cstep

    def _usnap_s(self, f: float) -> float:
        if f <= self.umin:
            return self.umin
        if f >= self.umax:
            return self.umax
        # round() is round-half-even like np.rint.
        return self.umin + float(round((f - self.umin) / self.ustep)) * self.ustep

    def _cvolt_s(self, f: float) -> float:
        core = self.socket_cfg.core
        if self.cmax == self.cmin:
            return core.v_max
        t = (f - self.cmin) / (self.cmax - self.cmin)
        t = min(max(t, 0.0), 1.0)
        return core.v_min + t * (core.v_max - core.v_min)

    def _uvolt_s(self, f: float) -> float:
        unc = self.socket_cfg.uncore
        if self.umax == self.umin:
            return unc.v_max
        t = (f - self.umin) / (self.umax - self.umin)
        t = min(max(t, 0.0), 1.0)
        return unc.v_min + t * (unc.v_max - unc.v_min)

    def _t_lane(self, l: int, core_hz: float) -> tuple[float, float]:
        """Scalar mirror of ``_phase_time`` for one lane."""
        if self._u_static:
            u_ratio = self._u_ratio.item(l)
            bw_cap = self._bw_cap.item(l)
        else:
            uf = self.ufreq.item(l)
            u_ratio = self.umax / uf
            bw_cap = min(self.peak_bw, self.bw_per_uncore * uf)
        t_c = self.cur_flops.item(l) / (self.cur_peak_coef.item(l) * core_hz)
        if self.cur_us_on[l]:
            t_c = t_c * (1.0 + self.cur_us.item(l) * (u_ratio - 1.0))
        bw = min(bw_cap, (self.bw_per_core * core_hz) * self.count)
        t_m = self.cur_bytes.item(l) / bw
        if self.cur_ls_on[l]:
            t_m = t_m * (1.0 + self.cur_ls.item(l) * (u_ratio - 1.0))
        if t_m == 0.0:
            t = t_c
        elif t_c == 0.0:
            t = t_m
        else:
            t = smooth_max(t_c, t_m, self.sharpness[l])
        return t, t_c

    def _preview_lane(self, l: int) -> float:
        eff = self._csnap_s(
            min(min(self.req.item(l), self.ctl.item(l)), self.clamp.item(l))
        )
        if self.avx_on and self.cur_fpc.item(l) >= self.avx_lic:
            eff = min(eff, self.avx_max)
        t, _ = self._t_lane(l, eff)
        return 1.0 / t if t != 0.0 else math.inf

    def _step_lane(self, l: int, d: float, working: bool) -> float:
        """Scalar mirror of ``_step`` for one lane; returns the rate."""
        boost = self.cur_boost.item(l) if working else 1.0

        # 1. RAPL firmware budget -> clamp.
        pl1 = self.pl1_w.item(l)
        h = pl1 - self.avg1.item(l)
        b = pl1 + 2.0 * h
        if h < 0.0:
            b = max(b, 0.0)
        budget = b if self.pl1_en[l] else math.inf
        if self.pl2_en[l]:
            budget = min(budget, self.pl2_w.item(l))
        if self._u_static:
            u_coef = self._u_coef.item(l)
        else:
            uf0 = self.ufreq.item(l)
            uv = self._uvolt_s(uf0)
            u_coef = ((self.k_uncore * uv) * uv) * (uf0 / 1e9)
        prev_traf = self.prev_traf.item(l)
        prev_act = self.prev_act.item(l)
        up_prev = u_coef * (self.u0 + self._u1 * prev_traf)
        budget_cores = budget - (self.static_w + up_prev)
        scale_prev = self.a0 + self._a1 * prev_act
        best = self.cmin
        cpb = self._cpb_list
        for i in range(self._grid_last, -1, -1):
            if (cpb[i] * scale_prev) * boost <= budget_cores:
                best = self._pf_list[i]
                break
        clamp = min(max(best, self.cmin), self.cmax)
        self.clamp[l] = clamp

        # 2. Uncore governor.
        if self._u_static:
            uf = self.ufreq.item(l)
        else:
            lo = self.win_lo.item(l)
            hi = self.win_hi.item(l)
            if lo == hi:
                uf = lo
            else:
                demand_t = min(prev_traf / self.g_sat.item(l), 1.0)
                if prev_act >= self.g_thresh.item(l):
                    demand_t = max(demand_t, self.g_floor.item(l))
                dem = self.demand.item(l)
                dem = dem + self.g_resp.item(l) * (demand_t - dem)
                self.demand[l] = dem
                uf = self._usnap_s(lo + dem * (hi - lo))
            self.ufreq[l] = uf

        # 3. Core clock (+ AVX license, + PROCHOT).
        eff = self._csnap_s(
            min(min(self.req.item(l), self.ctl.item(l)), clamp)
        )
        core_hz = eff
        if (
            self.avx_on
            and working
            and self.cur_fpc.item(l) >= self.avx_lic
        ):
            core_hz = min(eff, self.avx_max)
        if self.has_thermal and self.prochot[l]:
            core_hz = min(core_hz, self.prochot_snap)

        # 4. Roofline rates.
        if working:
            t, t_c = self._t_lane(l, core_hz)
            flops_rate = self.cur_flops.item(l) / t
            bytes_rate = self.cur_bytes.item(l) / t
            activity = min(t_c / t, 1.0)
            traffic = min(bytes_rate / self.peak_bw, 1.0)
            progress_rate = 1.0 / t if t != 0.0 else math.inf
        else:
            flops_rate = bytes_rate = 0.0
            activity = traffic = progress_rate = 0.0

        # 5. Package + DRAM power.
        cv = self._cvolt_s(core_hz)
        core_w = (((self.ck * cv) * cv) * (core_hz / 1e9)) * (
            self.a0 + self._a1 * activity
        )
        core_w = core_w * boost
        if self._u_static:
            uc2 = u_coef
        else:
            uv2 = self._uvolt_s(uf)
            uc2 = ((self.k_uncore * uv2) * uv2) * (uf / 1e9)
        uncore_w = uc2 * (self.u0 + self._u1 * traffic)
        total = (self.static_w + core_w) + uncore_w
        dram_traffic = bytes_rate
        if working and self.cur_ov_on[l] and uf < self.sat_hz:
            dram_traffic = bytes_rate * (
                1.0 + self.cur_ov.item(l) * (1.0 - uf / self.sat_hz)
            )
        dram_w = self.dram_static + self.dram_epb * dram_traffic

        # 6. RAPL: latch, meter energy, windowed averages.
        rn = self.rapl_now.item(l) + d
        self.rapl_now[l] = rn
        if self._any_pending:
            due = self.pend_due.item(l)
            if due != math.inf and rn >= due:
                self.pl1_w[l] = self.pend1_w.item(l)
                self.pl1_win[l] = self.pend1_win.item(l)
                self.pl2_w[l] = self.pend2_w.item(l)
                self.pl2_win[l] = self.pend2_win.item(l)
                self.pl1_en[l] = True
                self.pl2_en[l] = True
                self.pend_due[l] = np.inf
                self._any_pending = bool(np.isfinite(self.pend_due).any())
                self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
                self._refresh_alpha((l,))
        self.e_pkg[l] = self.e_pkg.item(l) + total * d
        self.e_dram[l] = self.e_dram.item(l) + dram_w * d
        if d == self.dt:
            a1 = self._alpha1.item(l)
            a2 = self._alpha2.item(l)
            a_th = self._alpha_th if self.has_thermal else 0.0
        elif d == 0.0:
            a1 = a2 = a_th = 0.0
        else:
            a1 = 1.0 - math.exp(-d / self.pl1_win.item(l))
            a2 = 1.0 - math.exp(-d / self.pl2_win.item(l))
            a_th = (
                1.0 - math.exp(-d / self.th_tau) if self.has_thermal else 0.0
            )
        avg1 = self.avg1.item(l)
        self.avg1[l] = avg1 + a1 * (total - avg1)
        avg2 = self.avg2.item(l)
        self.avg2[l] = avg2 + a2 * (total - avg2)

        # 7. Thermal RC + PROCHOT hysteresis.
        if self.has_thermal:
            temp = self.temp.item(l)
            temp = temp + a_th * ((self.th_amb + total * self.th_r) - temp)
            self.temp[l] = temp
            if temp >= self.th_trip:
                self.prochot[l] = True
            elif temp <= self.th_trip - self.th_hyst:
                self.prochot[l] = False

        # 8. Counters.
        self.aperf[l] = self.aperf.item(l) + eff * d
        self.mperf[l] = self.mperf.item(l) + self.base_hz * d
        self.flops_ret[l] = self.flops_ret.item(l) + flops_rate * d
        self.bytes_trans[l] = self.bytes_trans.item(l) + bytes_rate * d
        self.proc_now[l] = self.proc_now.item(l) + d
        self.prev_act[l] = activity
        self.prev_traf[l] = traffic

        # 9. Trace snapshot.
        if self._tracing:
            self.st_core[l] = core_hz
            self.st_uncore[l] = uf
            self.st_pkg[l] = total
            self.st_dram[l] = dram_w
            self.st_flops[l] = flops_rate
            self.st_bytes[l] = bytes_rate
        return progress_rate

    def _lane_tail(self, l: int, rem: float, step_start: float) -> None:
        """Finish lane ``l``'s macro tick alone (see ``_tick``)."""
        dt = self.dt
        while rem > 0.0:
            if self.phase_done[l]:
                if self.unfinished[l]:
                    self.finish[l] = step_start + (dt - rem)
                    self.unfinished[l] = False
                    r = self.run_of_list[l]
                    self._lanes_left[r] -= 1
                    if self._lanes_left[r] == 0:
                        self._maybe_done.append(r)
                    self._check_finish = bool(
                        (self.phase_done & self.unfinished).any()
                    )
                self._step_lane(l, rem, False)
                return
            rate = self._preview_lane(l)
            if not rate > 0.0:
                raise SimulationError(
                    f"phase {self.cur_name[l]!r} makes no progress"
                )
            frac = self.frac.item(l)
            ttf = (1.0 - frac) / rate
            slice_ = min(rem, max(ttf, _MIN_SLICE_S))
            progress_rate = self._step_lane(l, slice_, True)
            frac = frac + min(progress_rate * slice_, 1.0)
            self.frac[l] = frac
            rem = rem - slice_
            if frac >= 1.0 - _DONE_EPS or (
                ttf <= slice_ + _MIN_SLICE_S and frac >= 1.0 - 1e-3
            ):
                end = step_start + (dt - rem)
                self.spans[l].append(
                    PhaseSpan(
                        name=self.cur_name[l],
                        start_s=self.phase_start[l],
                        end_s=end,
                    )
                )
                self.phase_idx[l] += 1
                self.frac[l] = 0.0
                self.phase_start[l] = end
                if self.phase_idx[l] >= len(self.phases[l]):
                    self.phase_done[l] = True
                    self._check_finish = True
                else:
                    self._load_phase(l)

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
        if (top <= budget_cores).all():
            # Nobody is power-limited: the search would return the top
            # grid point everywhere.  (``where=True`` is the unmasked
            # fast path when every lane is still alive.)
            np.copyto(
                self.clamp,
                self._clamp_top,
                where=True if self._all_alive else active,
            )
        else:
            fits = self.cp_grid * scale_prev[:, None]
            if boost is not None:
                fits = fits * boost[:, None]
            fits = fits <= budget_cores[:, None]
            any_fit = fits.any(axis=1)
            idx = self._grid_last - np.argmax(fits[:, ::-1], axis=1)
            best = np.where(any_fit, self.pfreqs[idx], self.cmin)
            np.copyto(
                self.clamp,
                np.minimum(np.maximum(best, self.cmin), self.cmax),
                where=active,
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
        t, t_c = self._phase_time(core_hz, working)
        if self._t_reuse:
            self._t_cache = (t, working)
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
            ov = working & self.cur_ov_on & (self.ufreq < self.sat_hz)
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
        # ``dt_l == 0`` so their increment is an exact ``+0.0`` (and
        # the EMA factor ``1 - exp(-0/w)`` is exactly zero), both of
        # which are bitwise no-ops on the non-negative state here.
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
        a1, a2, a_th = self._ema_alphas(dt_l)
        self.avg1 += a1 * (total - self.avg1)
        self.avg2 += a2 * (total - self.avg2)

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
        if self._all_alive:
            np.copyto(self.prev_act, activity)
            np.copyto(self.prev_traf, traffic)
        else:
            np.copyto(self.prev_act, activity, where=active)
            np.copyto(self.prev_traf, traffic, where=active)

        # 9. Trace snapshot (skipped when no run records a trace).
        if self._tracing:
            np.copyto(self.st_core, core_hz, where=active)
            np.copyto(self.st_uncore, self.ufreq, where=active)
            np.copyto(self.st_pkg, total, where=active)
            np.copyto(self.st_dram, dram_w, where=active)
            np.copyto(self.st_flops, flops_rate, where=active)
            np.copyto(self.st_bytes, bytes_rate, where=active)
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
    engines: Sequence[SimulationEngine], *, max_batch: int | None = None
) -> list[RunResult]:
    """Run many engines, batching the compatible ones.

    Engines are grouped by ``(SocketConfig, dt_s)``; each group runs
    through one :class:`BatchSimulationEngine` (split into chunks of at
    most ``max_batch`` runs when given).  Engines that cannot be
    batched (see :func:`batch_fallback_reason`) run through the scalar
    engine — results are identical either way, so callers never need
    to care which path executed.  Results come back in input order.
    """
    if max_batch is not None and max_batch < 1:
        raise SimulationError("max_batch must be at least 1")
    results: list[RunResult | None] = [None] * len(engines)
    groups: dict[tuple, list[int]] = {}
    for i, e in enumerate(engines):
        if batch_fallback_reason(e) is not None:
            results[i] = e.run()
        else:
            key = (e.machine.config.socket, e.engine_cfg.dt_s)
            groups.setdefault(key, []).append(i)
    for idxs in groups.values():
        for chunk in _chunks(idxs, max_batch or len(idxs)):
            out = BatchSimulationEngine([engines[i] for i in chunk]).run()
            for i, res in zip(chunk, out):
                results[i] = res
    return [r for r in results if r is not None]
