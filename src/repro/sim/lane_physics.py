"""The batch lanes' hardware: steps 1-9 of ``SimulatedProcessor.step``,
one array operation per model step across all lanes (docs/BATCHING.md,
"Modules")."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

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
from .lane_mirror import FIELDS, THERMAL_FIELDS, staged_write

__all__ = ["LanePhysics"]

#: Rows of the per-phase constant tables: an application's
#: :class:`~repro.workloads.phase.PhaseTable` rows plus the peak rate
#: ``count * fpc``.  A lane's own rows are only the jittered
#: ``_VOLUMES``; the rest is its base application's.
_PEAK = TABLE_ROWS

#: Rows of the per-lane operating-point cache (see ``_points``), and
#: the progress-rate row.
_POINT_ROWS = 9
_PROG = 4


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


def _snap(f, lo, hi, step, rnd):
    """A clock request snapped to the ``step`` grid on ``[lo, hi]``:
    ``rnd`` is ``np.trunc`` for the P-state driver, ``np.rint`` for the
    uncore driver."""
    inner = lo + rnd((f - lo) / step) * step
    return np.where(f <= lo, lo, np.where(f >= hi, hi, inner))


def _volt(f, lo, hi, v_min, v_max):
    """The voltage at clock ``f``, linear from ``v_min`` at ``lo`` to
    ``v_max`` at ``hi``."""
    if hi == lo:
        return np.full_like(f, v_max)
    t = (f - lo) / (hi - lo)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return v_min + t * (v_max - v_min)


class LanePhysics:
    """Every lane's hardware state and the kernels that step it.

    ``procs`` are the lanes' freshly built processors, read once for
    the mirrored state and not kept: nothing here refers to a run, its
    objects or the engine.  ``bases`` are the distinct base
    applications' phase tables and ``names`` their columns; row ``k``
    of lane ``l``'s ``volumes`` is column ``k + col_shift[l]``.
    """

    def __init__(
        self,
        cfg,
        dt: float,
        procs: list,
        names: list[str],
        bases: list[np.ndarray],
        volumes: list[np.ndarray],
        col_shift: np.ndarray,
    ):
        self.dt = dt
        L = self.L = len(procs)
        core, unc, pwr, mem = cfg.core, cfg.uncore, cfg.power, cfg.memory
        self.count = core.count
        self.cmin, self.cmax = core.min_freq_hz, core.max_freq_hz
        self.avx_lic, self.avx_max = core.avx_license_fpc, core.avx_max_freq_hz
        self.avx_on = math.isfinite(self.avx_lic)
        self.umin, self.umax = unc.min_freq_hz, unc.max_freq_hz
        self.static_w = pwr.static_w
        self.a0, self.u0 = pwr.core_idle_fraction, pwr.uncore_idle_fraction
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
            self.prochot_snap = procs[0].dvfs.snap(th.prochot_freq_hz)
        self._csnap = partial(
            _snap, lo=self.cmin, hi=self.cmax, step=core.step_hz, rnd=np.trunc
        )
        self._usnap = partial(
            _snap, lo=self.umin, hi=self.umax, step=unc.step_hz, rnd=np.rint
        )
        self._cvolt = partial(
            _volt, lo=self.cmin, hi=self.cmax, v_min=core.v_min, v_max=core.v_max
        )
        self._uvolt = partial(
            _volt, lo=self.umin, hi=self.umax, v_min=unc.v_min, v_max=unc.v_max
        )

        # P-state grid and the per-grid-point core power base — Python
        # floats in the scalar model's exact association order, so
        # ``core_power(f, a) == cp_base[i] * scale`` bitwise.
        n_steps = int(round((self.cmax - self.cmin) / core.step_hz))
        pf = [self.cmin + i * core.step_hz for i in range(n_steps + 1)]
        cp_base = np.array(
            [
                ((self.ck * core.voltage_at(f)) * core.voltage_at(f)) * (f / 1e9)
                for f in pf
            ],
            dtype=np.float64,
        )
        self.cp_grid = cp_base[None, :]
        self._grid_last = len(pf) - 1
        self._cp_top = float(cp_base[-1])
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
        self.pend = np.zeros((5, L), dtype=np.float64)
        self.pend[0] = np.inf
        (
            self.pend_due,
            self.pend1_w,
            self.pend1_win,
            self.pend2_w,
            self.pend2_win,
        ) = self.pend
        # Cap and fleet writes stage here, through a partial over the
        # arrays that keeps no other lane state alive.
        self.stage = partial(
            _stage, self.pend, self.rapl_now, cfg.rapl.actuation_delay_s
        )
        # Each lane's operating point (see ``_points``): the rates and
        # power of its last computed (core clock, uncore clock, phase
        # row, working) key, one row per quantity.  The first four rows
        # are the rates ``_acc`` integrates.
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
        # Hardware state mirrored from the freshly built objects (the
        # controller attach hooks may already have actuated): rows of
        # the blocks above fill in place, other fields get an array.
        self.mirror = FIELDS + THERMAL_FIELDS if self.has_thermal else FIELDS
        for f in self.mirror:
            values = [f.read(p) for p in procs]
            row = self.__dict__.get(f.lane)
            if row is None:
                setattr(self, f.lane, np.array(values))
            else:
                row[:] = values
        for l, p in enumerate(procs):
            staged = staged_write(p)
            if staged is not None:
                self.pend[:, l] = staged
        # The clocks are kept as the point's key; a crossing changes the
        # row and the working flag, so it drops the crossing lanes' keys
        # (``load_rows``, ``idle``).  NaN never compares equal, so a
        # fresh or dropped key always recomputes.
        self._key_core = np.full(L, np.nan)
        self._key_unc = np.full(L, np.nan)
        # The activity and traffic terms of the core and uncore power,
        # which the next step's RAPL clamp reads too.
        self.p_scale[:] = self.a0 + self._a1 * self.p_act
        self.p_uterm[:] = self.u0 + self._u1 * self.p_traf
        # The uncore power coefficient per lane, for the clock in
        # ``_u_hz``; ``refresh_uncore`` updates the lanes that moved.
        self._u_hz = np.full(L, np.nan)
        self._u_coef = z()

        # The current phase's constants, one row per quantity (the
        # ``cur_*`` names are views), and the matching phase tables: a
        # crossing gathers its next row's volumes and its base column's
        # other quantities.  The bases' own volume rows go unread.
        self.names = names
        self.col_shift = col_shift
        self._vol = np.concatenate(volumes, axis=1)
        self._tab = np.empty((_PEAK + 1, len(names)), dtype=np.float64)
        np.concatenate(bases, axis=1, out=self._tab[:_PEAK])
        np.multiply(self.count, self._tab[_FPC], out=self._tab[_PEAK])
        self._cur = np.zeros((_PEAK + 1, L), dtype=np.float64)
        self._cur[[_FPC, _BOOST]] = 1.0
        self.cur_fpc, self.cur_boost = self._cur[_FPC], self._cur[_BOOST]
        # Batch-wide guards for optional phase terms: when no phase of
        # any lane uses a term, the kernels skip it.  The skipped
        # factors are all exactly 1.0, so skipping is bitwise free.
        self._any_us, self._any_ls, self._any_ov = (
            (self._tab[[_US, _LS, _OV]] > 0.0).any(axis=1).tolist()
        )
        self._any_boost = bool((self._tab[_BOOST] != 1.0).any())

        # Last-step snapshot (the trace sample fields).
        self.st_core, self.st_uncore = z(), z()
        self.st_pkg, self.st_dram = z(), z()
        self.st_flops, self.st_bytes = z(), z()

        # Scalar flags guarding rarely-needed kernel blocks, and the
        # pass flags the engine sets: every lane active, a run records
        # a trace, and a live fleet bids the last step's package power.
        self.any_pending = bool(np.isfinite(self.pend_due).any())
        self.all_active = True
        self.tracing = True
        self.keep_pkg = False
        # The effective P-state clock, refreshed where the clamp or
        # ``perf_ctl`` moves (the next preview reads it too), and the
        # MPERF reference clock: the rates APERF and MPERF count.
        self._cyc = np.empty((2, L), dtype=np.float64)
        self._eff = self._cyc[0]
        self._cyc[1] = core.base_freq_hz
        # The grid point of each lane's clamp (-1: the floor; -2: not
        # yet resolved, so the first step resolves every lane's), and
        # the lanes it holds below the top.
        self._k = np.full(L, -2)
        self._low = np.ones(L, dtype=bool)
        self._any_low = True
        # EMA factors for the common ``dt_l == dt`` slice, one row per
        # RAPL window, and the windows they were computed for; lanes
        # with a partial slice are patched per element (``_ema_alphas``).
        self._alpha = np.zeros((2, L), dtype=np.float64)
        self._alpha_win = np.full((2, L), np.nan)
        # Everything else derived from the mirrored fields.
        self.after_gather()
        if self.has_thermal:
            self._alpha_th_arr = np.full(L, 1.0 - math.exp(-self.dt / self.th_tau))

    def load_rows(self, lanes: np.ndarray, rows: np.ndarray) -> None:
        """``lanes`` enter phase-table ``rows``: their current-phase
        constants gather, and their points' keys drop."""
        self._key_core[lanes] = np.nan
        self._cur[_VOLUMES, lanes] = self._vol[:, rows]
        self._cur[_FPC:, lanes] = self._tab[_FPC:, rows + self.col_shift[lanes]]

    def idle(self, lanes: np.ndarray) -> None:
        """``lanes`` retired their phase list: their points' keys drop.

        A lane with no phase left idles at boost 1.0, so the step can
        read ``cur_boost`` unmasked on every active lane.
        """
        self._key_core[lanes] = np.nan
        self.cur_boost[lanes] = 1.0

    def after_gather(self) -> None:
        """Batch-wide refreshes after a group of ``_gather`` calls.

        These scan whole arrays, so one pass after all due runs have
        synced replaces a pass per run.
        """
        self._all_en = bool(self.pl1_en.all() and self.pl2_en.all())
        self._refresh_alpha()
        self.refresh_uncore()
        # ``perf_ctl`` may have moved.
        self._eff[:] = self._csnap(
            np.minimum(np.minimum(self.req, self.ctl), self.clamp)
        )

    def after_lane_ticks(self, idx: np.ndarray) -> None:
        """The refreshes a lane-parallel tick on ``idx`` needs.

        Staged cap writes re-arm the pending-latch scan (off, it saw no
        other write staged); moved uncore pins refresh their lanes'
        uncore terms (their operating points miss on the clock).  Only
        ``clocks`` moves the RAPL clamp and only ``_gather`` moves
        ``perf_ctl``, so ``_eff`` stays valid.
        """
        if not self.any_pending:
            self.any_pending = bool(np.isfinite(self.pend_due[idx]).any())
        self.refresh_uncore()

    def refresh_uncore(self) -> None:
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

    # -- vector kernels ---------------------------------------------------------------

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
        if not self.all_active:
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
            # 1.0 on an idle lane (see ``idle``).
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

    def clocks(
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
        all_active = self.all_active
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
            budget = np.where(self.pl2_en, np.minimum(budget, self.pl2_w), budget)
        # Until step 4-5 refreshes it, the cache holds each lane's last
        # step's point: its activity and traffic are the scalar
        # ``_prev_activity`` and ``_prev_traffic``, and its power terms
        # the ones the scalar clamp derives from them.
        up_prev = self._u_coef * self.p_uterm
        budget_cores = budget - (self.static_w + up_prev)
        scale_prev = self.p_scale
        top = self._cp_top * scale_prev
        if self._any_boost:
            # 1.0 on an idle lane (see ``idle``).
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
        # change only at a crossing, which drops the key.
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

    def step(
        self, dt_l: np.ndarray, active: np.ndarray, core_hz: np.ndarray
    ) -> np.ndarray:
        """Steps 6-9 of ``SimulatedProcessor.step`` over ``dt_l``, at
        the operating points ``clocks`` resolved."""
        all_active = self.all_active
        total = self.p_total

        # 6. RAPL step: meter energy, latch pending limits, averages.
        # The integrals drop the ``active`` mask: inactive lanes have
        # ``dt_l == 0`` and finite rates, so their increment is an
        # exact ``+0.0``, a bitwise no-op on the non-negative state.
        acc = self._acc
        acc[:4] += self._pt[:4] * dt_l
        acc[4:6] += self._cyc * dt_l
        acc[6:] += dt_l
        if self.any_pending:
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
                self.any_pending = bool(np.isfinite(self.pend_due).any())
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
        if self.tracing:
            np.copyto(self.st_core, core_hz, where=active)
            np.copyto(self.st_uncore, self.ufreq, where=active)
            np.copyto(self.st_pkg, total, where=active)
            np.copyto(self.st_dram, self.p_dram, where=active)
            np.copyto(self.st_flops, self.p_flops, where=active)
            np.copyto(self.st_bytes, self.p_bytes, where=active)
        elif self.keep_pkg:
            np.copyto(self.st_pkg, total, where=active)
        # Finite on every lane, and zero on an active lane that idles.
        return self.p_prog
