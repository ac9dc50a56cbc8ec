"""Lane-parallel controller ticks: the vector twin of ``ControllerRuntime.on_time``.

The measurement interval, the PAPI counter reads, the noise draws and
the controller decision execute as masked vector operations on the
lane arrays (docs/BATCHING.md, "Lane-parallel controller ticks").
Eligibility (``controller_lane_fallback_reason``) makes the scalar
degraded-telemetry branches unreachable: no injector means the meter
never raises and never returns non-finite rates, so every tick takes
the clean path — interval ``dt = interval + (now - next_tick)`` with
no debt or jitter, one measurement, one tick.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.base import TickLog
from ..core.capping import CapLanes
from ..core.detector import PhaseDetectorLanes
from ..core.duf import LANE_ACTIONS, LANE_HOLD, LaneControllerState
from ..core.registry import vector_tick_form
from ..core.tolerance import SlowdownLanes
from ..core.uncore_actuator import UncoreLanes
from ..lazy import attach
from ..papi.events import CACHE_LINE_BYTES

__all__ = ["LaneRuntime", "noise_block_len"]

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

    Each due tick form appends one record of arrays; :meth:`entries`
    builds one lane's :class:`TickLog` list when a controller's
    ``ticks`` is first read.
    """

    def __init__(self) -> None:
        #: ``(now, lanes, pl1_w, uncore_hz, changed, cap_act, unc_act)``:
        #: the lanes as ``int32`` (a batch holds far fewer than 2**31)
        #: and the actions as ``int8`` codes (:data:`LANE_ACTIONS`).
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
        flat = self._sorted()
        lo, hi = np.searchsorted(flat[1], (lane, lane + 1))
        now, _, pl1, uncore, changed, cap_act, unc_act = (
            col[lo:hi].tolist() for col in flat
        )
        acts = LANE_ACTIONS
        return [
            TickLog(t, p, u, c, acts[a], acts[b])
            for t, p, u, c, a, b in zip(now, pl1, uncore, changed, cap_act, unc_act)
        ]


class LaneRuntime:
    """The lane-parallel controller ticks of one batch.

    ``blocks[r]`` is run ``r``'s range of lanes and ``eligible[r]``
    whether its controllers tick here; the other runs' lanes never
    reach the vector tick forms.  ``next_tick`` is the batch's per-run
    due-time array, shared with the engine, as the ``physics`` arrays
    are; nothing here refers to the engine.
    """

    def __init__(self, engines, ctxs, physics, blocks, eligible, next_tick):
        L = physics.L
        self.next_tick = next_tick
        self.flops_ret, self.bytes_trans = physics.flops_ret, physics.bytes_trans
        self.e_pkg, self.e_dram = physics.e_pkg, physics.e_dram
        self.pl1_w, self.ufreq = physics.pl1_w, physics.ufreq
        # Per-run tick parameters (the runtime's measurement loop), and
        # each run's lane block as its first lane and its size; ``None``
        # when every run has one lane, so the due runs are the lanes.
        self._interval = np.array([e.controller_cfg.interval_s for e in engines])
        counts = [len(b) for b in blocks]
        self._first = (
            None if L == len(blocks) else np.array([b.start for b in blocks])
        )
        self._nlanes = np.array(counts)
        # Per-lane noise sigma of each measured rate, in draw order.
        sigma = np.array(
            [
                (e.noise.counter_noise,) * 2 + (e.noise.power_noise,) * 2
                for e in engines
            ]
        )
        self._sigma = np.repeat(sigma, counts, axis=0)
        # Prefetched measurement-noise blocks (see ``_noise_draws``):
        # run ``r``'s block is ``_nz[_nz_off[r]:][:_nz_len[r]]`` and its
        # next unused draw sits at ``_nz_cur[r]``; a block starts used up.
        self._rngs = [ctx.rng for ctx in ctxs]
        noisy = np.array(eligible) & (sigma > 0.0).any(axis=1)
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
            return np.repeat([getattr(e.controller_cfg, name) for e in engines], counts)

        # Mirrors of the PAPI event-set counters: the raw integer reads
        # latched at meter start (all counters are zero there, but the
        # mirrors are derived through the same read formulas so the
        # invariant is by construction, not by assumption).
        rc = engines[0].machine.processors[0].rapl.cfg
        self._e_unit = rc.energy_unit_j
        self._e_span = float(1 << rc.counter_bits)
        self._e_wrap = float(int((1 << rc.counter_bits) * rc.energy_unit_j * 1e9))
        self._mt_f = np.trunc(self.flops_ret)
        self._mt_c = np.trunc(self.bytes_trans / float(CACHE_LINE_BYTES))
        self._mt_p = self._energy_raw_nj(self.e_pkg)
        self._mt_d = self._energy_raw_nj(self.e_dram)

        # The actuator pin points as the attach hooks left them.
        pin = np.array(
            [
                sctx.uncore.pinned_freq_hz
                for ctx in ctxs
                for sctx in ctx.runtime.contexts
            ],
            dtype=np.float64,
        )
        tol = cfg_arr("tolerated_slowdown")
        err = cfg_arr("measurement_error")
        self._lane_state = LaneControllerState(
            detector=PhaseDetectorLanes(cfg_arr("phase_flops_jump")),
            uncore=UncoreLanes(
                pin=pin,
                win_lo=physics.win_lo,
                win_hi=physics.win_hi,
                freq=physics.ufreq,
                min_hz=physics.umin,
                max_hz=physics.umax,
                step_hz=cfg_arr("uncore_step_hz"),
            ),
            flops=SlowdownLanes(tol, err),
            bandwidth=SlowdownLanes(tol, err),
            last_increase_flops=np.full(L, np.nan),
            cap=CapLanes(
                pl1_w=physics.pl1_w,
                pl1_win=physics.pl1_win,
                pl2_win=physics.pl2_win,
                stage=physics.stage,
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

    def tick(self, runs: np.ndarray, now: float) -> np.ndarray:
        """Fire the due controller ticks of ``runs``; returns their lanes."""
        # Each run's interval spans from its last tick to ``now``; its
        # lanes are one contiguous block, so the due lanes are a run of
        # aranges (``pos0`` is where each run's lanes start in ``idx``).
        interval = self._interval[runs]
        dt_r = interval + (now - self.next_tick[runs])
        self.next_tick[runs] = now + interval
        if self._first is None:
            idx, dt, pos0 = runs, dt_r, None
        else:
            counts = self._nlanes[runs]
            pos0 = np.cumsum(counts) - counts
            idx = np.repeat(self._first[runs] - pos0, counts) + np.arange(
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
            rates[draw] = np.maximum(rates[draw] * (1.0 + sigma[draw] * z), 0.0)
        fl, by, pk = rates[:, 0], rates[:, 1], rates[:, 2]

        # Measurement.operational_intensity (inf on no memory traffic).
        oi = np.where(by <= 0.0, np.inf, fl / by)

        # One tick per controller kind, logged as the scalar TickLog:
        # ``cap_w`` reads the *latched* PL1 limit (this very tick's
        # writes have not taken effect, as at the scalar log time), and
        # ``uncore_hz`` an acting form's post-action pin (the scalar MSR
        # write is immediate) or a log-only form's running uncore clock.
        # ``bincount`` keeps ``numpy.ma`` unimported (``np.unique``
        # loads it); the codes come out in the same ascending order.
        st = self._lane_state
        kinds = self.ctrl_kind[idx]
        for code in np.flatnonzero(np.bincount(kinds)):
            pos_k = (kinds == code).nonzero()[0]
            sub = idx[pos_k]
            form = self._tick_forms[code]
            changed, cap_act, unc_act = form.tick(
                st, sub, fl[pos_k], by[pos_k], pk[pos_k], oi[pos_k]
            )
            if cap_act is None:
                cap_act = np.full(len(sub), LANE_HOLD, dtype=np.int8)
            uncore = self.ufreq if form.log_only else st.uncore.pin
            self._tick_log.records.append(
                (
                    now,
                    sub.astype(np.int32),
                    self.pl1_w[sub],
                    uncore[sub],
                    changed,
                    cap_act,
                    unc_act,
                )
            )
        return idx

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

    def retire(self, lanes: range, ctx) -> None:
        """Hand a finished run's actuations and tick logs to its objects.

        After the engine's ``_scatter``, what remains is the state the
        scalar tick writes through the actuators: the uncore pin (MSR
        0x620 plus the window snap, idempotent when re-applied) and the
        cap actuator's ``just_reset`` latch.  Tracker state (phase
        maxima, detector history) stays unsynced: nothing reads it after
        the run.  A log-only form never actuated, and a re-pin would
        close a default run's open uncore window or overwrite a static
        uncore pin, so its lanes replay nothing.
        """
        st = self._lane_state
        forms = self._tick_forms
        for s, l in enumerate(lanes):
            if not forms[self.ctrl_kind[l]].log_only:
                sctx = ctx.runtime.contexts[s]
                sctx.uncore._pin(float(st.uncore.pin[l]))
                sctx.cap.just_reset = bool(st.cap.just_reset[l])
            attach(self.ctrls[l], "ticks", partial(self._tick_log.entries, l))
