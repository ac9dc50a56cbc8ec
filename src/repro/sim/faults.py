"""Deterministic fault injection for the simulated substrate.

Real power-capping runtimes live with messy telemetry: ``rdmsr`` calls
fail transiently, counters go stale or wrap mid-read, power meters drop
samples, RAPL limit writes take "some time" to latch (the paper resets
the cap when consumption exceeds it for exactly this reason), and
control timers miss or jitter.  This module makes those failure modes
first-class, seeded and schedulable, so the controllers' degradation
behaviour is testable instead of theoretical.

* :class:`FaultPlan` — a frozen, picklable description of *which* fault
  channels fire and *how often*.  It threads through
  :class:`~repro.experiments.executor.RunSpec` and folds into the
  result-cache digest, so two sweeps differing only in a fault rate
  never share cached cells.  A plan with every rate at zero is
  normalised away (``active`` is ``False``) and is contractually
  indistinguishable — byte-identical traces, identical digests — from
  running with no plan at all.
* :class:`FaultInjector` — the per-run dice roller.  It draws from its
  own child RNG stream (never the engine's), so enabling a channel
  cannot perturb workload jitter or measurement noise, and emits a
  :class:`FaultEvent` through the run's
  :class:`~repro.sim.trace.TraceSink` for every fault that fires.
* :func:`parse_fault_plan` — the CLI grammar
  (``msr_fail=0.01,cap_latch_fail=0.05``), mirroring the policy
  parameter syntax.

Determinism: the injector seeds ``default_rng([seed, salt, _STREAM])``
and a channel whose rate is zero draws nothing, so runs are bitwise
reproducible for a given ``(FaultPlan, seed)`` and unaffected channels
keep their streams even as other rates change from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import validate_bounded_fields, validated_once
from ..errors import FaultInjectionError

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "parse_fault_plan",
    "FAULT_CHANNELS",
    "NODE_WIDE",
]

#: Fixed stream label decorrelating the fault RNG from the engine RNG,
#: which is seeded from the same integer.
_STREAM = 0xFA17

#: ``socket_id`` used for node-wide events (missed/jittered ticks hit
#: every socket's controller at once).
NODE_WIDE = -1


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, schedulable fault channels for one run.

    All ``*_rate`` fields are per-opportunity probabilities in
    ``[0, 1]``: per meter sample for the counter channels, per RAPL
    limit write for the latch channels, per due tick for the timer
    channels.  ``start_s``/``stop_s`` bound the window of simulated
    time in which any channel may fire, making plans schedulable
    ("inject only mid-run").

    The dataclass is frozen, picklable and canonically hashable — it
    participates in :func:`repro.config.config_digest` exactly like a
    :class:`~repro.core.registry.PolicySpec`.
    """

    #: Probability a meter sample fails outright (``rdmsr`` raising,
    #: the PAPI read returning an error) — the controller tick sees no
    #: fresh measurement at all.
    msr_read_fail_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability a meter sample returns the *previous* interval's
    #: values unchanged (stale/stuck counters).
    counter_stuck_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability an energy-counter read lands exactly on a wrap the
    #: delta correction misses: the interval's package/DRAM energy
    #: reads as zero (finite but wrong).
    counter_rollover_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability the power meter drops the interval: power fields
    #: come back NaN and the runtime must recover.
    power_dropout_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability a RAPL limit write is silently lost (the cap never
    #: latches — the situation the paper's reset rule exists for).
    cap_latch_fail_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability a RAPL limit write latches late by
    #: ``latch_delay_extra_s`` on top of the configured delay.
    latch_delay_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Extra latch latency applied when ``latch_delay_rate`` fires, s.
    latch_delay_extra_s: float = field(
        default=0.050, metadata={"range": (0.0, 10.0)}
    )
    #: Probability a due controller tick is skipped entirely (node
    #: wide: no socket samples or acts; counters keep accumulating).
    tick_miss_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Probability the next tick is scheduled late (timer jitter).
    tick_jitter_rate: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    #: Upper bound of the uniform extra delay when jitter fires, s.
    tick_jitter_max_s: float = field(
        default=0.020, metadata={"range": (0.0, 10.0)}
    )
    #: Probability an ``nvidia-smi -pl``-style GPU power-limit write is
    #: silently lost (the board keeps its previous limit) — the GPU
    #: counterpart of ``cap_latch_fail_rate``.  Hetero runs only; the
    #: ``digest_omit_default`` metadata keeps every pre-existing plan's
    #: digest byte-identical while the channel is off.
    gpu_cap_latch_fail_rate: float = field(
        default=0.0,
        metadata={"range": (0.0, 1.0), "digest_omit_default": True},
    )
    #: Probability a GPU kernel launch stalls in the queue (driver
    #: hiccup, context switch) for ``gpu_stall_s`` before starting.
    gpu_queue_stall_rate: float = field(
        default=0.0,
        metadata={"range": (0.0, 1.0), "digest_omit_default": True},
    )
    #: Stall duration applied when ``gpu_queue_stall_rate`` fires, s.
    gpu_stall_s: float = field(
        default=0.25,
        metadata={"range": (0.0, 10.0), "digest_omit_default": True},
    )
    #: Probability (per step with a C-state model) the package residency
    #: counters truncate to 32 bits — the classic firmware-accounting
    #: rollover telemetry must survive.  Only sockets configured with a
    #: :class:`~repro.config.CStateConfig` consult the channel; the
    #: ``digest_omit_default`` metadata keeps pre-existing plan digests
    #: byte-identical while it is off.
    cstate_rollover_rate: float = field(
        default=0.0,
        metadata={"range": (0.0, 1.0), "digest_omit_default": True},
    )
    #: Probability an EPP (HWP request) write is dropped by the firmware
    #: mediator — the hint register keeps its previous value.  Only
    #: sockets configured with an :class:`~repro.config.EPBConfig`
    #: consult the channel.
    epp_write_latch_fail_rate: float = field(
        default=0.0,
        metadata={"range": (0.0, 1.0), "digest_omit_default": True},
    )
    #: Simulated time at which the channels arm, seconds.
    start_s: float = 0.0
    #: Simulated time at which the channels disarm, seconds.
    stop_s: float = math.inf
    #: Folded into the injector seed so two otherwise-identical plans
    #: can draw decorrelated fault streams.
    seed_salt: int = 0

    @validated_once
    def validate(self) -> None:
        """Range-check every bounded field, naming the offender."""
        validate_bounded_fields(self)
        if self.start_s < 0 or self.stop_s < self.start_s:
            raise FaultInjectionError(
                "FaultPlan requires 0 <= start_s <= stop_s "
                f"(got start_s={self.start_s!r}, stop_s={self.stop_s!r})"
            )

    @property
    def active(self) -> bool:
        """True if any channel can ever fire."""
        return any(getattr(self, name) > 0.0 for name in FAULT_CHANNELS.values())

    @classmethod
    def zero(cls) -> "FaultPlan":
        """The all-channels-off plan (equivalent to no plan at all)."""
        return cls()


#: CLI/channel-name → rate-field map: the spec grammar's vocabulary and
#: the definition of "a channel" for :attr:`FaultPlan.active`.
FAULT_CHANNELS: dict[str, str] = {
    "msr_fail": "msr_read_fail_rate",
    "stuck": "counter_stuck_rate",
    "rollover": "counter_rollover_rate",
    "power_dropout": "power_dropout_rate",
    "cap_latch_fail": "cap_latch_fail_rate",
    "latch_delay": "latch_delay_rate",
    "tick_miss": "tick_miss_rate",
    "tick_jitter": "tick_jitter_rate",
    "gpu_cap_latch_fail": "gpu_cap_latch_fail_rate",
    "gpu_stall": "gpu_queue_stall_rate",
    "cstate_rollover": "cstate_rollover_rate",
    "epp_latch_fail": "epp_write_latch_fail_rate",
}

#: Non-rate fields settable through the spec grammar.
_EXTRA_FIELDS = (
    "latch_delay_extra_s",
    "tick_jitter_max_s",
    "gpu_stall_s",
    "start_s",
    "stop_s",
    "seed_salt",
)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse ``"msr_fail=0.01,cap_latch_fail=0.05,start_s=2"``.

    Keys are the channel names of :data:`FAULT_CHANNELS` (or their full
    ``*_rate`` field names) plus the scheduling/magnitude fields; values
    are numbers.  Unknown keys and malformed pairs raise
    :class:`~repro.errors.FaultInjectionError`; out-of-range values
    raise :class:`~repro.errors.ConfigurationError` via
    :meth:`FaultPlan.validate`.
    """
    if not text or not text.strip():
        raise FaultInjectionError("empty fault-plan spec")
    known = dict(FAULT_CHANNELS)
    known.update({f: f for f in FAULT_CHANNELS.values()})
    known.update({f: f for f in _EXTRA_FIELDS})
    kwargs: dict[str, float | int] = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise FaultInjectionError(
                f"fault-plan entry {pair!r} is not key=value"
            )
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in known:
            raise FaultInjectionError(
                f"unknown fault channel {key!r}; known: "
                f"{', '.join(sorted(set(known)))}"
            )
        fld = known[key]
        try:
            value: float | int = int(raw) if fld == "seed_salt" else float(raw)
        except ValueError as exc:
            raise FaultInjectionError(
                f"fault-plan value {raw!r} for {key!r} is not a number"
            ) from exc
        if fld in kwargs:
            raise FaultInjectionError(f"duplicate fault channel {key!r}")
        kwargs[fld] = value
    plan = FaultPlan(**kwargs)
    plan.validate()
    return plan


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in traces and run results."""

    #: Simulated time the fault fired, seconds.
    time_s: float
    #: Affected socket, or ``-1`` for node-wide (tick) faults.
    socket_id: int
    #: Channel name (a key of :data:`FAULT_CHANNELS`).
    channel: str
    #: Free-form magnitude/context (e.g. the injected extra delay).
    detail: str = ""


class FaultInjector:
    """Per-run fault dice, wired into meters, RAPL and the tick loop.

    One injector serves every socket of a run.  It owns a dedicated RNG
    stream (derived from the run seed and the plan's ``seed_salt``) so
    the engine's noise streams are untouched, keeps the authoritative
    record of fired events (:attr:`events`), and forwards each event to
    the run's trace sink through ``emit`` so streamed JSONL traces show
    faults alongside the controller's actions.

    The engine advances :attr:`now_s` every step; channel draws outside
    the plan's ``[start_s, stop_s)`` window return "no fault" without
    consuming randomness.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        emit: Callable[[int, FaultEvent], None] | None = None,
    ):
        plan.validate()
        if not plan.active:
            raise FaultInjectionError(
                "refusing to build an injector for an all-zero FaultPlan "
                "(pass faults=None instead)"
            )
        self.plan = plan
        self.rng = np.random.default_rng([abs(int(seed)), plan.seed_salt, _STREAM])
        self.emit = emit
        self.events: list[FaultEvent] = []
        self.now_s = 0.0

    # -- bookkeeping -------------------------------------------------------------

    def advance(self, now_s: float) -> None:
        """The engine's clock; timestamps every subsequent event."""
        self.now_s = now_s

    @property
    def armed(self) -> bool:
        return self.plan.start_s <= self.now_s < self.plan.stop_s

    def _fire(self, socket_id: int, channel: str, detail: str = "") -> None:
        event = FaultEvent(
            time_s=self.now_s, socket_id=socket_id, channel=channel, detail=detail
        )
        self.events.append(event)
        if self.emit is not None:
            self.emit(socket_id, event)

    def note(self, socket_id: int, channel: str, detail: str = "") -> None:
        """Record an externally-observed consequence of injected faults
        (e.g. the runtime's safe reset) in the same event stream, so
        traces show cause and effect side by side.  Consumes no
        randomness."""
        self._fire(socket_id, channel, detail)

    def _draw(self, rate: float) -> bool:
        """One Bernoulli draw; zero-rate channels consume no randomness."""
        if rate <= 0.0 or not self.armed:
            return False
        return bool(self.rng.random() < rate)

    # -- meter channels (per sample, per socket) ---------------------------------

    def msr_read_fails(self, socket_id: int) -> bool:
        """Should this sample raise like a failed ``rdmsr``?"""
        if self._draw(self.plan.msr_read_fail_rate):
            self._fire(socket_id, "msr_fail")
            return True
        return False

    def counter_stuck(self, socket_id: int) -> bool:
        """Should this sample return the previous interval's values?"""
        if self._draw(self.plan.counter_stuck_rate):
            self._fire(socket_id, "stuck")
            return True
        return False

    def counter_rollover(self, socket_id: int) -> bool:
        """Should the energy counters read a missed wrap (zero delta)?"""
        if self._draw(self.plan.counter_rollover_rate):
            self._fire(socket_id, "rollover")
            return True
        return False

    def power_dropout(self, socket_id: int) -> bool:
        """Should the power meter drop this interval (NaN readings)?"""
        if self._draw(self.plan.power_dropout_rate):
            self._fire(socket_id, "power_dropout")
            return True
        return False

    # -- RAPL latch channels (per limit write) -----------------------------------

    def latch_port(self, socket_id: int) -> Callable[[], tuple[bool, float]]:
        """The hook a socket's RAPL model consults on every limit write.

        Returns ``(dropped, extra_delay_s)``: a dropped write is
        silently lost (the cap never latches); a positive extra delay
        stretches the actuation latency for this write only.
        """

        def consult() -> tuple[bool, float]:
            if self._draw(self.plan.cap_latch_fail_rate):
                self._fire(socket_id, "cap_latch_fail")
                return True, 0.0
            if self._draw(self.plan.latch_delay_rate):
                extra = self.plan.latch_delay_extra_s
                self._fire(socket_id, "latch_delay", detail=f"+{extra:g}s")
                return False, extra
            return False, 0.0

        return consult

    # -- GPU channels (hetero runs; device_id is the trace socket id) ------------

    def gpu_cap_latch_fails(self, device_id: int) -> bool:
        """Should this GPU power-limit write be silently lost?"""
        if self._draw(self.plan.gpu_cap_latch_fail_rate):
            self._fire(device_id, "gpu_cap_latch_fail")
            return True
        return False

    def gpu_queue_stall_s(self, device_id: int) -> float:
        """Queue stall before the next kernel launch (0.0 = no stall)."""
        if self._draw(self.plan.gpu_queue_stall_rate):
            stall = self.plan.gpu_stall_s
            self._fire(device_id, "gpu_stall", detail=f"+{stall:g}s")
            return stall
        return 0.0

    # -- platform-model channels (C-state / EPB sockets only) --------------------

    def cstate_rollover(self, socket_id: int) -> bool:
        """Should the residency counters truncate to 32 bits this step?"""
        if self._draw(self.plan.cstate_rollover_rate):
            self._fire(socket_id, "cstate_rollover")
            return True
        return False

    def epp_write_latch_fails(self, socket_id: int) -> bool:
        """Should this EPP (HWP request) write be silently dropped?"""
        if self._draw(self.plan.epp_write_latch_fail_rate):
            self._fire(socket_id, "epp_latch_fail")
            return True
        return False

    # -- tick channels (per due tick, node-wide) ---------------------------------

    def tick_missed(self) -> bool:
        """Should the due controller tick be skipped outright?"""
        if self._draw(self.plan.tick_miss_rate):
            self._fire(NODE_WIDE, "tick_miss")
            return True
        return False

    def tick_jitter_s(self) -> float:
        """Extra delay before the next tick (0.0 when jitter holds off)."""
        if self._draw(self.plan.tick_jitter_rate):
            extra = float(self.rng.random() * self.plan.tick_jitter_max_s)
            self._fire(NODE_WIDE, "tick_jitter", detail=f"+{extra:.6f}s")
            return extra
        return 0.0
