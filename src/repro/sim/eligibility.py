"""Batch eligibility: one ordered table of fallback rules.

Every decision about how far a run goes into the lockstep batch engine
(:mod:`repro.sim.batch`) reads :data:`RULES`, once per engine at
set-up.  The first row whose test fires names why the run falls back,
and its level says how far: ``"scalar"`` runs leave the batch for the
scalar engine; ``"scatter/gather"`` runs stay in it but tick their
controllers through the per-run sync instead of the lane-parallel
forms.  Rows marked ``fleet`` test a cluster (its
:class:`~repro.cluster.engine.ClusterEngine` or cluster ``RunSpec``),
deciding whether its nodes may run as pooled batch lanes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..core.registry import vector_tick_form
from ..hardware.dvfs import PerformanceGovernor, PowersaveGovernor
from ..hardware.uncore import DefaultUncoreGovernor, TpmiUncore

SCALAR = "scalar"
SCATTER_GATHER = "scatter/gather"


class Rule(NamedTuple):
    """One row of the eligibility table."""

    #: ``test(subject)``: falsy when the subject passes, else the value
    #: ``reason`` is formatted with.
    test: Callable[[object], object]
    #: Why a subject failing the test falls back (a format string).
    reason: str
    #: :data:`SCALAR` or :data:`SCATTER_GATHER`.
    level: str
    #: The test reads a cluster, not one run's engine.
    fleet: bool = False


def _each_processor(check: Callable) -> Callable:
    """A test over an engine's processors: the first truthy ``check``."""
    return lambda e: next(filter(None, map(check, e.machine.processors)), None)


def _cpufreq_governor(proc):
    kind = type(proc.dvfs.governor)
    return kind not in (PerformanceGovernor, PowersaveGovernor) and kind.__name__


def _uncore_governor(proc):
    kind = type(proc.uncore.governor)
    return kind is not DefaultUncoreGovernor and kind.__name__


def _active_faults(subject) -> bool:
    return subject.faults is not None and subject.faults.active


def _no_tick_form(engine):
    ctrls = engine.controllers
    return next((type(c).__name__ for c in ctrls if vector_tick_form(c) is None), None)


def _cap_floor_below_rapl(engine):
    min_limit = min(p.rapl.cfg.min_limit_w for p in engine.machine.processors)
    floor = engine.controller_cfg.cap_floor_w
    return floor < min_limit and (floor, min_limit)


#: The eligibility table, checked in order.  A fleet write goes through
#: ``RAPLPackage.set_limits``, which draws the cap-latch fault channel.
#: The batch kernels hard-code the stock governors and the single-domain
#: platform models: a custom governor could carry state the arrays do
#: not model, and the opt-in platform models (multi-die uncore,
#: C-states, EPB/EPP) exist only in the scalar object graph.  Injected
#: meter/tick/latch faults flow through the scalar runtime's
#: degraded-telemetry machinery.  Lane forms match a controller's
#: *exact* type (subclasses carry state the forms do not model).  A cap
#: floor below the RAPL minimum makes the scalar actuator raise
#: ``RAPLError``, which the vector path must not paper over.
RULES: tuple[Rule, ...] = (
    Rule(
        _active_faults,
        "active fault plan: fleet writes draw the cap-latch faults",
        SCALAR,
        fleet=True,
    ),
    Rule(_each_processor(_cpufreq_governor), "non-default cpufreq governor {}", SCALAR),
    Rule(_each_processor(_uncore_governor), "non-default uncore governor {}", SCALAR),
    Rule(
        _each_processor(
            lambda p: isinstance(p.uncore, TpmiUncore) and p.config.uncore.die_count
        ),
        "multi-die uncore ({} dies) models per-die clocks the lockstep arrays do not",
        SCALAR,
    ),
    Rule(
        _each_processor(lambda p: p.cstates is not None),
        "C-state residency model needs the scalar power path",
        SCALAR,
    ),
    Rule(
        _each_processor(lambda p: p.epb_model is not None),
        "EPB/EPP hint model needs the scalar operating-point path",
        SCALAR,
    ),
    Rule(
        _active_faults,
        "active fault plan needs the scalar telemetry stack",
        SCATTER_GATHER,
    ),
    Rule(_no_tick_form, "controller {} has no vector tick form", SCATTER_GATHER),
    Rule(
        _cap_floor_below_rapl,
        "cap_floor_w {0[0]} W below the RAPL minimum limit {0[1]} W "
        "(scalar path raises)",
        SCATTER_GATHER,
    ),
)


def fallback_reason(
    subject, levels=(SCALAR, SCATTER_GATHER), *, fleet: bool = False
) -> str | None:
    """The reason of the first row of ``levels`` that ``subject`` fails.

    ``None`` when it passes them all.  ``fleet`` selects the rows that
    test a cluster instead of those that test one run's engine.
    """
    for test, reason, level, on_fleet in RULES:
        if on_fleet is fleet and level in levels:
            hit = test(subject)
            if hit:
                return reason.format(hit)
    return None


def batch_fallback_reason(engine) -> str | None:
    """Why ``engine`` cannot join a batch: its first failing scalar row."""
    return fallback_reason(engine, (SCALAR,))


def controller_lane_fallback_reason(engine) -> str | None:
    """Why ``engine``'s ticks cannot run lane-parallel (``None``: they can).

    The first failing row of either level.  A run in a batch passed
    every scalar row, so there this only decides whether its controller
    ticks run as masked vector ops or through the scatter/gather sync.
    """
    return fallback_reason(engine)
