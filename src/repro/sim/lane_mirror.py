"""Which processor attribute each batch lane array mirrors.

``LanePhysics`` reads every :data:`FIELDS` row when it is built, and
the batch engine's ``_scatter`` writes the ``S`` rows back and
``_gather`` reads the ``G`` rows again (docs/BATCHING.md, "Lanes and
their objects").
"""

from __future__ import annotations

import math
from operator import attrgetter

from ..hardware.rapl import PowerLimit


class Field:
    """One lane array, the processor attribute it mirrors, its directions."""

    def __init__(self, lane: str, attr: str, dirs: str = ""):
        self.lane, self.attr = lane, attr
        self.scatter, self.gather = "S" in dirs, "G" in dirs
        self.read = attrgetter(attr)
        owner, _, self._name = attr.rpartition(".")
        self._owner = attrgetter(owner) if owner else (lambda proc: proc)

    def write(self, proc, value) -> None:
        setattr(self._owner(proc), self._name, value)


#: ``Field(lane array, processor attribute, directions)``.
FIELDS = (
    # What a controller actuates: clocks, windows, latched limits.
    Field("ufreq", "uncore._freq_hz", "SG"),
    Field("ctl", "dvfs.perf_ctl_ceiling_hz", "G"),
    Field("win_lo", "uncore.window_lo_hz", "G"),
    Field("win_hi", "uncore.window_hi_hz", "G"),
    Field("pl1_w", "rapl.pl1.limit_w", "SG"),
    Field("pl1_win", "rapl.pl1.window_s", "SG"),
    Field("pl1_en", "rapl.pl1.enabled", "SG"),
    Field("pl2_w", "rapl.pl2.limit_w", "SG"),
    Field("pl2_win", "rapl.pl2.window_s", "SG"),
    Field("pl2_en", "rapl.pl2.enabled", "SG"),
    # What the lanes advance and a tick, an MSR or the result reads.
    Field("clamp", "dvfs.rapl_clamp_hz", "S"),
    Field("avg1", "rapl._avg_pl1_w", "S"),
    Field("avg2", "rapl._avg_pl2_w", "S"),
    Field("flops_ret", "flops_retired", "S"),
    Field("bytes_trans", "bytes_transferred", "S"),
    Field("e_pkg", "rapl.package._energy_j", "S"),
    Field("e_dram", "rapl.dram._energy_j", "S"),
    Field("aperf", "dvfs._aperf_cycles", "S"),
    Field("mperf", "dvfs._mperf_cycles", "S"),
    Field("rapl_now", "rapl._now_s", "S"),
    Field("proc_now", "now_s", "S"),
    # The hardware governor's own state, which the lanes advance in its
    # place, and the last step's activity and traffic, which the
    # operating-point cache holds after every step.
    Field("demand", "uncore.governor._current_demand", "S"),
    Field("p_act", "_prev_activity", "S"),
    Field("p_traf", "_prev_traffic", "S"),
    # The governors' constants.
    Field("req", "dvfs.requested_hz"),
    Field("g_sat", "uncore.governor.saturation_util"),
    Field("g_floor", "uncore.governor.busy_floor"),
    Field("g_thresh", "uncore.governor.busy_threshold"),
    Field("g_resp", "uncore.governor.response"),
    Field("sharpness", "perf.overlap_sharpness"),
)

#: The thermal pair, mirrored when the socket config models one.
THERMAL_FIELDS = (
    Field("temp", "thermal.temperature_c", "S"),
    Field("prochot", "thermal.prochot", "S"),
)


def staged_write(proc) -> tuple | None:
    """The staged RAPL write as ``(due, pl1 W, pl1 window, pl2 W, pl2
    window)``, or ``None``."""
    if proc.rapl._pending is None:
        return None
    due, pl1, pl2 = proc.rapl._pending
    return due, pl1.limit_w, pl1.window_s, pl2.limit_w, pl2.window_s


def stage_write(proc, due, pl1_w, pl1_win, pl2_w, pl2_win) -> None:
    """Stage a :func:`staged_write` tuple; a due time of +inf stages none."""
    proc.rapl._pending = (
        (due, PowerLimit(pl1_w, pl1_win), PowerLimit(pl2_w, pl2_win))
        if math.isfinite(due)
        else None
    )
