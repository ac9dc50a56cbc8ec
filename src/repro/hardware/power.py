"""Package power model for one socket.

``P_pkg = P_static + P_cores(f, activity) + P_uncore(fu, traffic)`` with

* ``P_cores  = N · k_core · V(f)² · f_GHz · (a0 + (1-a0)·activity)``
* ``P_uncore = k_uncore · Vu(fu)² · fu_GHz · (u0 + (1-u0)·traffic)``

``activity`` is the retiring fraction of core cycles (compute-saturated
phases ≈ 1, stall-heavy phases lower but far from zero — a stalled core
still clocks); ``traffic`` is memory-bandwidth utilisation.  The model
is the standard CMOS dynamic-power form the RAPL firmware itself uses
for budgeting, and it is analytically invertible on the P-state grid,
which is how the simulated RAPL limiter picks its frequency clamp.

The single-die forward model is memoised per model instance on its
exact inputs: clocks sit on 100 MHz grids and activity/traffic repeat
with the phase, so a run revisits few distinct inputs.  The clamp
scans a per-model table of each P-state's activity-independent core
power factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..config import CoreConfig, PowerModelConfig, UncoreConfig
from ..units import nan_free, zero_signs

__all__ = ["PowerBreakdown", "PackagePowerModel"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component package power, watts."""

    static_w: float
    core_w: float
    uncore_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.core_w + self.uncore_w


@dataclass
class PackagePowerModel:
    """Analytical package power for one socket."""

    core_cfg: CoreConfig
    uncore_cfg: UncoreConfig
    cfg: PowerModelConfig
    #: ``package_power`` / ``uncore_power`` results by exact arguments.
    #: They live and die with this model.
    _package: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _uncore: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``(f, N·k_core·V(f)²·f_GHz)`` over the P-state grid, top down.
    _pstates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.core_cfg.validate()
        self.uncore_cfg.validate()
        self.cfg.validate()
        self._pstates = _pstate_table(self.core_cfg, self.cfg)

    # -- forward model ---------------------------------------------------------

    def core_power(
        self, freq_hz: float, activity: float, idle_scale: float = 1.0
    ) -> float:
        """Dynamic power of all cores at ``freq_hz`` with given activity.

        ``idle_scale`` multiplies the activity-independent ``a0`` term;
        the C-state model passes < 1 when idle cores park in C1/C6.
        The default 1.0 is the legacy all-C0 path, bit-for-bit
        (``a0 * 1.0 == a0`` exactly in IEEE 754).
        """
        scale = self._core_scale(activity, idle_scale)
        return _core_factor(self.core_cfg, self.cfg, freq_hz) * scale

    def _core_scale(self, activity: float, idle_scale: float = 1.0) -> float:
        self._check_unit("activity", activity)
        if not 0.0 <= idle_scale <= 1.0:
            raise ValueError(f"idle_scale must be in [0, 1], got {idle_scale!r}")
        a0 = self.cfg.core_idle_fraction
        return a0 * idle_scale + (1.0 - a0) * activity

    def uncore_power(self, uncore_hz: float, traffic: float) -> float:
        """Dynamic power of the uncore at ``uncore_hz`` with given traffic."""
        key = (uncore_hz, traffic)
        if not (uncore_hz and traffic):
            key += zero_signs(uncore_hz, traffic)
        watts = self._uncore.get(key)
        if watts is None:
            watts = self._uncore_w(uncore_hz, traffic)
            if nan_free(key):
                self._uncore[key] = watts
        return watts

    def _uncore_w(self, uncore_hz: float, traffic: float) -> float:
        self._check_unit("traffic", traffic)
        v = self.uncore_cfg.voltage_at(uncore_hz)
        u0 = self.cfg.uncore_idle_fraction
        scale = u0 + (1.0 - u0) * traffic
        return self.cfg.k_uncore * v * v * (uncore_hz / 1e9) * scale

    def uncore_power_dies(
        self, dies: "tuple[tuple[float, float], ...]"
    ) -> float:
        """Uncore power summed over per-die ``(freq_hz, traffic)`` loads.

        Each die owns ``1/N`` of the socket's uncore silicon, so at
        equal per-die frequency and traffic the sum matches the
        single-domain model.  Multi-die configs (``die_count > 1``) are
        the only callers; the legacy path never reaches this method.
        """
        if not dies:
            raise ValueError("uncore_power_dies: no die loads")
        return sum(
            self._uncore_w(freq_hz, traffic) for freq_hz, traffic in dies
        ) / len(dies)

    def package_power(
        self,
        freq_hz: float,
        uncore_hz: float,
        activity: float,
        traffic: float,
        core_boost: float = 1.0,
        core_idle_scale: float = 1.0,
        uncore_dies: "tuple[tuple[float, float], ...] | None" = None,
    ) -> PowerBreakdown:
        """Full package power breakdown.

        ``core_boost`` scales core dynamic power for high-current code
        (wide-vector bursts) without touching the counters.
        ``core_idle_scale`` is the C-state idle-power delta (1.0 = all
        C0); ``uncore_dies`` replaces the single-domain uncore term
        with per-die loads on multi-die parts.

        The single-die path is memoised on its exact arguments; a key
        holding a zero also records every zero's sign.
        """
        if core_boost <= 0:
            raise ValueError("core_boost must be positive")
        if uncore_dies is not None:
            return self._breakdown(
                freq_hz,
                activity,
                core_boost,
                core_idle_scale,
                self.uncore_power_dies(uncore_dies),
            )
        key = (freq_hz, uncore_hz, activity, traffic, core_boost, core_idle_scale)
        if not (freq_hz and uncore_hz and activity and traffic and core_idle_scale):
            key += zero_signs(freq_hz, uncore_hz, activity, traffic, core_idle_scale)
        pkg = self._package.get(key)
        if pkg is None:
            pkg = self._breakdown(
                freq_hz,
                activity,
                core_boost,
                core_idle_scale,
                self.uncore_power(uncore_hz, traffic),
            )
            if nan_free(key):
                self._package[key] = pkg
        return pkg

    def _breakdown(
        self,
        freq_hz: float,
        activity: float,
        core_boost: float,
        core_idle_scale: float,
        uncore_w: float,
    ) -> PowerBreakdown:
        return PowerBreakdown(
            static_w=self.cfg.static_w,
            core_w=self.core_power(freq_hz, activity, core_idle_scale)
            * core_boost,
            uncore_w=uncore_w,
        )

    # -- inverse model (RAPL clamp selection) -----------------------------------

    def max_core_freq_under(
        self,
        budget_w: float,
        uncore_hz: float,
        activity: float,
        traffic: float,
        core_boost: float = 1.0,
        uncore_dies: "tuple[tuple[float, float], ...] | None" = None,
    ) -> float:
        """Highest P-state whose package power fits ``budget_w``.

        Returns the minimum P-state when even that exceeds the budget —
        RAPL cannot gate clocks entirely, it can only slow them, which
        is why very low caps overshoot (and why the paper's DUFP resets
        the cap when consumption exceeds it).
        """
        if core_boost <= 0:
            raise ValueError("core_boost must be positive")
        if uncore_dies is not None:
            uncore_w = self.uncore_power_dies(uncore_dies)
        else:
            uncore_w = self.uncore_power(uncore_hz, traffic)
        non_core = self.cfg.static_w + uncore_w
        budget_cores = budget_w - non_core
        # ``factor * scale`` is exactly ``core_power(f, activity)``: the
        # same products in the same order.
        scale = self._core_scale(activity)
        for f, factor in self._pstates:
            if factor * scale * core_boost <= budget_cores:
                return f
        return self.core_cfg.min_freq_hz

    @staticmethod
    def _check_unit(name: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _core_factor(
    core_cfg: CoreConfig, cfg: PowerModelConfig, freq_hz: float
) -> float:
    """``N · k_core · V(f)² · f_GHz``: all cores' power at unit scale."""
    v = core_cfg.voltage_at(freq_hz)
    return core_cfg.count * cfg.k_core * v * v * (freq_hz / 1e9)


@lru_cache(maxsize=64)
def _pstate_table(core_cfg: CoreConfig, cfg: PowerModelConfig) -> tuple:
    """``(f, _core_factor(f))`` over the P-state grid, top down.

    A pure function of two frozen configs, so every model built from
    equal configs (every socket of a batch) shares one table.
    """
    lo, step = core_cfg.min_freq_hz, core_cfg.step_hz
    n_steps = int(round((core_cfg.max_freq_hz - lo) / step))
    grid = [lo + i * step for i in range(n_steps, -1, -1)]
    return tuple((f, _core_factor(core_cfg, cfg, f)) for f in grid)
