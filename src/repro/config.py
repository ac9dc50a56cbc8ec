"""Configuration dataclasses for the simulated machine and controllers.

All tunable model constants live here, grouped by subsystem, so the whole
simulation can be calibrated from one place.  The defaults describe one
socket of ``yeti-2`` from the paper's testbed (Intel Xeon Gold 6130,
Skylake-SP): 16 cores, uncore 1.2–2.4 GHz, RAPL PL1 = 125 W /
PL2 = 150 W, all-core turbo 2.8 GHz.

Calibration anchors (paper, Section IV/V):

* default package power of a bandwidth-saturating run sits "almost at the
  maximum processor budget" (≈ 120 W of the 125 W PL1);
* dropping the uncore from 2.4 GHz to 1.2 GHz on a compute-only workload
  (EP) recovers on the order of 15–20 W;
* power caps below ≈ 65 W begin to throttle memory bandwidth, which is
  why the paper floors the dynamic cap at 65 W.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .units import ghz, mhz

__all__ = [
    "CoreConfig",
    "CStateConfig",
    "EPBConfig",
    "ThermalConfig",
    "UncoreConfig",
    "RAPLConfig",
    "PowerModelConfig",
    "MemoryConfig",
    "SocketConfig",
    "MachineConfig",
    "ControllerConfig",
    "NoiseConfig",
    "EngineConfig",
    "yeti_socket_config",
    "yeti_machine_config",
    "canonical_value",
    "config_digest",
    "validate_bounded_fields",
]


#: Frozen config objects whose ``validate`` passed, by ``id`` (see
#: :func:`validated_once`).
_VALIDATED: "weakref.WeakValueDictionary[int, object]" = (
    weakref.WeakValueDictionary()
)


def validated_once(validate):
    """Run a frozen config's ``validate`` once per object.

    A frozen object cannot change, so its success holds for its
    lifetime, and the sockets of a machine validate the same config
    objects many times.  The entry leaves with the object, so a later
    object reusing its ``id`` is checked afresh; a failure is never
    kept, so an invalid config raises every time.
    """

    @functools.wraps(validate)
    def once(self) -> None:
        if _VALIDATED.get(id(self)) is not self:
            validate(self)
            _VALIDATED[id(self)] = self

    return once


def validate_bounded_fields(obj) -> None:
    """Range-check every dataclass field carrying ``range`` metadata.

    A field declared as ``field(default=0.0, metadata={"range": (lo,
    hi)})`` must satisfy ``lo <= value <= hi`` (``"hi_open": True``
    makes the upper bound exclusive).  Violations raise
    :class:`ConfigurationError` naming the offending field, so adding a
    bounded parameter to a config class can never silently escape
    validation — the historic failure mode of listing field names by
    hand in each ``validate``.
    """
    for f in dataclasses.fields(obj):
        bound = f.metadata.get("range")
        if bound is None:
            continue
        lo, hi = bound
        value = getattr(obj, f.name)
        hi_open = f.metadata.get("hi_open", False)
        ok = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and lo <= value
            and (value < hi if hi_open else value <= hi)
        )
        if not ok:
            span = f"[{lo}, {hi}{')' if hi_open else ']'}"
            raise ConfigurationError(
                f"{type(obj).__name__}.{f.name} must be in {span} "
                f"(got {value!r})"
            )


@dataclass(frozen=True)
class CoreConfig:
    """Core clock domain: P-states and the voltage/frequency curve."""

    count: int = 16
    min_freq_hz: float = ghz(1.0)
    base_freq_hz: float = ghz(2.1)
    #: Maximum sustained all-core turbo; the paper's Fig. 5 caption notes
    #: 2.8 GHz is the maximum achieved with all 16 cores active.
    max_freq_hz: float = ghz(2.8)
    step_hz: float = mhz(100)
    #: Voltage at ``min_freq_hz`` (volts).  Skylake-SP cores floor
    #: around 0.8 V — deep power caps therefore save less than a naive
    #: V ∝ f model predicts, which is what turns 20 %-tolerance runs
    #: into net energy losses in the paper.
    v_min: float = 0.80
    #: Voltage at ``max_freq_hz`` (volts); linear in between.
    v_max: float = 1.02
    #: AVX frequency licenses (opt-in): phases achieving at least this
    #: many FLOPs/cycle/core run under the derated turbo below.  Real
    #: Skylake-SP drops to its AVX-512 license frequency under wide
    #: vector code; the paper's runs do not isolate the effect, so the
    #: default (``inf``) disables it to keep the calibration intact.
    avx_license_fpc: float = float("inf")
    #: All-core turbo while an AVX license is active, Hz.
    avx_max_freq_hz: float = ghz(2.4)

    @validated_once
    def validate(self) -> None:
        if self.count <= 0:
            raise ConfigurationError("CoreConfig.count must be positive")
        if not (0 < self.min_freq_hz <= self.base_freq_hz <= self.max_freq_hz):
            raise ConfigurationError(
                "CoreConfig frequencies must satisfy 0 < min <= base <= max"
            )
        if self.step_hz <= 0:
            raise ConfigurationError("CoreConfig.step_hz must be positive")
        if not (0 < self.v_min <= self.v_max):
            raise ConfigurationError("CoreConfig voltages must satisfy 0 < v_min <= v_max")
        if self.avx_license_fpc <= 0:
            raise ConfigurationError("CoreConfig.avx_license_fpc must be positive")
        if not self.min_freq_hz <= self.avx_max_freq_hz <= self.max_freq_hz:
            raise ConfigurationError(
                "CoreConfig.avx_max_freq_hz must lie within [min_freq, max_freq]"
            )

    def voltage_at(self, freq_hz: float) -> float:
        """Linear V/f curve between ``(min_freq, v_min)`` and ``(max_freq, v_max)``."""
        if self.max_freq_hz == self.min_freq_hz:
            return self.v_max
        t = (freq_hz - self.min_freq_hz) / (self.max_freq_hz - self.min_freq_hz)
        t = min(max(t, 0.0), 1.0)
        return self.v_min + t * (self.v_max - self.v_min)


@dataclass(frozen=True)
class UncoreConfig:
    """Uncore clock domain (LLC, mesh, memory controllers)."""

    min_freq_hz: float = ghz(1.2)
    max_freq_hz: float = ghz(2.4)
    step_hz: float = mhz(100)
    #: Voltage at the uncore minimum / maximum frequency.
    v_min: float = 0.70
    v_max: float = 0.95
    #: Number of independently clocked uncore dies (TPMI-era UFS exposes
    #: one frequency domain per compute die).  The default single-die
    #: layout is the legacy Skylake-SP path and is preserved bit-for-bit;
    #: the field vanishes from cache digests while it holds the default.
    die_count: int = field(default=1, metadata={"digest_omit_default": True})
    #: How unevenly memory traffic lands across dies: die *i* of *N* sees
    #: its traffic scaled by ``1 + spread·(N-1-2i)/(N-1)`` (die 0 hottest,
    #: last die coldest; weights average to 1 so aggregate demand is
    #: unchanged).  Zero spreads traffic evenly.
    die_traffic_spread: float = field(
        default=0.5,
        metadata={"range": (0.0, 1.0), "digest_omit_default": True},
    )

    @validated_once
    def validate(self) -> None:
        if not (0 < self.min_freq_hz <= self.max_freq_hz):
            raise ConfigurationError("UncoreConfig frequencies must satisfy 0 < min <= max")
        if self.step_hz <= 0:
            raise ConfigurationError("UncoreConfig.step_hz must be positive")
        if self.die_count < 1:
            raise ConfigurationError("UncoreConfig.die_count must be >= 1")
        validate_bounded_fields(self)

    def voltage_at(self, freq_hz: float) -> float:
        if self.max_freq_hz == self.min_freq_hz:
            return self.v_max
        t = (freq_hz - self.min_freq_hz) / (self.max_freq_hz - self.min_freq_hz)
        t = min(max(t, 0.0), 1.0)
        return self.v_min + t * (self.v_max - self.v_min)


@dataclass(frozen=True)
class RAPLConfig:
    """RAPL package-domain limits and counter characteristics."""

    #: Default long-term (PL1) power limit, watts.
    pl1_default_w: float = 125.0
    #: Default short-term (PL2) power limit, watts.
    pl2_default_w: float = 150.0
    #: Default PL1 averaging window, seconds (Skylake-SP ships ~1 s).
    pl1_window_s: float = 1.0
    #: Default PL2 averaging window, seconds.
    pl2_window_s: float = 0.01
    #: RAPL energy-counter resolution, joules (2**-14 J on server parts).
    energy_unit_j: float = 2.0**-14
    #: RAPL power unit, watts (1/8 W).
    power_unit_w: float = 0.125
    #: Energy counter width in bits; the register wraps at 2**width units.
    counter_bits: int = 32
    #: Latency before a newly written limit takes effect, seconds.  The
    #: paper observes "some time is needed to apply a new power cap"; the
    #: simulator reproduces the one-interval lag this induces.
    actuation_delay_s: float = 0.004
    #: Hard lower bound accepted by the hardware for either limit, watts.
    min_limit_w: float = 40.0

    @validated_once
    def validate(self) -> None:
        if not (0 < self.pl1_default_w <= self.pl2_default_w):
            raise ConfigurationError("RAPLConfig requires 0 < PL1 <= PL2")
        if self.pl1_window_s <= 0 or self.pl2_window_s <= 0:
            raise ConfigurationError("RAPLConfig windows must be positive")
        if self.counter_bits not in (32, 64):
            raise ConfigurationError("RAPLConfig.counter_bits must be 32 or 64")
        if self.min_limit_w <= 0 or self.min_limit_w > self.pl1_default_w:
            raise ConfigurationError("RAPLConfig.min_limit_w out of range")


@dataclass(frozen=True)
class PowerModelConfig:
    """Package power model coefficients.

    ``P_pkg = static + Σ_cores k_core · V(f)² · f · (a0 + a1·activity)
             + k_uncore · Vu(fu)² · fu · (u0 + u1·traffic)``

    ``activity`` is the fraction of cycles the core retires work (1.0 for
    a compute-saturated phase); ``traffic`` is memory-bandwidth
    utilisation of the uncore.  ``a0``/``u0`` capture clock-tree and idle
    switching power that flows even when the unit is stalled.
    """

    #: Leakage + always-on logic, watts per socket.
    static_w: float = 16.0
    #: Core dynamic coefficient, watts per (GHz · V²) per core.
    k_core: float = 1.55
    #: Fraction of core dynamic power present even when fully stalled.
    #: High on Skylake under the performance governor: a stalled core
    #: still clocks, speculates and spins in the load/store queues.
    core_idle_fraction: float = 0.80
    #: Uncore dynamic coefficient, watts per (GHz · V²).
    k_uncore: float = 17.0
    #: Fraction of uncore dynamic power present with zero traffic.
    #: High: the mesh and LLC clock tree burn most of their power just
    #: by toggling, which is why idle-traffic workloads (EP) gain the
    #: most from uncore scaling.
    uncore_idle_fraction: float = 0.75

    @validated_once
    def validate(self) -> None:
        if self.static_w < 0 or self.k_core <= 0 or self.k_uncore <= 0:
            raise ConfigurationError("PowerModelConfig coefficients out of range")
        for name in ("core_idle_fraction", "uncore_idle_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"PowerModelConfig.{name} must be in [0,1]")


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM subsystem: bandwidth roofline and DRAM power."""

    #: Saturated socket bandwidth with uncore at max, bytes/s.
    peak_bw_bytes: float = 105e9
    #: Bandwidth delivered per Hz of uncore clock below saturation,
    #: bytes/s per Hz (the mesh/memory-controller limit).
    bw_per_uncore_hz: float = 52.0
    #: Bandwidth each core can request per Hz of core clock, bytes/s per
    #: Hz per core.  At the core-frequency floor (1.0 GHz) 16 cores can
    #: just barely keep the channels saturated; power caps deep enough
    #: to need even lower frequencies cannot be honoured, which is why
    #: caps below ~65 W stop being useful — the paper's floor.
    bw_per_core_hz: float = 6.6
    #: DRAM background (refresh + idle) power per socket, watts.
    dram_static_w: float = 14.0
    #: DRAM energy per byte transferred, joules/byte (~0.15 W per GB/s).
    dram_energy_per_byte: float = 0.15e-9

    @validated_once
    def validate(self) -> None:
        if self.peak_bw_bytes <= 0 or self.bw_per_uncore_hz <= 0:
            raise ConfigurationError("MemoryConfig bandwidth parameters must be positive")
        if self.bw_per_core_hz <= 0:
            raise ConfigurationError("MemoryConfig.bw_per_core_hz must be positive")
        if self.dram_static_w < 0 or self.dram_energy_per_byte < 0:
            raise ConfigurationError("MemoryConfig power parameters must be non-negative")


@dataclass(frozen=True)
class ThermalConfig:
    """Package thermal characteristics (see :mod:`repro.hardware.thermal`).

    With the defaults, sustained TDP (125 W) settles ≈ 84 °C, below the
    96 °C PROCHOT trip — the guarantee the paper's §II-B describes TDP
    encoding.  ``None`` in :class:`SocketConfig` disables the model.
    """

    #: Junction-to-ambient thermal resistance, °C per watt.
    r_thermal_c_per_w: float = 0.35
    #: Thermal time constant, seconds (package + heatsink mass).
    tau_s: float = 8.0
    #: Inlet/ambient temperature, °C.
    ambient_c: float = 40.0
    #: PROCHOT trip point (Tj,max), °C.
    t_prochot_c: float = 96.0
    #: Frequency clamp applied while PROCHOT is asserted, Hz.
    prochot_freq_hz: float = 1.2e9
    #: Hysteresis: PROCHOT deasserts this many °C below the trip.
    hysteresis_c: float = 3.0

    @validated_once
    def validate(self) -> None:
        if self.r_thermal_c_per_w <= 0 or self.tau_s <= 0:
            raise ConfigurationError("thermal resistance and tau must be positive")
        if not 0 < self.ambient_c < self.t_prochot_c:
            raise ConfigurationError("need 0 < ambient < prochot temperature")
        if self.prochot_freq_hz <= 0:
            raise ConfigurationError("prochot frequency must be positive")
        if self.hysteresis_c < 0:
            raise ConfigurationError("hysteresis must be non-negative")

    def steady_state_c(self, power_w: float) -> float:
        """Settled package temperature at sustained ``power_w``."""
        if power_w < 0:
            raise ConfigurationError("negative power")
        return self.ambient_c + power_w * self.r_thermal_c_per_w

    @property
    def max_dissipation_w(self) -> float:
        """The sustained power whose steady state sits at the PROCHOT trip.

        The cooling solution's true limit; it exceeds the 125 W TDP by
        the designed safety margin (TDP guarantees operation *below*
        the trip, per the paper's §II-B definition).
        """
        return (self.t_prochot_c - self.ambient_c) / self.r_thermal_c_per_w


@dataclass(frozen=True)
class CStateConfig:
    """Core C-state model (see :mod:`repro.hardware.cstates`).

    Phases declare an ``idleness`` fraction; cores spend that fraction of
    wall time parked, split between a shallow state (C1) and a deep state
    (C6).  Deep residency cuts the ``core_idle_fraction`` power term but
    costs exit latency on every wakeup.  ``None`` in :class:`SocketConfig`
    disables the model — the legacy always-C0 path, bit-for-bit.
    """

    #: C1 exit latency, seconds (~2 µs on Skylake-SP).
    c1_exit_latency_s: float = field(
        default=2e-6, metadata={"range": (0.0, 1e-3)}
    )
    #: C6 exit latency, seconds (~133 µs on Skylake-SP).
    c6_exit_latency_s: float = field(
        default=133e-6, metadata={"range": (0.0, 1e-2)}
    )
    #: Fraction of a C1-resident core's idle dynamic power that still
    #: flows (clock gated, caches live).
    c1_power_fraction: float = field(
        default=0.70, metadata={"range": (0.0, 1.0)}
    )
    #: Fraction for C6 (power gated; near zero).
    c6_power_fraction: float = field(
        default=0.05, metadata={"range": (0.0, 1.0)}
    )
    #: Maximum share of idle time promoted to C6 at full idleness.  The
    #: cpuidle menu governor demotes shallow sleeps; latency-sensitive
    #: phases pull the achieved share below this ceiling.
    c6_max_share: float = field(default=0.85, metadata={"range": (0.0, 1.0)})
    #: Wakeups per second of idle time — each one pays the exit latency.
    wakeup_rate_hz: float = field(
        default=250.0, metadata={"range": (0.0, 1e6)}
    )

    @validated_once
    def validate(self) -> None:
        validate_bounded_fields(self)
        if self.c1_exit_latency_s > self.c6_exit_latency_s:
            raise ConfigurationError(
                "CStateConfig exit latencies must satisfy C1 <= C6"
            )
        if self.c6_power_fraction > self.c1_power_fraction:
            raise ConfigurationError(
                "CStateConfig power fractions must satisfy C6 <= C1"
            )


@dataclass(frozen=True)
class EPBConfig:
    """Energy-performance bias / HWP preference model.

    Mirrors the two hint registers real platforms expose: the legacy
    ``IA32_ENERGY_PERF_BIAS`` (0–15, 0 = performance) and the HWP request
    ``energy_performance_preference`` byte (0–255, 0 = performance).
    Hints bias operating points only: the uncore window ceiling shrinks
    toward its floor and the ``powersave`` governor target drops as the
    preference moves toward energy.  ``None`` disables the model.
    """

    #: IA32_ENERGY_PERF_BIAS initial value (0 = performance, 15 = power).
    epb: int = field(default=6, metadata={"range": (0, 15)})
    #: HWP energy_performance_preference initial value (0 = performance,
    #: 255 = power; 128 = balanced).
    epp: int = field(default=128, metadata={"range": (0, 255)})
    #: How strongly a full-power preference (EPP 255) pulls the uncore
    #: window ceiling toward the floor: 1.0 collapses the window.
    uncore_bias_strength: float = field(
        default=0.5, metadata={"range": (0.0, 1.0)}
    )
    #: How strongly the preference biases governor frequency targets.
    dvfs_bias_strength: float = field(
        default=1.0, metadata={"range": (0.0, 1.0)}
    )

    @validated_once
    def validate(self) -> None:
        validate_bounded_fields(self)
        if not isinstance(self.epb, int) or not isinstance(self.epp, int):
            raise ConfigurationError("EPBConfig hints must be integers")


@dataclass(frozen=True)
class SocketConfig:
    """One processor socket: clocks, power model, memory, RAPL, thermals."""

    core: CoreConfig = field(default_factory=CoreConfig)
    uncore: UncoreConfig = field(default_factory=UncoreConfig)
    rapl: RAPLConfig = field(default_factory=RAPLConfig)
    power: PowerModelConfig = field(default_factory=PowerModelConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    thermal: ThermalConfig | None = None
    #: Optional C-state model; ``None`` keeps the legacy always-C0 path.
    #: Omitted from digests at the default so pre-existing cache entries
    #: stay addressable.
    cstates: CStateConfig | None = field(
        default=None, metadata={"digest_omit_default": True}
    )
    #: Optional EPB/EPP hint model; ``None`` keeps hints unmodelled.
    epb: EPBConfig | None = field(
        default=None, metadata={"digest_omit_default": True}
    )

    @validated_once
    def validate(self) -> None:
        self.core.validate()
        self.uncore.validate()
        self.rapl.validate()
        self.power.validate()
        self.memory.validate()
        if self.thermal is not None:
            self.thermal.validate()
        if self.cstates is not None:
            self.cstates.validate()
        if self.epb is not None:
            self.epb.validate()


@dataclass(frozen=True)
class MachineConfig:
    """A multi-socket machine built from identical sockets."""

    socket: SocketConfig = field(default_factory=SocketConfig)
    socket_count: int = 4
    name: str = "yeti-2"

    @validated_once
    def validate(self) -> None:
        if self.socket_count <= 0:
            raise ConfigurationError("MachineConfig.socket_count must be positive")
        self.socket.validate()

    @property
    def total_cores(self) -> int:
        return self.socket_count * self.socket.core.count


@dataclass(frozen=True)
class ControllerConfig:
    """Shared DUF/DUFP controller parameters (paper Sections III–IV)."""

    #: Tolerated slowdown as a fraction (0.05 == 5 %).
    tolerated_slowdown: float = 0.05
    #: Controller tick, seconds (paper: 200 ms).
    interval_s: float = 0.200
    #: Relative measurement-error band within which FLOPS/s are treated
    #: as "equivalent to the slowdown" and the actuators hold steady.
    measurement_error: float = 0.01
    #: Power-cap actuator step, watts (paper: 5 W).
    cap_step_w: float = 5.0
    #: Dynamic power-cap floor, watts (paper: 65 W).
    cap_floor_w: float = 65.0
    #: Uncore actuator step, hertz (paper: 100 MHz).
    uncore_step_hz: float = mhz(100)
    #: Operational-intensity boundary between memory- and CPU-intensive.
    oi_memory_boundary: float = 1.0
    #: OI below which a phase counts as *highly* memory-intensive and the
    #: cap may be lowered regardless of FLOPS/s (paper: 0.02).
    oi_highly_memory: float = 0.02
    #: OI above which a phase counts as *highly* CPU-intensive and any
    #: violation resets the cap (paper: 100).
    oi_highly_cpu: float = 100.0
    #: FLOPS/s growth factor within a phase that is treated as a phase
    #: change (paper: FLOPS/s double).
    phase_flops_jump: float = 2.0

    @validated_once
    def validate(self) -> None:
        if not 0.0 <= self.tolerated_slowdown < 1.0:
            raise ConfigurationError("tolerated_slowdown must be in [0, 1)")
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if not 0.0 <= self.measurement_error < 0.5:
            raise ConfigurationError("measurement_error must be in [0, 0.5)")
        if self.cap_step_w <= 0 or self.cap_floor_w <= 0:
            raise ConfigurationError("cap step/floor must be positive")
        if self.uncore_step_hz <= 0:
            raise ConfigurationError("uncore_step_hz must be positive")
        if not (0 < self.oi_highly_memory < self.oi_memory_boundary < self.oi_highly_cpu):
            raise ConfigurationError(
                "OI thresholds must satisfy 0 < highly_memory < boundary < highly_cpu"
            )
        if self.phase_flops_jump <= 1.0:
            raise ConfigurationError("phase_flops_jump must exceed 1.0")


@dataclass(frozen=True)
class NoiseConfig:
    """Run-to-run and measurement noise (drives the paper's error bars)."""

    #: Std-dev of the multiplicative phase-duration jitter per run.
    duration_jitter: float = field(
        default=0.004, metadata={"range": (0.0, 0.2), "hi_open": True}
    )
    #: Std-dev of multiplicative noise on each counter read.
    counter_noise: float = field(
        default=0.002, metadata={"range": (0.0, 0.2), "hi_open": True}
    )
    #: Std-dev of multiplicative noise on each energy/power read.
    power_noise: float = field(
        default=0.003, metadata={"range": (0.0, 0.2), "hi_open": True}
    )
    #: Master seed; each run derives a child seed from it.
    seed: int = 20220509

    @validated_once
    def validate(self) -> None:
        validate_bounded_fields(self)


@dataclass(frozen=True)
class EngineConfig:
    """Simulation-engine resolution."""

    #: Macro time step, seconds.  Must divide the controller interval.
    dt_s: float = 0.010
    #: Safety limit on simulated time per run, seconds.
    max_sim_time_s: float = 3600.0

    @validated_once
    def validate(self) -> None:
        # ``not x > 0`` rejects NaN too: a NaN time limit would disable
        # the stuck-run check, and a NaN step never reaches the next
        # controller tick.
        if not (self.dt_s > 0 and math.isfinite(self.dt_s)):
            raise ConfigurationError(
                "EngineConfig.dt_s must be positive and finite"
            )
        if not self.max_sim_time_s > 0:
            raise ConfigurationError("EngineConfig.max_sim_time_s must be positive")


@functools.lru_cache(maxsize=None)
def yeti_socket_config() -> SocketConfig:
    """One socket of yeti-2 (Intel Xeon Gold 6130) as described in Table I.

    One shared instance: the config is frozen, so every caller may hold
    it, and the memos keyed on config objects see one object.
    """
    return SocketConfig()


def yeti_machine_config(socket_count: int = 4) -> MachineConfig:
    """The yeti-2 node: four Xeon Gold 6130 sockets, 64 cores total.

    One shared, validated instance per ``socket_count``.
    """
    return _yeti_machine_config(socket_count)


@functools.lru_cache(maxsize=None)
def _yeti_machine_config(socket_count: int) -> MachineConfig:
    cfg = MachineConfig(socket=yeti_socket_config(), socket_count=socket_count)
    cfg.validate()
    return cfg


def with_slowdown(cfg: ControllerConfig, slowdown_pct: float) -> ControllerConfig:
    """Copy ``cfg`` with the tolerated slowdown set from a percentage."""
    return replace(cfg, tolerated_slowdown=slowdown_pct / 100.0)


def canonical_value(value):
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Dataclasses become ``{"__class__": name, fields...}`` so two config
    types with coincidentally equal fields hash differently; non-finite
    floats (``CoreConfig.avx_license_fpc`` defaults to ``inf``) become
    tagged strings, since JSON has no representation for them.  The
    result is stable across processes and interpreter runs — unlike
    ``hash()``, which Python salts per process.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            # Fields opting into ``digest_omit_default`` vanish from
            # the canonical form while they hold their default, so a
            # feature added behind such a field (e.g. RunSpec.faults)
            # leaves every pre-existing digest untouched until used.
            if f.metadata.get("digest_omit_default") and v == f.default:
                continue
            out[f.name] = canonical_value(v)
        return out
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return f"__float__:{value!r}"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot canonicalise {type(value).__name__!r} for hashing"
    )


def config_digest(*values) -> str:
    """Stable SHA-256 hex digest of any nest of config dataclasses.

    The content-address under the experiment result cache: equal configs
    produce equal digests, any field change produces a new one.
    """
    payload = json.dumps(
        [canonical_value(v) for v in values],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
