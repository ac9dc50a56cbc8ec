"""The composed socket model: clocks, power, RAPL, counters.

:class:`SimulatedProcessor` wires one socket's subsystems together and
advances them in lockstep.  Each :meth:`step` executes a slice of the
current phase:

1. the RAPL firmware converts its windowed power averages into an
   instantaneous budget and clamps the core frequency so predicted
   demand fits (using last step's activity — firmware always acts on
   stale telemetry);
2. the hardware uncore governor moves inside its programmed window
   (unless DUF pinned it);
3. the roofline model turns the resolved clocks into achieved FLOPS/s
   and bytes/s, and those into package and DRAM power;
4. energy counters, APERF/MPERF and the retired-FLOP/byte counters
   advance — everything the PAPI layer exposes upward.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import SocketConfig
from ..errors import SimulationError
from .cstates import CStateModel
from .dvfs import PStateDriver
from .epb import EPBModel
from .memory import MemorySystem
from .msr import MSRFile
from .perf import ExecutionRates, PhaseExecutionModel
from .power import PackagePowerModel, PowerBreakdown
from .rapl import RAPLPackage
from .thermal import ThermalModel
from .uncore import TpmiUncore, UncoreDriver, build_uncore

__all__ = ["PhaseWork", "ProcessorState", "SimulatedProcessor"]

#: What an idle (or finished) socket executes; frozen, so shared.
_IDLE_RATES = ExecutionRates(
    flops_rate=0.0,
    bytes_rate=0.0,
    core_activity=0.0,
    traffic_util=0.0,
    progress_rate=0.0,
    bound="idle",
)


@dataclass(frozen=True)
class PhaseWork:
    """Character of the phase currently executing on this socket.

    Volumes are the *whole phase's* FLOP/byte totals; the execution
    model only uses their ratio plus ``fpc`` to derive rates, and the
    engine tracks completion separately as a progress fraction.
    """

    flops: float
    bytes: float
    fpc: float
    latency_sensitivity: float = 0.0
    uncore_sensitivity: float = 0.0
    #: Extra DRAM traffic factor when the uncore runs below the
    #: bandwidth-saturation point (prefetcher mistraining); affects DRAM
    #: power but not the counters the controller reads.
    overfetch: float = 0.0
    #: Core power multiplier (> 1 for high-current bursts such as wide
    #: vector sections): raises demand without changing the FLOP rate,
    #: so under a cap RAPL throttles while the 200 ms counters barely
    #: move — the paper's LAMMPS aliasing.
    power_boost: float = 1.0
    #: Fraction of wall time the cores are idle (I/O or barrier slack);
    #: consulted only by the optional C-state model.
    idleness: float = 0.0


@dataclass(frozen=True)
class ProcessorState:
    """Snapshot of the socket after a step (one trace sample)."""

    time_s: float
    core_freq_hz: float
    uncore_freq_hz: float
    package: PowerBreakdown
    dram_power_w: float
    flops_rate: float
    bytes_rate: float
    bound: str
    #: Package temperature, °C (``None`` when thermals are disabled).
    temperature_c: float | None = None


@dataclass
class SimulatedProcessor:
    """One socket of the simulated machine."""

    config: SocketConfig
    socket_id: int = 0
    msrs: MSRFile = field(init=False)
    dvfs: PStateDriver = field(init=False)
    uncore: UncoreDriver = field(init=False)
    rapl: RAPLPackage = field(init=False)
    power_model: PackagePowerModel = field(init=False)
    memory: MemorySystem = field(init=False)
    perf: PhaseExecutionModel = field(init=False)
    thermal: ThermalModel | None = field(init=False, default=None)
    cstates: CStateModel | None = field(init=False, default=None)
    epb_model: EPBModel | None = field(init=False, default=None)

    #: Cumulative retired floating-point operations.
    flops_retired: float = 0.0
    #: Cumulative DRAM bytes transferred.
    bytes_transferred: float = 0.0
    #: Simulated time on this socket.
    now_s: float = 0.0

    _prev_activity: float = 0.0
    _prev_traffic: float = 0.0
    #: What the last step recorded for its snapshot: ``(now_s, core_hz,
    #: uncore_hz, package, dram_w, rates, temperature_c)``.
    _snap: tuple | None = None
    #: The :class:`ProcessorState` built from ``_snap`` on the first
    #: :attr:`state` read after a step; ``None`` until then.
    _last_state: ProcessorState | None = field(
        default=None, repr=False, compare=False
    )
    #: The last step's operating point with the inputs it came from:
    #: ``(work, core_hz, uncore_hz, rates, package, dram_w)``.  ``None``
    #: until a step may keep one (never under C-states or a multi-die
    #: uncore, whose step depends on more than these inputs).
    _point: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.config.validate()
        self.msrs = MSRFile()
        self.dvfs = PStateDriver(self.config.core)
        self.uncore = build_uncore(self.config.uncore)
        self.rapl = RAPLPackage(self.config.rapl)
        self.power_model = PackagePowerModel(
            self.config.core, self.config.uncore, self.config.power
        )
        self.memory = MemorySystem(
            self.config.memory, self.config.core, self.config.uncore
        )
        self.perf = PhaseExecutionModel(self.config.core, self.memory)
        self.dvfs.attach_msrs(self.msrs)
        self.uncore.attach_msrs(self.msrs)
        self.rapl.attach_msrs(self.msrs)
        if self.config.thermal is not None:
            self.thermal = ThermalModel(self.config.thermal)
            self.thermal.attach_msrs(self.msrs)
        if self.config.cstates is not None:
            self.cstates = CStateModel(self.config.cstates, self.config.core)
            self.cstates.attach_msrs(self.msrs)
        if self.config.epb is not None:
            self.epb_model = EPBModel(self.config.epb)
            self.epb_model.attach_msrs(self.msrs)
            # EPP pulls the effective uncore window ceiling toward the
            # floor; the hook stays live as hints change mid-run.
            self.uncore.epp_bias = self.epb_model.uncore_hi_scale
        # Per-config constants the step reads every tick.
        self._avx_fpc = self.config.core.avx_license_fpc
        self._avx_hz = self.config.core.avx_max_freq_hz
        self._multi_die = isinstance(self.uncore, TpmiUncore)
        self._sat_uncore_hz = self.memory.saturation_uncore_hz()

    # -- main advance ---------------------------------------------------------------

    def step(self, dt_s: float, work: PhaseWork | None) -> float:
        """Advance ``dt_s`` executing ``work`` (or idling).

        Returns the fraction of the phase completed during this step
        (0.0 when idle).  The step records what its snapshot needs;
        :attr:`state` builds the :class:`ProcessorState` on first read.
        """
        if not dt_s > 0:  # NaN too: it would poison time and energy
            raise SimulationError(f"step: dt {dt_s!r} is not positive")

        # 1. RAPL firmware: budget -> core frequency clamp.  The clamp
        # uses last step's telemetry but the current demand multiplier:
        # current spikes trip the voltage-regulator feedback within
        # microseconds, faster than one engine step.
        boost = work.power_boost if work is not None else 1.0
        budget = self.rapl.allowed_power()
        multi_die = self._multi_die
        uncore = self.uncore
        dvfs = self.dvfs
        clamp = self.power_model.max_core_freq_under(
            budget,
            uncore.frequency_hz,
            self._prev_activity,
            self._prev_traffic,
            core_boost=boost,
            uncore_dies=(
                uncore.die_loads(self._prev_traffic) if multi_die else None
            ),
        )
        dvfs.set_rapl_clamp(clamp)

        # 2. Hardware uncore governor moves inside its window.
        uncore.advance(self._prev_traffic, self._prev_activity)

        # The clamped P-state clock, resolved once: APERF counts it.
        pstate_hz = core_hz = dvfs.effective_freq()
        # AVX frequency license (opt-in): wide-vector phases run under
        # the derated all-core turbo regardless of the governor.
        if work is not None and work.fpc >= self._avx_fpc:
            core_hz = min(core_hz, self._avx_hz)
        # PROCHOT: the thermal safety net beneath RAPL.
        thermal = self.thermal
        if thermal is not None and thermal.prochot:
            core_hz = min(core_hz, dvfs.snap(thermal.freq_clamp_hz()))
        uncore_hz = uncore.frequency_hz

        # 3-4. The phase slice's rates and power: a function of the work
        # and the two clocks alone, so an unchanged operating point is
        # the last step's.
        point = self._point
        if (
            point is not None
            and point[0] is work
            and point[1] == core_hz
            and point[2] == uncore_hz
        ):
            rates, pkg, dram_w = point[3], point[4], point[5]
        else:
            rates, pkg, dram_w = self._operating_point(
                dt_s, work, boost, core_hz, uncore_hz
            )
        progress = 0.0 if rates is _IDLE_RATES else rates.progress_rate * dt_s
        self.rapl.step(dt_s, pkg.total_w, dram_w)
        if thermal is not None:
            thermal.step(dt_s, pkg.total_w)
        dvfs.advance(dt_s, pstate_hz)
        self.flops_retired += rates.flops_rate * dt_s
        self.bytes_transferred += rates.bytes_rate * dt_s
        self.now_s += dt_s
        self._prev_activity = rates.core_activity
        self._prev_traffic = rates.traffic_util
        self._snap = (
            self.now_s,
            core_hz,
            uncore_hz,
            pkg,
            dram_w,
            rates,
            thermal.temperature_c if thermal is not None else None,
        )
        self._last_state = None
        return min(progress, 1.0)

    def _operating_point(
        self,
        dt_s: float,
        work: PhaseWork | None,
        boost: float,
        core_hz: float,
        uncore_hz: float,
    ) -> tuple[ExecutionRates, PowerBreakdown, float]:
        """Resolve a step's ``(rates, package, dram_w)`` and keep the
        record the next step and preview may reuse."""
        # 3. Execute the phase slice.
        if work is not None and (work.flops > 0 or work.bytes > 0):
            rates = self.perf.instantaneous(
                work.flops,
                work.bytes,
                work.fpc,
                core_hz,
                uncore_hz,
                work.latency_sensitivity,
                work.uncore_sensitivity,
            )
        else:
            rates = _IDLE_RATES

        # 3b. C-states (opt-in): idle residency cuts the core idle-power
        # term and wakeup exit latencies shave the achieved rates.  Only
        # in-phase idleness counts: a socket with no work spins at the
        # barrier in C0 (the paper testbed's polling wait), so idle-free
        # work stays bit-for-bit the legacy path.
        core_idle_scale = 1.0
        cstates = self.cstates
        if cstates is not None and work is not None:
            cslice = cstates.resolve(work.idleness, work.latency_sensitivity)
            cstates.advance(dt_s, cslice)
            core_idle_scale = cslice.idle_scale
            if cslice.perf_scale < 1.0 and rates.progress_rate > 0.0:
                rates = replace(
                    rates,
                    flops_rate=rates.flops_rate * cslice.perf_scale,
                    bytes_rate=rates.bytes_rate * cslice.perf_scale,
                    progress_rate=rates.progress_rate * cslice.perf_scale,
                )

        # 4. Power.
        multi_die = self._multi_die
        pkg = self.power_model.package_power(
            core_hz,
            uncore_hz,
            rates.core_activity,
            rates.traffic_util,
            core_boost=boost,
            core_idle_scale=core_idle_scale,
            uncore_dies=(
                self.uncore.die_loads(rates.traffic_util) if multi_die else None
            ),
        )
        dram_traffic = rates.bytes_rate
        if work is not None and work.overfetch > 0.0:
            sat_hz = self._sat_uncore_hz
            if uncore_hz < sat_hz:
                dram_traffic *= 1.0 + work.overfetch * (1.0 - uncore_hz / sat_hz)
        dram_w = self.memory.dram_power(dram_traffic)
        # A zero clock is left out: ``==`` cannot tell its sign, which
        # the idle package power carries.
        if cstates is None and not multi_die and core_hz and uncore_hz:
            self._point = (work, core_hz, uncore_hz, rates, pkg, dram_w)
        return rates, pkg, dram_w

    def preview_progress_rate(self, work: PhaseWork) -> float:
        """Estimate the phase progress rate at the *current* clocks.

        Used by the engine to split a step at a phase boundary.  The
        estimate ignores the intra-step clamp/governor updates, so the
        actual :meth:`step` progress can differ slightly; callers must
        treat it as a hint, not a guarantee.
        """
        if work.flops <= 0 and work.bytes <= 0:
            return 0.0
        core_hz = self.dvfs.effective_freq()
        if work.fpc >= self._avx_fpc:
            core_hz = min(core_hz, self._avx_hz)
        uncore_hz = self.uncore.frequency_hz
        point = self._point
        if (
            point is not None
            and point[0] is work
            and point[1] == core_hz
            and point[2] == uncore_hz
        ):
            return point[3].progress_rate
        rates = self.perf.instantaneous(
            work.flops,
            work.bytes,
            work.fpc,
            core_hz,
            uncore_hz,
            work.latency_sensitivity,
            work.uncore_sensitivity,
        )
        return rates.progress_rate

    # -- views ------------------------------------------------------------------------

    @property
    def snapshot(self) -> tuple:
        """The most recent step's raw record, with no object built.

        ``(now_s, core_hz, uncore_hz, package, dram_w, rates,
        temperature_c)``: ``package`` is the step's
        :class:`PowerBreakdown`, ``rates`` its :class:`ExecutionRates`.
        :attr:`state` is built from it; a traced tick reads it directly.
        """
        snap = self._snap
        if snap is None:
            raise SimulationError("processor has not stepped yet")
        return snap

    @property
    def state(self) -> ProcessorState:
        """Snapshot taken at the end of the most recent step.

        Built on the first read after a step and cached until the next
        one, so an untraced tick builds none.
        """
        state = self._last_state
        if state is None:
            now_s, core_hz, uncore_hz, pkg, dram_w, rates, temp_c = self.snapshot
            state = self._last_state = ProcessorState(
                time_s=now_s,
                core_freq_hz=core_hz,
                uncore_freq_hz=uncore_hz,
                package=pkg,
                dram_power_w=dram_w,
                flops_rate=rates.flops_rate,
                bytes_rate=rates.bytes_rate,
                bound=rates.bound,
                temperature_c=temp_c,
            )
        return state

    @property
    def package_energy_j(self) -> float:
        return self.rapl.package.total_energy_j

    @property
    def dram_energy_j(self) -> float:
        return self.rapl.dram.total_energy_j

    def default_power_budget_w(self) -> float:
        """The socket's default long-term budget (Fig. 1's denominator)."""
        return self.config.rapl.pl1_default_w
