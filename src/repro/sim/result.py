"""Run results: traces, phase spans and derived per-run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..lazy import built_on_read, built_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultEvent

__all__ = ["TraceSample", "PhaseSpan", "SocketResult", "RunResult"]


@dataclass(frozen=True)
class TraceSample:
    """One engine-step sample of a socket's observable state."""

    time_s: float
    core_freq_hz: float
    uncore_freq_hz: float
    package_power_w: float
    dram_power_w: float
    cap_w: float
    flops_rate: float
    bytes_rate: float
    #: Package temperature, °C (``None`` when thermals are disabled).
    temperature_c: float | None = None


@dataclass(frozen=True)
class PhaseSpan:
    """When one phase executed on a socket."""

    name: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class SocketResult:
    """Everything measured on one socket during a run.

    ``phases`` is :class:`~repro.lazy.built_on_read`: the batch engine
    keeps a run's spans as columns and attaches a source when the run
    ends, so sweep cells that never read their spans never build a
    :class:`PhaseSpan`.  A pickle carries the plain list, keyed in
    field order, so a payload is the same bytes whether or not
    ``phases`` was read.
    """

    socket_id: int
    finish_time_s: float
    package_energy_j: float
    dram_energy_j: float
    trace: list[TraceSample] = field(default_factory=list)
    phases: list[PhaseSpan] = field(default_factory=list)

    __getstate__ = built_state

    @property
    def avg_package_power_w(self) -> float:
        if self.finish_time_s <= 0:
            raise SimulationError("socket never ran")
        return self.package_energy_j / self.finish_time_s

    @property
    def avg_dram_power_w(self) -> float:
        if self.finish_time_s <= 0:
            raise SimulationError("socket never ran")
        return self.dram_energy_j / self.finish_time_s

    def window_energy_j(self, start_s: float, end_s: float) -> tuple[float, float]:
        """(package, dram) energy inside a time window, from the trace."""
        if not self.trace:
            raise SimulationError("run recorded no trace")
        if not 0.0 <= start_s < end_s:
            raise SimulationError("invalid window")
        pkg = dram = 0.0
        prev_t = 0.0
        for s in self.trace:
            dt = s.time_s - prev_t
            lo = max(prev_t, start_s)
            hi = min(s.time_s, end_s)
            if hi > lo:
                frac = (hi - lo) / dt if dt > 0 else 0.0
                pkg += s.package_power_w * dt * frac
                dram += s.dram_power_w * dt * frac
            prev_t = s.time_s
        return pkg, dram

    def phase_span(self, name_prefix: str) -> PhaseSpan:
        """The first phase whose name starts with ``name_prefix``."""
        for span in self.phases:
            if span.name.startswith(name_prefix):
                return span
        raise SimulationError(f"no phase starting with {name_prefix!r}")

    def average_core_freq_hz(self) -> float:
        """Time-weighted mean core frequency over the run (Fig. 5)."""
        if not self.trace:
            raise SimulationError("run recorded no trace")
        total = 0.0
        prev_t = 0.0
        for s in self.trace:
            total += s.core_freq_hz * (s.time_s - prev_t)
            prev_t = s.time_s
        return total / prev_t if prev_t > 0 else 0.0


# After ``@dataclass``, or it would become the field's default.
SocketResult.phases = built_on_read(lambda result: [], "phases")


@dataclass
class RunResult:
    """A complete run of one application under one controller."""

    app_name: str
    controller_name: str
    sockets: list[SocketResult]
    #: Every injected fault that fired during the run, in order
    #: (empty for runs without a fault plan).
    fault_events: "list[FaultEvent]" = field(default_factory=list)

    @property
    def execution_time_s(self) -> float:
        """Wall time: the slowest socket defines completion."""
        return max(s.finish_time_s for s in self.sockets)

    @property
    def package_energy_j(self) -> float:
        """Total processor energy across sockets."""
        return sum(s.package_energy_j for s in self.sockets)

    @property
    def dram_energy_j(self) -> float:
        return sum(s.dram_energy_j for s in self.sockets)

    @property
    def total_energy_j(self) -> float:
        """Processor + DRAM energy, the paper's Fig. 3c metric."""
        return self.package_energy_j + self.dram_energy_j

    @property
    def avg_package_power_w(self) -> float:
        """Mean per-socket package power (the paper reports per socket)."""
        return self.package_energy_j / self.execution_time_s / len(self.sockets)

    @property
    def avg_dram_power_w(self) -> float:
        return self.dram_energy_j / self.execution_time_s / len(self.sockets)

    def socket(self, socket_id: int = 0) -> SocketResult:
        for s in self.sockets:
            if s.socket_id == socket_id:
                return s
        raise SimulationError(f"no socket {socket_id} in result")
