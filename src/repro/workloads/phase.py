"""Execution phases: the unit of workload the simulator advances.

A :class:`Phase` carries absolute work volumes (FLOPs and DRAM bytes)
plus the microarchitectural character that determines how those volumes
turn into time on the simulated socket.  Phases are usually built from
a *nominal duration* — how long the phase takes in the machine's
default configuration — via :func:`phase_from_duration`, which inverts
the roofline model, so workload definitions read like the paper's
descriptions ("the first phase lasts ≈ 5 % of the run").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SocketConfig, yeti_socket_config
from ..errors import WorkloadError
from ..hardware.memory import MemorySystem
from ..hardware.perf import PhaseExecutionModel
from ..hardware.processor import PhaseWork

__all__ = ["Phase", "PhaseTable", "NominalRates", "phase_from_duration"]


@dataclass(frozen=True)
class Phase:
    """One homogeneous stretch of execution on a socket."""

    name: str
    #: Total double-precision FLOPs of the phase (per socket).
    flops: float
    #: Total DRAM bytes moved by the phase (per socket).
    bytes: float
    #: Achievable FLOPs per cycle per core if memory were infinite.
    fpc: float
    #: Memory-latency sensitivity (pointer chasing): inflates memory
    #: time when the uncore slows.
    latency_sensitivity: float = 0.0
    #: LLC-feed sensitivity: inflates compute time when the uncore slows.
    uncore_sensitivity: float = 0.0
    #: Extra DRAM traffic drawn when the uncore runs below saturation.
    overfetch: float = 0.0
    #: Core power multiplier (> 1 for high-current vector bursts).
    power_boost: float = 1.0
    #: Fraction of wall time the cores spend with no work queued (I/O,
    #: barrier or load-imbalance slack).  Only consulted by the C-state
    #: model; with C-states disabled idle cores still burn C0 power, as
    #: on the paper's performance-governor testbed.
    idleness: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes < 0:
            raise WorkloadError(f"phase {self.name!r}: negative work volume")
        if self.flops == 0 and self.bytes == 0:
            raise WorkloadError(f"phase {self.name!r}: no work at all")
        if self.fpc <= 0:
            raise WorkloadError(f"phase {self.name!r}: non-positive fpc")
        for attr in ("latency_sensitivity", "uncore_sensitivity", "overfetch"):
            if getattr(self, attr) < 0:
                raise WorkloadError(f"phase {self.name!r}: negative {attr}")
        if self.power_boost <= 0:
            raise WorkloadError(f"phase {self.name!r}: non-positive power_boost")
        if not 0.0 <= self.idleness < 1.0:
            raise WorkloadError(f"phase {self.name!r}: idleness must be in [0, 1)")

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte; ``inf`` for a phase with no memory traffic."""
        if self.bytes == 0:
            return float("inf")
        return self.flops / self.bytes

    def to_work(self) -> PhaseWork:
        """The processor-facing view of this phase."""
        return PhaseWork(
            flops=self.flops,
            bytes=self.bytes,
            fpc=self.fpc,
            latency_sensitivity=self.latency_sensitivity,
            uncore_sensitivity=self.uncore_sensitivity,
            overfetch=self.overfetch,
            power_boost=self.power_boost,
            idleness=self.idleness,
        )

    def scaled(self, factor: float) -> "Phase":
        """A copy with both work volumes multiplied by ``factor``."""
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        return Phase(
            name=self.name,
            flops=self.flops * factor,
            bytes=self.bytes * factor,
            fpc=self.fpc,
            latency_sensitivity=self.latency_sensitivity,
            uncore_sensitivity=self.uncore_sensitivity,
            overfetch=self.overfetch,
            power_boost=self.power_boost,
            idleness=self.idleness,
        )


#: Rows of a :class:`PhaseTable`, in :class:`Phase` field order.
FLOPS, BYTES, FPC, LATENCY, UNCORE, OVERFETCH, BOOST, IDLENESS = range(8)
TABLE_ROWS = 8
#: The work-volume rows, the only ones jitter changes.
VOLUMES = slice(FLOPS, BYTES + 1)


class PhaseTable:
    """A phase sequence as columns: the names plus one row per constant.

    ``values`` holds one ``float64`` row per :class:`Phase` constant
    (rows ``FLOPS`` … ``IDLENESS``, in field order), one column per
    phase.  Jitter draws new ``VOLUMES`` rows and shares the rest.
    """

    __slots__ = ("names", "values")

    def __init__(self, names: tuple[str, ...], values: np.ndarray):
        self.names = names
        self.values = values

    @staticmethod
    def of(phases) -> "PhaseTable":
        """The table of a sequence of :class:`Phase` objects."""
        phases = list(phases)
        values = np.array(
            [
                (
                    p.flops,
                    p.bytes,
                    p.fpc,
                    p.latency_sensitivity,
                    p.uncore_sensitivity,
                    p.overfetch,
                    p.power_boost,
                    p.idleness,
                )
                for p in phases
            ],
            dtype=np.float64,
        ).reshape(-1, TABLE_ROWS)
        return PhaseTable(tuple(p.name for p in phases), values.T.copy())

    def __len__(self) -> int:
        return len(self.names)

    def phases(self) -> tuple[Phase, ...]:
        """The :class:`Phase` objects, with the table's exact values."""
        return tuple(
            Phase(name, *column)
            for name, column in zip(self.names, self.values.T.tolist())
        )

    def with_volumes(self, volumes: np.ndarray) -> "PhaseTable":
        """A copy whose ``VOLUMES`` rows are ``volumes``."""
        values = self.values.copy()
        values[VOLUMES] = volumes
        return PhaseTable(self.names, values)

    def check(self, volumes: np.ndarray | None = None) -> None:
        """:class:`Phase`'s validity checks over every column at once.

        ``volumes`` checks the table :meth:`with_volumes` would build,
        without building it.  The first invalid phase's constructor
        then raises its :class:`WorkloadError`.
        """
        _, _, fpc, ls, us, ov, boost, idle = self.values
        flops, bytes_ = self.values[VOLUMES] if volumes is None else volumes
        bad = (
            (flops < 0)
            | (bytes_ < 0)
            | ((flops == 0) & (bytes_ == 0))
            | (fpc <= 0)
            | (ls < 0)
            | (us < 0)
            | (ov < 0)
            | (boost <= 0)
            | ~((0.0 <= idle) & (idle < 1.0))
        )
        if bad.any():
            i = int(bad.argmax())
            Phase(
                self.names[i],
                float(flops[i]),
                float(bytes_[i]),
                *self.values[FPC:, i].tolist(),
            )


@dataclass
class NominalRates:
    """Roofline evaluator at the machine's default clocks."""

    socket: SocketConfig

    def __post_init__(self) -> None:
        self.socket.validate()
        self._memory = MemorySystem(
            self.socket.memory, self.socket.core, self.socket.uncore
        )
        self._model = PhaseExecutionModel(self.socket.core, self._memory)

    def duration(self, phase: Phase) -> float:
        """Nominal wall time of ``phase`` at default (max) clocks."""
        return self._model.phase_time(
            phase.flops,
            phase.bytes,
            phase.fpc,
            self.socket.core.max_freq_hz,
            self.socket.uncore.max_freq_hz,
            phase.latency_sensitivity,
            phase.uncore_sensitivity,
        )

    def volumes_for(
        self,
        duration_s: float,
        oi: float,
        fpc: float,
        latency_sensitivity: float = 0.0,
        uncore_sensitivity: float = 0.0,
    ) -> tuple[float, float]:
        """Invert the roofline: volumes so the phase lasts ``duration_s``.

        Phase time is linear in the volume pair ``(oi·B, B)``, so one
        evaluation at B = 1 byte fixes the scale.
        """
        if duration_s <= 0:
            raise WorkloadError("duration must be positive")
        if oi < 0:
            raise WorkloadError("operational intensity must be non-negative")
        unit_bytes = 1.0
        t_unit = self._model.phase_time(
            oi * unit_bytes,
            unit_bytes,
            fpc,
            self.socket.core.max_freq_hz,
            self.socket.uncore.max_freq_hz,
            latency_sensitivity,
            uncore_sensitivity,
        )
        bytes_ = duration_s / t_unit
        return oi * bytes_, bytes_


def phase_from_duration(
    name: str,
    duration_s: float,
    oi: float,
    fpc: float,
    *,
    latency_sensitivity: float = 0.0,
    uncore_sensitivity: float = 0.0,
    overfetch: float = 0.0,
    power_boost: float = 1.0,
    socket: SocketConfig | None = None,
) -> Phase:
    """Build a phase that lasts ``duration_s`` in the default configuration.

    ``oi = 0`` yields a pure memory phase (no FLOPs); ``oi = inf`` is not
    supported — pass a large OI and a tiny byte count instead via the
    :class:`Phase` constructor directly.
    """
    rates = NominalRates(socket or yeti_socket_config())
    flops, bytes_ = rates.volumes_for(
        duration_s, oi, fpc, latency_sensitivity, uncore_sensitivity
    )
    return Phase(
        name=name,
        flops=flops,
        bytes=bytes_,
        fpc=fpc,
        latency_sensitivity=latency_sensitivity,
        uncore_sensitivity=uncore_sensitivity,
        overfetch=overfetch,
        power_boost=power_boost,
    )
