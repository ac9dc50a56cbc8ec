"""Applications: ordered phase sequences with iteration structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SocketConfig, yeti_socket_config
from ..errors import WorkloadError
from .phase import BOOST, IDLENESS, NominalRates, Phase, PhaseTable

__all__ = ["Application"]


@dataclass(frozen=True)
class Application:
    """A complete run of one benchmark on one socket.

    The same phase list executes on every socket of the machine (the
    paper spreads OpenMP threads round-robin over all four sockets, so
    sockets see statistically identical work).

    Besides ``phases`` an application carries its :attr:`table`, built
    once.  Applications made by :meth:`from_pattern` and
    :meth:`jittered` are built from a table and make their ``phases``
    tuple on first read, so an engine that only reads the table (the
    batch engine) never builds a :class:`Phase` object.
    """

    name: str
    phases: tuple[Phase, ...]
    #: Free-form description of the iteration structure, for reports.
    structure: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"application {self.name!r} has no phases")

    @staticmethod
    def _from_table(name: str, table: PhaseTable, structure: str) -> "Application":
        """An application whose ``phases`` are built from ``table`` on read."""
        if not len(table):
            raise WorkloadError(f"application {name!r} has no phases")
        app = object.__new__(Application)
        object.__setattr__(app, "name", name)
        object.__setattr__(app, "structure", structure)
        object.__setattr__(app, "_table", table)
        return app

    def __getattr__(self, attr: str):
        # Normal lookup failed: only the ``phases`` of a table-built
        # application are missing, and they are built once, here.
        table = self.__dict__.get("_table")
        if attr != "phases" or table is None:
            raise AttributeError(attr)
        phases = table.phases()
        object.__setattr__(self, "phases", phases)
        return phases

    @property
    def table(self) -> PhaseTable:
        """The phase table, built from ``phases`` once and cached."""
        table = self.__dict__.get("_table")
        if table is None:
            table = PhaseTable.of(self.phases)
            object.__setattr__(self, "_table", table)
        return table

    @staticmethod
    def from_pattern(
        name: str,
        *,
        setup: list[Phase] | None = None,
        loop: list[Phase] | None = None,
        iterations: int = 1,
        teardown: list[Phase] | None = None,
        structure: str = "",
    ) -> "Application":
        """Compose setup + ``iterations`` × loop + teardown.

        Loop phases run with ``power_boost`` 1.0 and ``idleness`` 0.0
        whatever their template declares: a known defect, kept until
        result digests can be versioned (see docs/WORKLOADS.md).
        """
        if iterations < 0:
            raise WorkloadError("iterations must be non-negative")
        head = PhaseTable.of(setup or [])
        body = PhaseTable.of(loop or [])
        tail = PhaseTable.of(teardown or [])
        body.values[BOOST] = 1.0
        body.values[IDLENESS] = 0.0
        names = (
            head.names
            + tuple(f"{n}[{i}]" for i in range(iterations) for n in body.names)
            + tail.names
        )
        values = np.concatenate(
            [head.values, np.tile(body.values, iterations), tail.values], axis=1
        )
        return Application._from_table(name, PhaseTable(names, values), structure)

    @property
    def total_flops(self) -> float:
        return sum(p.flops for p in self.phases)

    @property
    def total_bytes(self) -> float:
        return sum(p.bytes for p in self.phases)

    def nominal_duration(self, socket: SocketConfig | None = None) -> float:
        """Run time in the default configuration, seconds."""
        rates = NominalRates(socket or yeti_socket_config())
        return sum(rates.duration(p) for p in self.phases)

    def jittered(self, rng, sigma: float) -> "Application":
        """Per-run copy with phase volumes jittered multiplicatively.

        Models run-to-run variation (OS noise, allocation differences);
        ``rng`` is a seeded ``numpy.random.Generator``.  Phase ``i``'s
        volumes scale by ``max(1 + sigma * z[i], 0.2)``, with ``z`` one
        ``standard_normal(n)`` draw: the same values, and the same
        generator state after, as one scalar draw per phase.  The copy
        is a phase table, checked like :class:`Phase` checks its
        fields, and builds its ``phases`` on first read.
        """
        if sigma < 0:
            raise WorkloadError("jitter sigma must be non-negative")
        if sigma == 0.0:
            return self
        table = self.table
        z = rng.standard_normal(len(table))
        table = table.scaled(np.maximum(1.0 + sigma * z, 0.2))
        table.check()
        return Application._from_table(self.name, table, self.structure)
