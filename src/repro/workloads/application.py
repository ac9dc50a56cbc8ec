"""Applications: ordered phase sequences with iteration structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SocketConfig, yeti_socket_config
from ..errors import WorkloadError
from ..lazy import built_on_read
from .phase import BOOST, IDLENESS, VOLUMES, NominalRates, Phase, PhaseTable

__all__ = ["Application"]


@dataclass(frozen=True)
class Application:
    """A complete run of one benchmark on one socket.

    The same phase list executes on every socket of the machine (the
    paper spreads OpenMP threads round-robin over all four sockets, so
    sockets see statistically identical work).

    Besides ``phases`` an application carries its :attr:`table`.  Both
    are :class:`~repro.lazy.built_on_read`: an application made by
    :meth:`from_pattern` holds only its table and builds its ``phases``
    tuple on first read, so an engine that only reads the table (the
    batch engine) never builds a :class:`Phase` object.  A
    :meth:`jittered` copy holds only its draw and builds its table on
    first read too.
    """

    name: str
    phases: tuple[Phase, ...]
    #: Free-form description of the iteration structure, for reports.
    structure: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"application {self.name!r} has no phases")

    @built_on_read
    def table(self) -> PhaseTable:
        """The phases as one table; a jittered copy's is its parent's
        table with the drawn volume rows in place."""
        jitter = self.__dict__.get("_jitter")
        if jitter is not None:
            base, volumes = jitter
            return base.with_volumes(volumes)
        return PhaseTable.of(self.phases)

    def volume_rows(self) -> tuple[PhaseTable, np.ndarray]:
        """A base table and this application's ``VOLUMES`` rows over it.

        A jittered copy answers with its parent's table and its drawn
        rows, without building its own table, so every run of one
        application shares one base.
        """
        jitter = self.__dict__.get("_jitter")
        if jitter is not None:
            return jitter
        return self.table, self.table.values[VOLUMES]

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
        table = PhaseTable(names, values)
        if not len(table):
            raise WorkloadError(f"application {name!r} has no phases")
        app = object.__new__(Application)
        vars(app).update(name=name, structure=structure, table=table)
        return app

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
        generator state after, as one scalar draw per phase.  The
        scaled volumes are checked here, like :class:`Phase` checks
        its fields.  The copy keeps only them and this application's
        table (:meth:`volume_rows`), and builds its own ``table`` and
        ``phases`` on first read.
        """
        if sigma < 0:
            raise WorkloadError("jitter sigma must be non-negative")
        if sigma == 0.0:
            return self
        base = self.table
        z = rng.standard_normal(len(base))
        volumes = base.values[VOLUMES] * np.maximum(1.0 + sigma * z, 0.2)
        base.check(volumes)
        app = object.__new__(Application)
        vars(app).update(
            name=self.name, structure=self.structure, _jitter=(base, volumes)
        )
        return app


# After ``@dataclass``, or it would become the field's default.
Application.phases = built_on_read(lambda app: app.table.phases(), "phases")
