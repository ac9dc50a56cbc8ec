"""Machine topology: sockets, cores and NUMA nodes.

The paper's testbed (``yeti-2`` on Grid'5000) has four Intel Xeon Gold
6130 sockets with 16 cores each and one 64 GiB NUMA node per socket.
DUFP starts one controller instance per socket, so topology objects
carry stable ids the rest of the library keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..config import MachineConfig, SocketConfig, yeti_machine_config
from ..errors import ConfigurationError

__all__ = ["Core", "NUMANode", "Socket", "Machine", "build_machine"]


@dataclass(frozen=True)
class Core:
    """One physical core (hyperthreading disabled, as in the paper)."""

    #: Machine-global core id (OS CPU number).
    cpu_id: int
    #: Parent socket id.
    socket_id: int
    #: Index of the core within its socket.
    local_id: int


@dataclass(frozen=True)
class NUMANode:
    """One NUMA node; the testbed pairs one node with each socket."""

    node_id: int
    socket_id: int
    memory_bytes: int = 64 * 1024**3


@dataclass(frozen=True)
class Socket:
    """One processor package."""

    socket_id: int
    config: SocketConfig
    cores: tuple[Core, ...]
    numa: NUMANode

    @property
    def core_count(self) -> int:
        return len(self.cores)

    def core(self, local_id: int) -> Core:
        """Return the core with the given within-socket index."""
        if not 0 <= local_id < len(self.cores):
            raise ConfigurationError(
                f"socket {self.socket_id} has no core {local_id}"
            )
        return self.cores[local_id]


@dataclass(frozen=True)
class Machine:
    """A complete node: identical sockets plus a flat core list."""

    name: str
    sockets: tuple[Socket, ...]
    config: MachineConfig = field(repr=False, default_factory=yeti_machine_config)

    @property
    def socket_count(self) -> int:
        return len(self.sockets)

    @property
    def total_cores(self) -> int:
        return sum(s.core_count for s in self.sockets)

    def socket(self, socket_id: int) -> Socket:
        if not 0 <= socket_id < len(self.sockets):
            raise ConfigurationError(f"machine has no socket {socket_id}")
        return self.sockets[socket_id]

    def all_cores(self) -> tuple[Core, ...]:
        return tuple(c for s in self.sockets for c in s.cores)

    def core_by_cpu_id(self, cpu_id: int) -> Core:
        """Look up a core by its machine-global OS CPU number."""
        for s in self.sockets:
            for c in s.cores:
                if c.cpu_id == cpu_id:
                    return c
        raise ConfigurationError(f"machine has no cpu {cpu_id}")

    def describe(self) -> dict[str, object]:
        """Table-I style summary of the architecture characteristics."""
        sc = self.sockets[0].config
        return {
            "name": self.name,
            "sockets": self.socket_count,
            "cores": self.total_cores,
            "uncore_freq_ghz": (
                sc.uncore.min_freq_hz / 1e9,
                sc.uncore.max_freq_hz / 1e9,
            ),
            "long_term_w": sc.rapl.pl1_default_w,
            "short_term_w": sc.rapl.pl2_default_w,
        }


def build_machine(config: MachineConfig | None = None) -> Machine:
    """Instantiate the topology described by ``config`` (default: yeti-2).

    Cores are numbered round-robin across sockets — cpu 0 on socket 0,
    cpu 1 on socket 1, … — matching how the paper binds OpenMP threads
    ("bound to cores in a round-robin fashion").  A machine is frozen,
    so equal configs share one.
    """
    cfg = config or yeti_machine_config()
    cfg.validate()
    return _build_machine(cfg)


@lru_cache(maxsize=64)
def _build_machine(cfg: MachineConfig) -> Machine:
    n_sock = cfg.socket_count
    per_sock = cfg.socket.core.count
    sockets = []
    for sid in range(n_sock):
        cores = tuple(
            Core(cpu_id=local * n_sock + sid, socket_id=sid, local_id=local)
            for local in range(per_sock)
        )
        sockets.append(
            Socket(
                socket_id=sid,
                config=cfg.socket,
                cores=cores,
                numa=NUMANode(node_id=sid, socket_id=sid),
            )
        )
    return Machine(name=cfg.name, sockets=tuple(sockets), config=cfg)
