"""The frozen description of a cluster cell's node topology.

:class:`ClusterSpec` is to the cluster engine what
:class:`~repro.hardware.gpu.GPUNodeConfig` is to the hetero engine:
a frozen, picklable, canonically hashable value object that rides on
:class:`~repro.experiments.executor.RunSpec` (behind a
``digest_omit_default`` field, so every pre-existing CPU-only digest
stays byte-identical) and fully determines the node layout of one
cluster run — how many nodes, which application each runs, which
per-socket controller stack operates beneath the fleet cap, and how
often the fleet coordinator re-partitions the global budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ExperimentError

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """Node topology and fleet cadence of one cluster cell.

    The *global budget* is not here: it is a parameter of the selected
    fleet policy (``fleet-demand:budget_w=400``), exactly as hetero
    budgets live on the split policies — so sweeping budgets sweeps
    policy parameters, and the cluster spec can be shared across cells.
    """

    #: Number of simulated nodes under the fleet coordinator.
    node_count: int = 2
    #: Application names cycled over the nodes (node ``i`` runs
    #: ``node_apps[i % len]``).  Empty means every node runs the
    #: enclosing ``RunSpec.app_name`` — the homogeneous-fleet default
    #: that keeps sweep grids meaningful.
    node_apps: tuple[str, ...] = ()
    #: Registry selection (``"dufp"``, ``"budget:watts=130"``, …) for
    #: the per-socket controller stack each node runs beneath its cap.
    node_controller: str = "dufp"
    #: Sockets per node; each node is an independent machine.
    sockets_per_node: int = 1
    #: Fleet re-allocation period, seconds of simulated time.
    period_s: float = 1.0
    #: Per-node power floor offered to the fleet policy, watts.
    #: ``None`` derives ``sockets_per_node × ControllerConfig.
    #: cap_floor_w`` (the paper's 65 W per-socket RAPL floor).
    node_floor_w: float | None = None

    def validate(self) -> None:
        """Raise :class:`ExperimentError` on an unusable topology."""
        from ..core.registry import as_spec, policy_info

        if self.node_count < 1:
            raise ExperimentError("cluster needs at least one node")
        if self.sockets_per_node < 1:
            raise ExperimentError("nodes need at least one socket")
        # ``not x > 0`` also refuses NaN; the period sets the round
        # cadence in ticks and the floor bounds every bid.
        if not 0 < self.period_s < math.inf:
            raise ExperimentError("fleet period must be positive and finite")
        if self.node_floor_w is not None and not 0 < self.node_floor_w < math.inf:
            raise ExperimentError("node floor must be positive and finite")
        if not isinstance(self.node_apps, tuple):
            raise ExperimentError("node_apps must be a tuple of names")
        spec = as_spec(self.node_controller)
        info = policy_info(spec.name)
        if info.scope != "socket":
            raise ExperimentError(
                f"node controller {spec.name!r} is a budget-split policy; "
                "nodes run per-socket controller stacks beneath the fleet cap"
            )

    def app_for(self, node_index: int, default: str) -> str:
        """The application name node ``node_index`` runs."""
        if not self.node_apps:
            return default
        return self.node_apps[node_index % len(self.node_apps)]
