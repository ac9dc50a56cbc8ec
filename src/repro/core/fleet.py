"""Fleet budget partitioning: the node-scope name of :class:`SplitPolicy`.

Cluster nodes split one global budget with the same strategies as the
devices of a hetero node (:mod:`repro.core.split`), selected through
the registry's ``fleet-*`` entries.  Only the alias below remains.
"""

from __future__ import annotations

from .split import SplitPolicy

__all__ = ["FleetPolicy"]

# Kept because the benchmark's layer tracer (perf/spans.py) imports this
# name, and perf/ only changes together with the benchmark itself.
FleetPolicy = SplitPolicy
