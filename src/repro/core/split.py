"""Budget-split strategies: one shared power budget over N consumers.

The paper's §VI places budget distribution above DUFP, and its §VII
future work asks whether one shared budget can be shifted between a
CPU and a GPU according to their needs.  Both are the same question at
different scopes, so this module answers it once: given one demand
figure per entry, a :class:`SplitPolicy` splits its budget into
per-entry allocations with ``floor_i <= alloc_i <= ceiling_i`` and
``sum(alloc) <= budget``.  Entry *i* is a socket, a CPU/GPU device
(index 0 the CPU socket, 1..N the GPUs) or a cluster node; FastCap
(PAPERS.md) states fair capping the same way, as one optimisation over
any set of power consumers.

Three strategies span the design space:

* :class:`StaticSplit` — the naive operator configuration, decided
  once at t = 0 and never revisited: an equal ``budget / n`` share per
  entry or, given a lead fraction, that fraction to entry 0 and the
  remainder spread evenly over the rest.
* :class:`DemandSplit` — the paper's dynamic-capping idea extended
  across entries: tolerance-aware demand/offer water-filling (an entry
  meeting its tolerated slowdown offers watts back, a throttled entry
  bids above its current limit), re-split every re-allocation period
  by :func:`repro.core.budget.allocate_budget`.
* :class:`FairShareSplit` — the FastCap-style baseline: every entry
  receives the *same fraction of its dynamic range* (floor →
  ceiling), blind to demand.

Concrete strategies are wired to names only in
:mod:`repro.core.registry` (``hetero-*`` at device scope, ``fleet-*``
at node scope) and selected everywhere else via
:class:`~repro.core.registry.PolicySpec` — the registry lint enforces
it.  The strategies are free of device and node knowledge: the engines
measure demands and own floors/ceilings; strategies only split watts.
"""

from __future__ import annotations

import math

from ..errors import ControllerError
from .budget import allocate_budget, check_bands, fit_to_bands

__all__ = [
    "SplitPolicy",
    "StaticSplit",
    "DemandSplit",
    "FairShareSplit",
]


class SplitPolicy:
    """How one shared power budget splits across N entries.

    ``allocate`` is called by the engines at every re-allocation
    period with one *demand* per entry (watts the entry currently bids
    for); it returns one allocation per entry with ``floor_i <=
    alloc_i <= ceiling_i`` and ``sum(alloc) <= budget``.  Policies with
    :attr:`is_static` true are evaluated once at t = 0 and never again
    — their split depends only on the bands, not on measurements, which
    is what keeps a 1-node static cluster bit-identical to a plain run.
    """

    #: True when the split never changes after t = 0.
    is_static = False

    def __init__(self, budget_w: float):
        if not (math.isfinite(budget_w) and budget_w > 0):
            raise ControllerError(
                f"shared budget must be finite and positive, got {budget_w} W"
            )
        self.budget_w = budget_w

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        """Split the budget; see the class docstring for the contract."""
        raise NotImplementedError

    def initial(
        self, floors_w: list[float], ceilings_w: list[float]
    ) -> list[float]:
        """The t = 0 split, before any demand has been measured.

        Defaults to allocating against ceiling-level demands (every
        entry bids for its maximum).
        """
        return self.allocate(list(ceilings_w), floors_w, ceilings_w)


class StaticSplit(SplitPolicy):
    """Fixed shares: the operator's naive configuration.

    Without a ``lead_fraction`` every entry receives ``budget / n``;
    with one, entry 0 (the CPU socket of a hetero node) receives that
    fraction and the other entries share the remainder evenly.  Shares
    are clamped into each entry's band and any floor overshoot is paid
    back.  Decided once, never revisited — the baseline every dynamic
    policy is measured against.
    """

    is_static = True

    def __init__(self, budget_w: float, lead_fraction: float | None = None):
        super().__init__(budget_w)
        if lead_fraction is not None and not 0.0 < lead_fraction < 1.0:
            raise ControllerError("lead fraction must be in (0, 1)")
        self.lead_fraction = lead_fraction

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        check_bands(demands_w, self.budget_w, floors_w, ceilings_w)
        n = len(floors_w)
        if self.lead_fraction is None:
            shares = [self.budget_w / n] * n
        elif n < 2:
            raise ControllerError("a lead fraction needs at least two entries")
        else:
            shares = [self.budget_w * self.lead_fraction] + [
                self.budget_w * (1.0 - self.lead_fraction) / (n - 1)
            ] * (n - 1)
        return fit_to_bands(shares, self.budget_w, floors_w, ceilings_w)


class DemandSplit(SplitPolicy):
    """Tolerance-aware demand/offer water-filling across the entries.

    Entries meeting their tolerated slowdown offer watts back,
    throttled entries bid above their current limit, and
    :func:`~repro.core.budget.allocate_budget` serves demand above the
    floor proportionally until the budget is exhausted.
    """

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        return allocate_budget(demands_w, self.budget_w, floors_w, ceilings_w)

    def initial(
        self, floors_w: list[float], ceilings_w: list[float]
    ) -> list[float]:
        """Start from the equal static share (the operator default) and
        let the demand/offer loop move watts from there — matching the
        paper's framing of dynamic capping as a *correction* to a
        statically configured budget."""
        return StaticSplit(self.budget_w).initial(floors_w, ceilings_w)


class FairShareSplit(SplitPolicy):
    """FastCap-style fair partitioning: equal fractions of each range.

    Every entry receives ``floor + t · (ceiling - floor)`` with one
    common ``t`` chosen so the total meets the budget — demand-blind,
    so a latency-sensitive consumer next to a batch one is throttled by
    the *same* relative amount.
    """

    is_static = True

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        check_bands(demands_w, self.budget_w, floors_w, ceilings_w)
        spare = self.budget_w - sum(floors_w)
        span = sum(hi - lo for lo, hi in zip(floors_w, ceilings_w))
        t = min(max(spare / span, 0.0), 1.0) if span > 0 else 0.0
        return [
            lo + t * (hi - lo) for lo, hi in zip(floors_w, ceilings_w)
        ]
