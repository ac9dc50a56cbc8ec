"""One property suite for the banded allocator and every budget split.

The same strategies split a budget across sockets, across the devices
of a hetero node and across the nodes of a cluster, so their
invariants are checked once, parametrised over the three kinds of
bands those scopes produce:

* ``socket`` — uniform bands (the node coordinator's sockets);
* ``device`` — one CPU band plus a shared GPU band (a hetero node);
* ``node`` — a random band per entry (a heterogeneous fleet).

Properties: budget conservation (``sum(alloc) <= budget``), band
respect (``floor_i <= alloc_i <= ceiling_i``), permutation
equivariance (entry identity carries no weight), the fair bound (one
common range fraction), loud failure on infeasible or non-finite
input, and a differential check against the reference implementation
the merged allocator replaced — the former uniform water-fill, the
floor-overshoot payback and the six per-scope strategy classes, copied
below verbatim in behaviour — which must agree bit for bit.

Hypothesis sweeps carry the ``slow`` marker; deterministic cases keep
tier-1 coverage of every property.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import allocate_budget, fit_to_bands
from repro.core.registry import make_spec, parse_policy, policy_info, split_policy
from repro.core.split import DemandSplit, FairShareSplit, StaticSplit
from repro.errors import ControllerError

SCOPES = ("socket", "device", "node")
SPLIT_NAMES = (
    "hetero-static",
    "hetero-coord",
    "hetero-fair",
    "fleet-static",
    "fleet-demand",
    "fleet-fair",
)
#: Strategy factories over a budget, including the lead-fraction form.
STRATEGIES = {
    "static": StaticSplit,
    "static-lead": lambda budget_w: StaticSplit(budget_w, lead_fraction=0.4),
    "demand": DemandSplit,
    "fair": FairShareSplit,
}


# -- the reference implementation the merged allocator replaced ---------------


def ref_allocate_budget(demands_w, total_w, floor_w, ceiling_w):
    n = len(demands_w)
    if n == 0:
        raise ControllerError("no sockets to allocate to")
    if any(d < 0 for d in demands_w):
        raise ControllerError("negative demand")
    if floor_w * n > total_w + 1e-9:
        raise ControllerError("floors exceed the budget")
    alloc = [min(max(d, floor_w), ceiling_w) for d in demands_w]
    for _ in range(64):
        excess = sum(alloc) - total_w
        if excess <= 1e-9:
            break
        shrinkable = [max(a - floor_w, 0.0) for a in alloc]
        total_shrinkable = sum(shrinkable)
        if total_shrinkable <= 0.0:
            break
        scale = min(excess / total_shrinkable, 1.0)
        alloc = [a - s * scale for a, s in zip(alloc, shrinkable)]
    return alloc


def ref_check_devices(total_w, demands_w, floors_w, ceilings_w):
    if not floors_w or len(floors_w) != len(ceilings_w):
        raise ControllerError("need one floor and one ceiling per device")
    if len(demands_w) != len(floors_w):
        raise ControllerError("demand count mismatch")
    for lo, hi in zip(floors_w, ceilings_w):
        if not 0 < lo <= hi:
            raise ControllerError("device bounds invalid")
    if sum(floors_w) > total_w + 1e-9:
        raise ControllerError("floors exceed the budget")


def ref_fit_budget(alloc, total_w, floors_w):
    excess = sum(alloc) - total_w
    if excess <= 1e-9:
        return alloc
    slack = [a - lo for a, lo in zip(alloc, floors_w)]
    span = sum(slack)
    if span <= 0.0:
        raise ControllerError("floors exceed the budget")
    scale = max(span - excess, 0.0) / span
    return [lo + s * scale for lo, s in zip(floors_w, slack)]


def _ref_clamp(shares, floors_w, ceilings_w):
    return [min(max(a, lo), hi) for a, lo, hi in zip(shares, floors_w, ceilings_w)]


def ref_banded(demands_w, total_w, floors_w, ceilings_w):
    """The former per-device composition: water-fill, clamp, pay back."""
    alloc = ref_allocate_budget(
        demands_w, total_w, min(floors_w), max(ceilings_w)
    )
    alloc = _ref_clamp(alloc, floors_w, ceilings_w)
    return ref_fit_budget(alloc, total_w, floors_w)


class RefSplit:
    is_static = False

    def __init__(self, budget_w):
        if budget_w <= 0:
            raise ControllerError("shared budget must be positive")
        self.budget_w = budget_w

    def initial(self, floors_w, ceilings_w):
        return self.allocate(list(ceilings_w), floors_w, ceilings_w)


class RefStaticSplit(RefSplit):
    is_static = True

    def __init__(self, budget_w, cpu_fraction=0.5):
        super().__init__(budget_w)
        if not 0.0 < cpu_fraction < 1.0:
            raise ControllerError("cpu_fraction must be in (0, 1)")
        self.cpu_fraction = cpu_fraction

    def allocate(self, demands_w, floors_w, ceilings_w):
        ref_check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        n_gpus = len(floors_w) - 1
        if n_gpus < 1:
            raise ControllerError("hetero split needs at least one GPU")
        shares = [self.budget_w * self.cpu_fraction] + [
            self.budget_w * (1.0 - self.cpu_fraction) / n_gpus
        ] * n_gpus
        alloc = _ref_clamp(shares, floors_w, ceilings_w)
        return ref_fit_budget(alloc, self.budget_w, floors_w)


class RefCoordinatedSplit(RefSplit):
    def allocate(self, demands_w, floors_w, ceilings_w):
        ref_check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        return ref_banded(demands_w, self.budget_w, floors_w, ceilings_w)

    def initial(self, floors_w, ceilings_w):
        n = len(floors_w)
        alloc = _ref_clamp([self.budget_w / n] * n, floors_w, ceilings_w)
        return ref_fit_budget(alloc, self.budget_w, floors_w)


class RefFairShareSplit(RefSplit):
    is_static = True

    def allocate(self, demands_w, floors_w, ceilings_w):
        ref_check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        spare = self.budget_w - sum(floors_w)
        span = sum(hi - lo for lo, hi in zip(floors_w, ceilings_w))
        t = min(max(spare / span, 0.0), 1.0) if span > 0 else 0.0
        return [lo + t * (hi - lo) for lo, hi in zip(floors_w, ceilings_w)]


class RefStaticFleet(RefSplit):
    is_static = True

    def allocate(self, demands_w, floors_w, ceilings_w):
        ref_check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        share = self.budget_w / len(floors_w)
        alloc = _ref_clamp([share] * len(floors_w), floors_w, ceilings_w)
        return ref_fit_budget(alloc, self.budget_w, floors_w)


#: Registry name -> reference class (the demand and fair fleet classes
#: were line-for-line copies of the coordinated and fair splits).
REFERENCE = {
    "hetero-static": RefStaticSplit,
    "hetero-coord": RefCoordinatedSplit,
    "hetero-fair": RefFairShareSplit,
    "fleet-static": RefStaticFleet,
    "fleet-demand": RefCoordinatedSplit,
    "fleet-fair": RefFairShareSplit,
}


def outcome(fn, *args):
    """``fn(*args)`` as exact float bits, or the error type it raised."""
    try:
        return [x.hex() for x in fn(*args)]
    except ControllerError:
        return ControllerError


def registry_split(name, budget_w, cpu_fraction=0.5):
    params = {"budget_w": budget_w}
    if name == "hetero-static":
        params["cpu_fraction"] = cpu_fraction
    return split_policy(
        make_spec(name, **params), scope=policy_info(name).scope
    )


# -- band generators per scope ------------------------------------------------

widths = st.floats(min_value=10.0, max_value=120.0)
socket_floors = st.floats(min_value=40.0, max_value=80.0)


@st.composite
def socket_bands(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    lo, width = draw(socket_floors), draw(widths)
    return [lo] * n, [lo + width] * n


@st.composite
def device_bands(draw):
    gpus = draw(st.integers(min_value=1, max_value=4))
    cpu_lo, cpu_w = draw(socket_floors), draw(widths)
    gpu_lo = draw(st.floats(min_value=80.0, max_value=150.0))
    gpu_w = draw(st.floats(min_value=50.0, max_value=200.0))
    return (
        [cpu_lo] + [gpu_lo] * gpus,
        [cpu_lo + cpu_w] + [gpu_lo + gpu_w] * gpus,
    )


@st.composite
def node_bands(draw):
    rows = draw(st.lists(st.tuples(socket_floors, widths), min_size=1, max_size=8))
    return [lo for lo, _ in rows], [lo + w for lo, w in rows]


BANDS = {"socket": socket_bands(), "device": device_bands(), "node": node_bands()}


@st.composite
def cases(draw, scope):
    """(demands, budget, floors, ceilings) with feasible floors."""
    floors, ceilings = draw(BANDS[scope])
    fractions = draw(
        st.lists(
            st.floats(min_value=-0.5, max_value=1.5),
            min_size=len(floors),
            max_size=len(floors),
        )
    )
    demands = [
        max(lo + f * (hi - lo), 0.0)
        for lo, hi, f in zip(floors, ceilings, fractions)
    ]
    span = sum(hi - lo for lo, hi in zip(floors, ceilings))
    extra = draw(st.floats(min_value=0.0, max_value=1.2)) * span
    return demands, sum(floors) + extra, floors, ceilings


#: Fixed tier-1 cases, one per scope: bids below floors, above ceilings
#: and in between, under a budget that genuinely arbitrates.
SMOKE = {
    "socket": ([30.0, 140.0, 90.0], 260.0, [65.0] * 3, [125.0] * 3),
    "device": (
        [60.0, 260.0, 180.0],
        450.0,
        [65.0, 100.0, 100.0],
        [125.0, 250.0, 250.0],
    ),
    "node": (
        [70.0, 0.0, 200.0, 95.0],
        330.0,
        [65.0, 40.0, 80.0, 65.0],
        [125.0, 70.0, 190.0, 100.0],
    ),
}


# -- the properties ------------------------------------------------------------


def check_conserved_in_bands(strategy, case):
    demands, budget, floors, ceilings = case
    policy = STRATEGIES[strategy](budget)
    for alloc in (
        policy.initial(floors, ceilings),
        policy.allocate(demands, floors, ceilings),
    ):
        assert len(alloc) == len(floors)
        assert sum(alloc) <= budget + 1e-6
        for a, lo, hi in zip(alloc, floors, ceilings):
            assert math.isfinite(a)
            assert lo - 1e-9 <= a <= hi + 1e-9


def check_permutation_equivariant(strategy, case, shift):
    demands, budget, floors, ceilings = case
    policy = STRATEGIES[strategy](budget)
    k = shift % len(floors)

    def rot(xs):
        return xs[k:] + xs[:k]

    alloc = policy.allocate(demands, floors, ceilings)
    rotated = policy.allocate(rot(demands), rot(floors), rot(ceilings))
    assert rotated == pytest.approx(rot(alloc), rel=1e-9, abs=1e-6)


def check_fair_bound(case):
    demands, budget, floors, ceilings = case
    alloc = FairShareSplit(budget).allocate(demands, floors, ceilings)
    granted = [(a - lo) / (hi - lo) for a, lo, hi in zip(alloc, floors, ceilings)]
    assert max(granted) - min(granted) < 1e-9
    assert 0.0 <= granted[0] <= 1.0


def check_matches_reference(case, cpu_fraction=0.5):
    demands, budget, floors, ceilings = case
    for name in SPLIT_NAMES:
        new = registry_split(name, budget, cpu_fraction)
        if name == "hetero-static":
            ref = RefStaticSplit(budget, cpu_fraction=cpu_fraction)
        else:
            ref = REFERENCE[name](budget)
        assert new.is_static == ref.is_static
        assert outcome(new.allocate, demands, floors, ceilings) == outcome(
            ref.allocate, demands, floors, ceilings
        ), name
        assert outcome(new.initial, floors, ceilings) == outcome(
            ref.initial, floors, ceilings
        ), name


def check_allocator_matches_reference(case, raw):
    demands, budget, floors, ceilings = case
    new = outcome(allocate_budget, demands, budget, floors, ceilings)
    assert new == outcome(ref_banded, demands, budget, floors, ceilings)
    if len(set(floors)) == 1 and len(set(ceilings)) == 1:
        # The former uniform allocator alone, without the band clamp:
        # when the budget barely covers the floors its shrink step can
        # leave an entry an ulp below the floor, which the banded
        # contract lifts back.  Whenever it kept its own band, the bits
        # are the same.
        old = ref_allocate_budget(demands, budget, floors[0], ceilings[0])
        if all(floors[0] <= a <= ceilings[0] for a in old):
            assert new == [a.hex() for a in old]
    # Steps 2-3 of the allocator are the former clamp + payback.
    assert outcome(fit_to_bands, raw, budget, floors, ceilings) == outcome(
        ref_fit_budget, _ref_clamp(raw, floors, ceilings), budget, floors
    )


def _strategies_for(n):
    """The strategies defined on ``n`` entries (a lead needs two)."""
    return [s for s in STRATEGIES if s != "static-lead" or n > 1]


@pytest.mark.parametrize("scope", SCOPES)
def test_smoke_properties_deterministic(scope):
    """Tier-1 pin of every property on one fixed case per scope."""
    case = SMOKE[scope]
    for strategy in _strategies_for(len(case[2])):
        check_conserved_in_bands(strategy, case)
        if strategy != "static-lead":
            check_permutation_equivariant(strategy, case, shift=1)
    check_fair_bound(case)
    check_matches_reference(case)
    check_matches_reference(case, cpu_fraction=0.3)
    check_allocator_matches_reference(case, raw=case[0])


def test_floor_is_exact_where_the_uniform_allocator_dipped_below():
    """The one place the banded allocator departs from the former
    uniform one: a budget equal to the floor sum, where the old shrink
    step left an entry an ulp under its floor (found by hypothesis)."""
    lo, hi = 40.68502201361037, 104.88535648127893
    demands, budget = [lo, lo, hi], 122.05506604083112
    old = ref_allocate_budget(demands, budget, lo, hi)
    assert old[2] < lo
    assert allocate_budget(demands, budget, [lo] * 3, [hi] * 3) == [lo] * 3


@pytest.mark.slow
class TestAllocatorProperties:
    @pytest.mark.parametrize("scope", SCOPES)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_budget_conserved_and_bands_respected(self, scope, data):
        case = data.draw(cases(scope))
        for strategy in _strategies_for(len(case[2])):
            check_conserved_in_bands(strategy, case)

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("strategy", ["static", "demand", "fair"])
    @given(data=st.data(), shift=st.integers(min_value=1, max_value=7))
    @settings(max_examples=100)
    def test_allocation_is_permutation_equivariant(
        self, scope, strategy, data, shift
    ):
        check_permutation_equivariant(strategy, data.draw(cases(scope)), shift)

    @pytest.mark.parametrize("scope", SCOPES)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_fair_grants_equal_range_fractions(self, scope, data):
        check_fair_bound(data.draw(cases(scope)))

    @pytest.mark.parametrize("scope", SCOPES)
    @given(data=st.data(), short=st.floats(min_value=1e-6, max_value=30.0))
    @settings(max_examples=50)
    def test_floors_above_budget_raise(self, scope, data, short):
        demands, _, floors, ceilings = data.draw(cases(scope))
        budget = sum(floors) - short
        for strategy in _strategies_for(len(floors)):
            policy = STRATEGIES[strategy](budget)
            with pytest.raises(ControllerError):
                policy.allocate(demands, floors, ceilings)
            with pytest.raises(ControllerError):
                policy.initial(floors, ceilings)

    @pytest.mark.parametrize("scope", SCOPES)
    @given(
        data=st.data(),
        cpu_fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_strategies_match_the_reference_bit_for_bit(
        self, scope, data, cpu_fraction
    ):
        check_matches_reference(data.draw(cases(scope)), cpu_fraction)

    @pytest.mark.parametrize("scope", SCOPES)
    @given(data=st.data())
    @settings(max_examples=200)
    def test_allocator_matches_the_reference_bit_for_bit(self, scope, data):
        case = data.draw(cases(scope))
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=400.0),
                min_size=len(case[2]),
                max_size=len(case[2]),
            )
        )
        check_allocator_matches_reference(case, raw)


@pytest.mark.slow
@given(
    d=st.lists(st.floats(min_value=70.0, max_value=120.0), min_size=2, max_size=6),
    bump=st.floats(min_value=5.0, max_value=50.0),
    idx=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100)
def test_raising_one_demand_never_lowers_own_share(d, bump, idx):
    idx = idx % len(d)
    n = len(d)
    total = 65.0 * n + 60.0
    bands = ([65.0] * n, [125.0] * n)
    before = allocate_budget(d, total, *bands)
    d2 = list(d)
    d2[idx] = min(d2[idx] + bump, 500.0)
    after = allocate_budget(d2, total, *bands)
    assert after[idx] >= before[idx] - 1e-6


@pytest.mark.slow
@given(d=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=8))
@settings(max_examples=100)
def test_generous_budget_serves_all_demand(d):
    n = len(d)
    total = sum(min(max(x, 65.0), 125.0) for x in d) + 10.0
    alloc = allocate_budget(d, total, [65.0] * n, [125.0] * n)
    for want, got in zip(d, alloc):
        assert got >= min(max(want, 65.0), 125.0) - 1e-6


# -- non-finite input fails loudly ----------------------------------------------

BANDS_2 = ([65.0, 100.0], [125.0, 250.0])


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", SPLIT_NAMES)
    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_rejected_at_construction(self, name, budget):
        spec = parse_policy(f"{name}:budget_w={budget}")
        with pytest.raises(ControllerError):
            split_policy(spec, scope=policy_info(name).scope)

    @pytest.mark.parametrize("name", SPLIT_NAMES)
    @pytest.mark.parametrize("where", ["demand", "floor", "ceiling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, name, where, value):
        policy = registry_split(name, 300.0)
        demands = [80.0, 150.0]
        floors, ceilings = (list(b) for b in BANDS_2)
        {"demand": demands, "floor": floors, "ceiling": ceilings}[where][1] = value
        with pytest.raises(ControllerError):
            policy.allocate(demands, floors, ceilings)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_allocator_rejects_non_finite_demand_and_total(self, value):
        with pytest.raises(ControllerError):
            allocate_budget([80.0, value], 300.0, *BANDS_2)
        with pytest.raises(ControllerError):
            allocate_budget([80.0, 150.0], value, *BANDS_2)


# -- example-based allocation checks (device bands) ------------------------------


class TestSplitPolicies:
    FLOORS = [40.0, 100.0]
    CEILINGS = [125.0, 250.0]

    def test_static_split_shares_and_clamps(self):
        policy = registry_split("hetero-static", 300.0, cpu_fraction=0.5)
        alloc = policy.allocate([0.0, 0.0], self.FLOORS, self.CEILINGS)
        assert alloc == [125.0, 150.0]  # CPU clamps to its ceiling
        assert policy.is_static

    def test_coordinated_moves_spare_watts_to_the_bidder(self):
        policy = registry_split("hetero-coord", 300.0)
        alloc = policy.allocate([60.0, 260.0], self.FLOORS, self.CEILINGS)
        assert sum(alloc) <= 300.0 + 1e-9
        assert alloc[1] > alloc[0]
        assert alloc[0] >= self.FLOORS[0] and alloc[1] <= self.CEILINGS[1]

    def test_fair_share_is_proportional_between_bounds(self):
        policy = registry_split("hetero-fair", 300.0)
        alloc = policy.allocate([0.0, 0.0], self.FLOORS, self.CEILINGS)
        span = sum(c - f for c, f in zip(self.CEILINGS, self.FLOORS))
        t = (300.0 - sum(self.FLOORS)) / span
        for a, lo, hi in zip(alloc, self.FLOORS, self.CEILINGS):
            assert a == pytest.approx(lo + t * (hi - lo))
        assert sum(alloc) == pytest.approx(300.0)

    def test_infeasible_and_invalid_inputs_rejected(self):
        with pytest.raises(ControllerError):
            StaticSplit(0.0)
        with pytest.raises(ControllerError):
            StaticSplit(300.0, lead_fraction=1.0)
        with pytest.raises(ControllerError):
            DemandSplit(100.0).allocate([0, 0], self.FLOORS, self.CEILINGS)
        with pytest.raises(ControllerError):
            DemandSplit(300.0).allocate([0.0], self.FLOORS, self.CEILINGS)
        with pytest.raises(ControllerError):
            StaticSplit(300.0, lead_fraction=0.5).allocate([0.0], [40.0], [125.0])
