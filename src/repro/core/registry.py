"""Policy registry: declarative, discoverable per-socket control policies.

The paper's DUFP is one point in a family of per-socket power/uncore
policies (uncore-only, cap-only, static, combined, budget-shared).
This module makes that family *data*: every controller is one
registry row — a short id, its scope, display metadata, a frozen
parameter dataclass, a builder and an optional lane-parallel tick
form — so sweeps, the result cache, the CLI, the batch engine and the
docs all discover policies from one place.

Adding a new policy is one :func:`register_policy` call (plus a frozen
dataclass when it takes parameters)::

    @dataclass(frozen=True)
    class FastCapParams:
        watts: float = 100.0

    register_policy(
        "fastcap",
        display_name="FastCap-style fair capper",
        paper_section="VI (related work)",
        summary="Cap both sockets fairly from a shared budget.",
        params=FastCapParams,
        build=lambda p, cfg: partial(MyFastCap, cfg, p.watts),
    )

``build(params, cfg)`` is invoked once per protocol *run* and returns
the per-socket controller factory, so policies that share state across
sockets (the budget coordinator) get a fresh coordinator every run.

A :class:`PolicySpec` is the serialisable selection of one policy —
``name`` plus an instance of its parameter dataclass.  Specs are
frozen, picklable and canonically hashable, so they cross process
boundaries inside :class:`~repro.experiments.executor.RunSpec` and fold
into the content-addressed result-cache digest: changing any parameter
changes the cache address.

This is deliberately the *only* module that touches concrete controller
classes; everything outside ``repro.core`` reaches them through the
registry (enforced by ``scripts/lint_policy_imports.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, make_dataclass
from functools import partial
from typing import Callable, ClassVar

from ..config import ControllerConfig
from ..errors import PolicyError
from ..units import ghz
from .base import Controller, LaneTickForm
from .baselines import (
    LOG_ONLY_FORM,
    DefaultController,
    DNPCLike,
    StaticPowerCap,
    StaticUncore,
    TimeWindowCap,
)
from .budget import NodeBudgetCoordinator
from .duf import DUF
from .dufp import DUFP
from .extensions import DUFPF, AdaptiveIntervalDUFP
from .governors import (
    OndemandFreqGovernor,
    PerformanceFreqGovernor,
    PowersaveFreqGovernor,
    SchedutilFreqGovernor,
)
from .split import DemandSplit, FairShareSplit, SplitPolicy, StaticSplit

__all__ = [
    "PolicyInfo",
    "PolicySpec",
    "register_policy",
    "policy_names",
    "policy_info",
    "make_spec",
    "as_spec",
    "parse_policy",
    "policy_label",
    "controller_factory",
    "describe_policies",
    "vector_tick_form",
    "split_policy",
    "SCOPES",
]

#: Per-socket controller factory, as consumed by the simulation layer.
ControllerFactory = Callable[[], Controller]

#: What a policy's entries are: ``"socket"`` policies build per-socket
#: controller factories; ``"device"`` (the CPU and GPUs of a hetero
#: node) and ``"node"`` (the nodes of a cluster) policies build a
#: :class:`~repro.core.split.SplitPolicy` over those entries.
SCOPES = ("socket", "device", "node")


@dataclass(frozen=True)
class PolicyInfo:
    """One registry row: a policy's metadata, parameters and builder."""

    #: Short registry id (the CLI / sweep / cache-key name).
    name: str
    #: Human-readable name for listings.
    display_name: str
    #: Where the paper (or related work) describes the policy.
    paper_section: str
    #: One-line description for ``repro policies``.
    summary: str
    #: Frozen dataclass type carrying the policy's parameters; its
    #: field defaults are the policy's default parameters.
    param_cls: type
    #: ``build(params, cfg)``: one run's per-socket controller factory,
    #: or a fresh split strategy at the budget-split scopes.
    build: Callable
    #: One of :data:`SCOPES`.  Budget-split scopes (``"device"``,
    #: ``"node"``) build a :class:`~repro.core.split.SplitPolicy`
    #: instead of a per-socket controller factory, and their run spec
    #: must carry a GPU node config or a cluster spec respectively.
    scope: str = "socket"
    #: ``(controller type, form)`` when the *exact* controller type
    #: this policy builds has a lane-parallel tick form (see
    #: :func:`vector_tick_form`); ``None`` otherwise.
    lanes: tuple[type, LaneTickForm] | None = None

    @property
    def defaults(self):
        """A parameter instance populated with every default."""
        return self.param_cls()

    def param_fields(self) -> tuple[dataclasses.Field, ...]:
        """The parameter dataclass fields, declaration order."""
        return dataclasses.fields(self.param_cls)


_REGISTRY: dict[str, PolicyInfo] = {}


def _params_type(type_name: str, fields=(), bases=(), **namespace) -> type:
    """A generated frozen parameter dataclass, bound here as ``type_name``.

    ``canonical_value`` hashes the type *name* into every cache address.
    Pickle finds a class by module and qualified name, which
    ``make_dataclass`` cannot set before Python 3.12: the namespace does.
    """
    if type_name in globals():
        raise PolicyError(f"parameter type name {type_name!r} is taken")
    cls = make_dataclass(
        type_name,
        fields,
        bases=bases,
        frozen=True,
        namespace={"__module__": __name__, "__qualname__": type_name, **namespace},
    )
    globals()[type_name] = cls
    return cls


def register_policy(
    name: str,
    *,
    display_name: str,
    summary: str,
    params: type | str,
    build: Callable,
    paper_section: str = "",
    scope: str = "socket",
    lanes: tuple[type, LaneTickForm] | None = None,
) -> None:
    """Register one policy row (see :class:`PolicyInfo`).

    ``params`` is the policy's frozen parameter dataclass or, for a
    policy without parameters, the name of the empty one to generate
    (the name is part of every cache address).
    """
    if scope not in SCOPES:
        raise PolicyError(f"policy {name!r} scope must be one of {SCOPES}")
    if name in _REGISTRY:
        raise PolicyError(f"policy {name!r} registered twice")
    if not callable(build):
        raise PolicyError(f"policy {name!r} needs a build(params, cfg)")
    if isinstance(params, str):
        params = _params_type(params)
    if not dataclasses.is_dataclass(params):
        raise PolicyError(f"policy {name!r} params must be a dataclass")
    _REGISTRY[name] = PolicyInfo(
        name, display_name, paper_section, summary, params, build, scope, lanes
    )


def vector_tick_form(controller: Controller) -> LaneTickForm | None:
    """The lane-parallel tick form of ``controller``, or ``None``.

    The batch engine's only controller-type probe: the form of the row
    whose ``lanes`` names ``type(controller)`` *exactly* — subclasses
    (DUFPF, the adaptive-interval variant) override scalar hooks the
    vector kernels do not model.  The differential-equivalence suite
    enforces that the form's decisions equal the scalar ``tick``.  Like
    everything else reaching concrete controller classes, the rows live
    here so ``repro.sim`` never imports them directly.
    """
    kind = type(controller)
    for info in _REGISTRY.values():
        if info.lanes is not None and info.lanes[0] is kind:
            return info.lanes[1]
    return None


def policy_names() -> tuple[str, ...]:
    """Every registered policy id, registration order."""
    return tuple(_REGISTRY)


def policy_info(name: str) -> PolicyInfo:
    """Metadata for one policy; raises :class:`PolicyError` if unknown."""
    info = _REGISTRY.get(name)
    if info is None:
        raise PolicyError(
            f"unknown policy {name!r}; available: {', '.join(_REGISTRY)}"
        )
    return info


@dataclass(frozen=True)
class PolicySpec:
    """One selected policy: registry id plus a parameter instance.

    Frozen (hashable), picklable, and canonically hashable through
    :func:`repro.config.config_digest` — the spec is exactly what the
    experiment layer threads through :class:`~repro.experiments.
    executor.RunSpec` and into the result-cache address.
    """

    name: str
    #: Instance of the policy's parameter dataclass; ``None`` at
    #: construction means "all defaults" and is resolved immediately.
    params: object = None

    def __post_init__(self) -> None:
        info = policy_info(self.name)
        params = self.params if self.params is not None else info.defaults
        if not isinstance(params, info.param_cls):
            raise PolicyError(
                f"policy {self.name!r} expects {info.param_cls.__name__} "
                f"params, got {type(params).__name__}"
            )
        object.__setattr__(self, "params", params)

    @property
    def info(self) -> PolicyInfo:
        """The registry metadata this spec refers to."""
        return policy_info(self.name)

    @property
    def label(self) -> str:
        """Display label: the policy id specialised by its parameters."""
        label_fn = getattr(self.params, "label", None)
        return label_fn() if callable(label_fn) else self.name

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """The per-socket controller factory for one protocol run."""
        return self.info.build(self.params, cfg)


def make_spec(name: str, **params) -> PolicySpec:
    """Construct a spec from keyword parameters over the defaults."""
    info = policy_info(name)
    known = {f.name for f in info.param_fields()}
    unknown = set(params) - known
    if unknown:
        raise PolicyError(
            f"policy {name!r} has no parameter(s) {sorted(unknown)}; "
            f"accepts: {sorted(known) or 'none'}"
        )
    return PolicySpec(name, info.param_cls(**params))


def as_spec(policy: "PolicySpec | str") -> PolicySpec:
    """Coerce a policy selection (spec, id, or ``name:k=v,...``) to a spec."""
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        return parse_policy(policy)
    raise PolicyError(f"cannot interpret {policy!r} as a policy")


def _coerce(value: str, target_type) -> object:
    """Parse one CLI parameter value according to the field's type."""
    if target_type is bool or target_type == "bool":
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise PolicyError(f"expected a boolean, got {value!r}")
    if target_type is int or target_type == "int":
        return int(value)
    if target_type is float or target_type == "float":
        return float(value)
    return value


def parse_policy(text: str) -> PolicySpec:
    """Parse ``name`` or ``name:key=val,key=val`` into a spec.

    The CLI syntax: ``--controller budget:watts=95`` selects the
    ``budget`` policy with ``watts=95`` and defaults elsewhere.  Value
    strings are coerced using the parameter dataclass's field types.
    """
    name, _, param_text = text.partition(":")
    name = name.strip()
    info = policy_info(name)
    params: dict[str, object] = {}
    if param_text.strip():
        types = {f.name: f.type for f in info.param_fields()}
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise PolicyError(
                    f"malformed policy parameter {item!r} "
                    f"(expected key=value) in {text!r}"
                )
            if key not in types:
                raise PolicyError(
                    f"policy {name!r} has no parameter {key!r}; "
                    f"accepts: {sorted(types) or 'none'}"
                )
            params[key] = _coerce(value.strip(), types[key])
    return make_spec(name, **params)


def policy_label(policy: "PolicySpec | str") -> str:
    """The display label of a policy selection, via the registry only."""
    return as_spec(policy).label


def controller_factory(
    policy: "PolicySpec | str", cfg: ControllerConfig | None = None
) -> ControllerFactory:
    """Resolve a policy selection to a fresh per-socket factory.

    Call once per protocol run: policies with cross-socket shared state
    (``budget``) allocate that state here, so runs never share it.
    """
    return as_spec(policy).build(cfg or ControllerConfig())


def split_policy(
    policy: "PolicySpec | str",
    cfg: ControllerConfig | None = None,
    *,
    scope: str,
) -> SplitPolicy:
    """Resolve a budget-split selection to a fresh strategy object.

    The counterpart of :func:`controller_factory` for the budget-split
    scopes: ``scope`` is ``"device"`` for the hetero engine or
    ``"node"`` for the cluster engine, and only registry entries of
    that scope resolve.
    """
    if scope not in ("device", "node"):
        raise PolicyError(
            f"scope {scope!r} has no budget split; use 'device' or 'node'"
        )
    spec = as_spec(policy)
    if spec.info.scope != scope:
        raise PolicyError(
            f"policy {spec.name!r} works at {spec.info.scope} scope, not "
            f"{scope} scope; pick one of: "
            + ", ".join(n for n in policy_names() if policy_info(n).scope == scope)
        )
    built = spec.build(cfg or ControllerConfig())
    if not isinstance(built, SplitPolicy):
        raise PolicyError(
            f"policy {spec.name!r} built {type(built).__name__}, "
            "expected a SplitPolicy"
        )
    return built


#: ``repro policies`` tags of the budget-split scopes.
_SCOPE_TAGS = {"device": "  (hetero split)", "node": "  (fleet split)"}


def describe_policies() -> str:
    """The ``repro policies`` listing, one block per registered policy."""
    lines: list[str] = []
    for name in policy_names():
        info = policy_info(name)
        section = f"  [{info.paper_section}]" if info.paper_section else ""
        tag = _SCOPE_TAGS.get(info.scope, "")
        lines.append(f"{name:14s} {info.display_name}{section}{tag}")
        lines.append(f"{'':14s}   {info.summary}")
        params = info.param_fields()
        if params:
            rendered = ", ".join(
                f"{f.name}={getattr(info.defaults, f.name)!r}" for f in params
            )
            lines.append(f"{'':14s}   params: {rendered}")
    return "\n".join(lines)


@dataclass(frozen=True)
class AdaptiveDUFPPolicy:
    """Parameters of the adaptive-interval DUFP variant."""

    #: Ticks judged with the sharpened error band after a phase change.
    fine_ticks: int = 3


@dataclass(frozen=True)
class StaticCapPolicy:
    """Parameters of the whole-run static power cap."""

    #: Package power cap, watts.
    cap_w: float = 110.0

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"static-{self.cap_w:.0f}W"


@dataclass(frozen=True)
class StaticUncorePolicy:
    """Parameters of the pinned-uncore baseline."""

    #: Pinned uncore frequency, GHz (paper's socket: 1.2-2.4).
    freq_ghz: float = 2.4

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"uncore-{self.freq_ghz:.1f}GHz"


@dataclass(frozen=True)
class TimeWindowCapPolicy:
    """Parameters of the phase-local (time-windowed) cap."""

    #: Package power cap while the window is active, watts.
    cap_w: float = 110.0
    #: Window start, seconds of run time.
    start_s: float = 0.0
    #: Window end, seconds of run time.
    end_s: float = 10.0

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"window-{self.cap_w:.0f}W"


@dataclass(frozen=True)
class BudgetPolicy:
    """Parameters of the budget-shared policy."""

    #: Node-wide power budget shared by every socket of the run, watts
    #: (a 1-socket run owns the full budget).
    watts: float = 110.0
    #: Re-allocate every this many controller ticks.
    period_ticks: int = 5
    #: Extra headroom granted above measured demand, watts.
    headroom_w: float = 5.0


@dataclass(frozen=True)
class GovernorPowersavePolicy:
    """Parameters of the powersave-governor baseline."""

    #: Reachable fraction of the floor-to-ceiling frequency span at a
    #: full-performance EPP hint.
    range_fraction: float = 0.5


@dataclass(frozen=True)
class GovernorOndemandPolicy:
    """Parameters of the ondemand-governor baseline."""

    #: Utilisation above which the governor jumps to the maximum.
    up_threshold: float = 0.8
    #: Platform peak compute for the utilisation estimate, GFLOPS.
    peak_gflops: float = 180.0


@dataclass(frozen=True)
class GovernorSchedutilPolicy:
    """Parameters of the schedutil-governor baseline."""

    #: Headroom multiplier on the utilisation-proportional target.
    margin: float = 1.25
    #: Platform peak compute for the utilisation estimate, GFLOPS.
    peak_gflops: float = 180.0


@dataclass(frozen=True)
class _SplitParams:
    """Shared field and label of the budget-split parameter types."""

    #: Registry id, the prefix of the display label.
    name: ClassVar[str]
    #: The shared budget, watts: a hetero node's, split across all its
    #: devices, or a cluster's, partitioned across all its nodes.
    budget_w: float

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"{self.name}-{self.budget_w:.0f}W"


def _split_params(type_name: str, name: str, budget_w: float, *fields) -> type:
    """A split policy's parameter type: ``budget_w`` (this default), ``fields``."""
    return _params_type(
        type_name, [("budget_w", float, budget_w), *fields], (_SplitParams,), name=name
    )


# ---------------------------------------------------------------------------
# Registrations: every controller in the repo, including the baselines
# that were previously unreachable from the sweep path.
# ---------------------------------------------------------------------------

register_policy(
    "default",
    display_name="Default configuration",
    paper_section="V (baseline)",
    summary="Untouched machine: stock uncore governor, default RAPL limits.",
    params="DefaultPolicy",
    build=lambda p, cfg: DefaultController,
    lanes=(DefaultController, LOG_ONLY_FORM),
)
register_policy(
    "duf",
    display_name="DUF dynamic uncore scaling",
    paper_section="II-C",
    summary="Uncore-only dynamic frequency scaling (André et al.).",
    params="DUFPolicy",
    build=lambda p, cfg: partial(DUF, cfg),
    lanes=(DUF, LaneTickForm(DUF.tick_lanes)),
)
register_policy(
    "dufp",
    display_name="DUFP uncore scaling + dynamic capping",
    paper_section="IV",
    summary="The paper's contribution: DUF plus dynamic RAPL capping.",
    params="DUFPPolicy",
    build=lambda p, cfg: partial(DUFP, cfg),
    lanes=(DUFP, LaneTickForm(DUFP.tick_lanes)),
)
register_policy(
    "dufpf",
    display_name="DUFP + explicit core-frequency ceiling",
    paper_section="VII (future work)",
    summary="DUFP driving IA32_PERF_CTL instead of capping for feedback.",
    params="DUFPFPolicy",
    build=lambda p, cfg: partial(DUFPF, cfg),
)
register_policy(
    "dufp-adaptive",
    display_name="DUFP with transiently finer interval",
    paper_section="V-A (remedy)",
    summary="DUFP judging strictly for a few ticks after phase changes.",
    params=AdaptiveDUFPPolicy,
    build=lambda p, cfg: partial(AdaptiveIntervalDUFP, cfg, fine_ticks=p.fine_ticks),
)
register_policy(
    "static",
    display_name="Static power cap",
    paper_section="II-A (Fig. 1a)",
    summary="One fixed package cap for the whole run, stock uncore scaling.",
    params=StaticCapPolicy,
    build=lambda p, cfg: partial(StaticPowerCap, p.cap_w),
    lanes=(StaticPowerCap, LOG_ONLY_FORM),
)
register_policy(
    "uncore",
    display_name="Static uncore frequency",
    paper_section="II-B",
    summary="The uncore pinned to one frequency for the whole run.",
    params=StaticUncorePolicy,
    build=lambda p, cfg: partial(StaticUncore, ghz(p.freq_ghz)),
    lanes=(StaticUncore, LOG_ONLY_FORM),
)
register_policy(
    "window",
    display_name="Time-windowed power cap",
    paper_section="II-A (Fig. 1b/1c)",
    summary="A cap active only inside [start_s, end_s), then reset.",
    params=TimeWindowCapPolicy,
    build=lambda p, cfg: partial(TimeWindowCap, p.cap_w, p.start_s, p.end_s),
)
register_policy(
    "dnpc",
    display_name="DNPC-style frequency-model capper",
    paper_section="VI (related work)",
    summary="Dynamic capping assuming performance scales with core frequency.",
    params="DNPCPolicy",
    build=lambda p, cfg: partial(DNPCLike, cfg),
)
# A fresh coordinator per run; its factory registers one member
# controller per socket, so the budget genuinely spans the run's
# sockets and never leaks between runs.
register_policy(
    "budget",
    display_name="Node budget sharing (GEOPM-style)",
    paper_section="VI / VII (complementary)",
    summary="DUF uncore scaling under a coordinator-split node power budget.",
    params=BudgetPolicy,
    build=lambda p, cfg: NodeBudgetCoordinator(
        total_budget_w=p.watts,
        cfg=cfg,
        period_ticks=p.period_ticks,
        headroom_w=p.headroom_w,
    ).socket_controller,
)

# ---------------------------------------------------------------------------
# Frequency-governor baselines: the four classic Linux cpufreq policies
# as controllers, so DUFP sweeps against what a sysadmin gets with one
# command (PAPERS.md: "How to Increase Energy Efficiency with a Single
# Linux Command").
# ---------------------------------------------------------------------------

register_policy(
    "governor-performance",
    display_name="cpufreq performance governor",
    paper_section="V (testbed default)",
    summary="Core-frequency ceiling pinned to the maximum P-state.",
    params="GovernorPerformancePolicy",
    build=lambda p, cfg: partial(PerformanceFreqGovernor, cfg),
)
register_policy(
    "governor-powersave",
    display_name="cpufreq powersave governor (HWP/EPP biased)",
    paper_section="VI (related work)",
    summary="EPP-biased fixed operating point below the maximum P-state.",
    params=GovernorPowersavePolicy,
    build=lambda p, cfg: partial(
        PowersaveFreqGovernor, cfg, range_fraction=p.range_fraction
    ),
)
register_policy(
    "governor-ondemand",
    display_name="cpufreq ondemand governor",
    paper_section="VI (related work)",
    summary="Maximum P-state above up_threshold utilisation, scaled below.",
    params=GovernorOndemandPolicy,
    build=lambda p, cfg: partial(
        OndemandFreqGovernor,
        cfg,
        peak_gflops=p.peak_gflops,
        up_threshold=p.up_threshold,
    ),
)
register_policy(
    "governor-schedutil",
    display_name="cpufreq schedutil governor",
    paper_section="VI (related work)",
    summary="The kernel's margin*f_max*util rule, clamped to the P-states.",
    params=GovernorSchedutilPolicy,
    build=lambda p, cfg: partial(
        SchedutilFreqGovernor, cfg, peak_gflops=p.peak_gflops, margin=p.margin
    ),
)

# ---------------------------------------------------------------------------
# Budget-split policies: how one shared budget divides across a hetero
# node's devices (paper §VII future work; index 0 the CPU socket, 1..N
# the GPUs) or a cluster's nodes (paper §VI).  Their ``build`` returns a
# SplitPolicy for the hetero or cluster engine, not a per-socket
# controller factory — consumed through split_policy(), never directly.
# Each scope names the same three strategies.  The parameter types keep
# their names, fields and defaults: all three are part of every such
# cell's cache address.
# ---------------------------------------------------------------------------

register_policy(
    "hetero-static",
    display_name="Static CPU/GPU budget split",
    paper_section="VII (baseline)",
    summary="Fixed CPU fraction, remainder split evenly over the GPUs.",
    scope="device",
    # cpu_fraction: the share of the budget statically assigned to the
    # CPU socket, which leads the frozen t=0 split.
    params=_split_params(
        "HeteroStaticPolicy", "hetero-static", 300.0, ("cpu_fraction", float, 0.5)
    ),
    build=lambda p, cfg: StaticSplit(p.budget_w, lead_fraction=p.cpu_fraction),
)
register_policy(
    "hetero-coord",
    display_name="Coordinated demand/offer CPU/GPU split",
    paper_section="VII (contribution)",
    summary="Tolerance-aware water-filling re-split every period.",
    scope="device",
    params=_split_params("HeteroCoordPolicy", "hetero-coord", 300.0),
    build=lambda p, cfg: DemandSplit(p.budget_w),
)
register_policy(
    "hetero-fair",
    display_name="FastCap-style fair CPU/GPU split",
    paper_section="VI (related work)",
    summary="Equal fraction of each device's floor-to-ceiling range.",
    scope="device",
    params=_split_params("HeteroFairPolicy", "hetero-fair", 300.0),
    build=lambda p, cfg: FairShareSplit(p.budget_w),
)
register_policy(
    "fleet-static",
    display_name="Static equal-share fleet partition",
    paper_section="VI (baseline)",
    summary="Equal node shares decided once at t=0, never revisited.",
    scope="node",
    params=_split_params("FleetStaticPolicy", "fleet-static", 250.0),
    build=lambda p, cfg: StaticSplit(p.budget_w),
)
register_policy(
    "fleet-demand",
    display_name="Demand/offer water-filling fleet partition",
    paper_section="VI (contribution)",
    summary="Nodes bid measured power; watts re-partition every period.",
    scope="node",
    params=_split_params("FleetDemandPolicy", "fleet-demand", 250.0),
    build=lambda p, cfg: DemandSplit(p.budget_w),
)
register_policy(
    "fleet-fair",
    display_name="FastCap-style fair fleet partition",
    paper_section="VI (related work)",
    summary="Equal fraction of each node's floor-to-ceiling range.",
    scope="node",
    params=_split_params("FleetFairPolicy", "fleet-fair", 250.0),
    build=lambda p, cfg: FairShareSplit(p.budget_w),
)
