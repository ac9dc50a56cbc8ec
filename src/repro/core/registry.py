"""Policy registry: declarative, discoverable per-socket control policies.

The paper's DUFP is one point in a family of per-socket power/uncore
policies (uncore-only, cap-only, static, combined, budget-shared).
This module makes that family *data*: every controller is registered
under a short id together with a frozen parameter dataclass, display
metadata and a builder, so sweeps, the result cache, the CLI and the
docs all discover policies from one place.

Adding a new policy is one dataclass plus one decorator::

    @register_policy(
        "fastcap",
        display_name="FastCap-style fair capper",
        paper_section="VI (related work)",
        summary="Cap both sockets fairly from a shared budget.",
    )
    @dataclass(frozen=True)
    class FastCapPolicy:
        watts: float = 100.0

        def build(self, cfg: ControllerConfig) -> Callable[[], Controller]:
            return lambda: MyFastCap(cfg, self.watts)

``build`` is invoked once per protocol *run* and returns the per-socket
controller factory, so policies that share state across sockets (the
budget coordinator) get a fresh coordinator every run.

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
from dataclasses import dataclass
from typing import Callable, ClassVar

from ..config import ControllerConfig
from ..errors import PolicyError
from ..units import ghz
from .base import Controller
from .baselines import (
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

#: Controllers with a registered lane-parallel tick form, keyed by
#: *exact* type: subclasses (DUFPF, the adaptive-interval variant)
#: override scalar hooks the vector kernels do not model, so they must
#: not inherit a parent's vector form.  The value is the ``tick_lanes``
#: staticmethod the batch engine dispatches to.
_VECTOR_TICKS: dict[type, Callable] = {
    DUF: DUF.tick_lanes,
    DUFP: DUFP.tick_lanes,
}


def vector_tick_form(controller: Controller) -> "Callable | None":
    """The lane-parallel tick form of ``controller``, or ``None``.

    This is the batch engine's only controller-type probe: a non-None
    return means ``type(controller)`` registered a ``tick_lanes`` form
    whose masked vector decisions are bit-identical to the scalar
    ``tick`` (the differential-equivalence suite enforces it).  Like
    everything else reaching concrete controller classes, the mapping
    lives here so ``repro.sim`` never imports them directly.
    """
    return _VECTOR_TICKS.get(type(controller))


@dataclass(frozen=True)
class PolicyInfo:
    """Registry metadata for one policy."""

    #: Short registry id (the CLI / sweep / cache-key name).
    name: str
    #: Human-readable name for listings.
    display_name: str
    #: Where the paper (or related work) describes the policy.
    paper_section: str
    #: One-line description for ``repro policies``.
    summary: str
    #: Frozen dataclass type carrying the policy's parameters; its
    #: field defaults are the policy's default parameters and its
    #: ``build(cfg)`` method produces the per-socket factory.
    param_cls: type
    #: One of :data:`SCOPES`.  Budget-split scopes (``"device"``,
    #: ``"node"``) build a :class:`~repro.core.split.SplitPolicy`
    #: instead of a per-socket controller factory, and their run spec
    #: must carry a GPU node config or a cluster spec respectively.
    scope: str = "socket"

    @property
    def defaults(self):
        """A parameter instance populated with every default."""
        return self.param_cls()

    def param_fields(self) -> tuple[dataclasses.Field, ...]:
        """The parameter dataclass fields, declaration order."""
        return dataclasses.fields(self.param_cls)


_REGISTRY: dict[str, PolicyInfo] = {}


def register_policy(
    name: str,
    *,
    display_name: str,
    paper_section: str = "",
    summary: str = "",
    scope: str = "socket",
):
    """Class decorator registering a parameter dataclass as a policy.

    The decorated class must be a frozen dataclass exposing
    ``build(cfg: ControllerConfig) -> Callable[[], Controller]`` — or,
    for the budget-split scopes ``"device"`` and ``"node"``,
    ``build(cfg) -> SplitPolicy``.
    """

    def decorate(param_cls: type) -> type:
        if scope not in SCOPES:
            raise PolicyError(f"policy {name!r} scope must be one of {SCOPES}")
        if not dataclasses.is_dataclass(param_cls):
            raise PolicyError(f"policy {name!r} params must be a dataclass")
        if not callable(getattr(param_cls, "build", None)):
            raise PolicyError(f"policy {name!r} params must define build(cfg)")
        if name in _REGISTRY:
            raise PolicyError(f"policy {name!r} registered twice")
        _REGISTRY[name] = PolicyInfo(
            name=name,
            display_name=display_name,
            paper_section=paper_section,
            summary=summary or (param_cls.__doc__ or "").strip().splitlines()[0],
            param_cls=param_cls,
            scope=scope,
        )
        return param_cls

    return decorate


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
        return self.params.build(cfg)


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


# ---------------------------------------------------------------------------
# Registrations: every controller in the repo, including the baselines
# that were previously unreachable from the sweep path.
# ---------------------------------------------------------------------------


@register_policy(
    "default",
    display_name="Default configuration",
    paper_section="V (baseline)",
    summary="Untouched machine: stock uncore governor, default RAPL limits.",
)
@dataclass(frozen=True)
class DefaultPolicy:
    """Parameters of the default (no-op) policy: none."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket factory for the no-op controller."""
        return DefaultController


@register_policy(
    "duf",
    display_name="DUF dynamic uncore scaling",
    paper_section="II-C",
    summary="Uncore-only dynamic frequency scaling (André et al.).",
)
@dataclass(frozen=True)
class DUFPolicy:
    """Parameters of DUF: none beyond the shared controller config."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket DUF factory over the shared controller config."""
        return lambda: DUF(cfg)


@register_policy(
    "dufp",
    display_name="DUFP uncore scaling + dynamic capping",
    paper_section="IV",
    summary="The paper's contribution: DUF plus dynamic RAPL capping.",
)
@dataclass(frozen=True)
class DUFPPolicy:
    """Parameters of DUFP: none beyond the shared controller config."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket DUFP factory over the shared controller config."""
        return lambda: DUFP(cfg)


@register_policy(
    "dufpf",
    display_name="DUFP + explicit core-frequency ceiling",
    paper_section="VII (future work)",
    summary="DUFP driving IA32_PERF_CTL instead of capping for feedback.",
)
@dataclass(frozen=True)
class DUFPFPolicy:
    """Parameters of DUFPF: none beyond the shared controller config."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket DUFPF factory over the shared controller config."""
        return lambda: DUFPF(cfg)


@register_policy(
    "dufp-adaptive",
    display_name="DUFP with transiently finer interval",
    paper_section="V-A (remedy)",
    summary="DUFP judging strictly for a few ticks after phase changes.",
)
@dataclass(frozen=True)
class AdaptiveDUFPPolicy:
    """Parameters of the adaptive-interval DUFP variant."""

    #: Ticks judged with the sharpened error band after a phase change.
    fine_ticks: int = 3

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket adaptive-DUFP factory."""
        return lambda: AdaptiveIntervalDUFP(cfg, fine_ticks=self.fine_ticks)


@register_policy(
    "static",
    display_name="Static power cap",
    paper_section="II-A (Fig. 1a)",
    summary="One fixed package cap for the whole run, stock uncore scaling.",
)
@dataclass(frozen=True)
class StaticCapPolicy:
    """Parameters of the whole-run static power cap."""

    #: Package power cap, watts.
    cap_w: float = 110.0

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"static-{self.cap_w:.0f}W"

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket static-cap factory."""
        return lambda: StaticPowerCap(self.cap_w)


@register_policy(
    "uncore",
    display_name="Static uncore frequency",
    paper_section="II-B",
    summary="The uncore pinned to one frequency for the whole run.",
)
@dataclass(frozen=True)
class StaticUncorePolicy:
    """Parameters of the pinned-uncore baseline."""

    #: Pinned uncore frequency, GHz (paper's socket: 1.2-2.4).
    freq_ghz: float = 2.4

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"uncore-{self.freq_ghz:.1f}GHz"

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket pinned-uncore factory."""
        return lambda: StaticUncore(ghz(self.freq_ghz))


@register_policy(
    "window",
    display_name="Time-windowed power cap",
    paper_section="II-A (Fig. 1b/1c)",
    summary="A cap active only inside [start_s, end_s), then reset.",
)
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

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket windowed-cap factory."""
        return lambda: TimeWindowCap(self.cap_w, self.start_s, self.end_s)


@register_policy(
    "dnpc",
    display_name="DNPC-style frequency-model capper",
    paper_section="VI (related work)",
    summary="Dynamic capping assuming performance scales with core frequency.",
)
@dataclass(frozen=True)
class DNPCPolicy:
    """Parameters of the DNPC-like baseline: none."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket DNPC-like factory."""
        return lambda: DNPCLike(cfg)


@register_policy(
    "budget",
    display_name="Node budget sharing (GEOPM-style)",
    paper_section="VI / VII (complementary)",
    summary="DUF uncore scaling under a coordinator-split node power budget.",
)
@dataclass(frozen=True)
class BudgetPolicy:
    """Parameters of the budget-shared policy.

    ``build`` allocates a fresh :class:`NodeBudgetCoordinator` per run;
    the returned factory registers one member controller per socket, so
    the budget genuinely spans the run's sockets and never leaks
    between runs.
    """

    #: Node-wide power budget shared by every socket of the run, watts
    #: (a 1-socket run owns the full budget).
    watts: float = 110.0
    #: Re-allocate every this many controller ticks.
    period_ticks: int = 5
    #: Extra headroom granted above measured demand, watts.
    headroom_w: float = 5.0

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Fresh coordinator per run; factory registers member sockets."""
        coordinator = NodeBudgetCoordinator(
            total_budget_w=self.watts,
            cfg=cfg,
            period_ticks=self.period_ticks,
            headroom_w=self.headroom_w,
        )
        return coordinator.socket_controller


# ---------------------------------------------------------------------------
# Frequency-governor baselines: the four classic Linux cpufreq policies
# as controllers, so DUFP sweeps against what a sysadmin gets with one
# command (PAPERS.md: "How to Increase Energy Efficiency with a Single
# Linux Command").
# ---------------------------------------------------------------------------


@register_policy(
    "governor-performance",
    display_name="cpufreq performance governor",
    paper_section="V (testbed default)",
    summary="Core-frequency ceiling pinned to the maximum P-state.",
)
@dataclass(frozen=True)
class GovernorPerformancePolicy:
    """Parameters of the performance-governor baseline: none."""

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket performance-governor factory."""
        return lambda: PerformanceFreqGovernor(cfg)


@register_policy(
    "governor-powersave",
    display_name="cpufreq powersave governor (HWP/EPP biased)",
    paper_section="VI (related work)",
    summary="EPP-biased fixed operating point below the maximum P-state.",
)
@dataclass(frozen=True)
class GovernorPowersavePolicy:
    """Parameters of the powersave-governor baseline."""

    #: Reachable fraction of the floor-to-ceiling frequency span at a
    #: full-performance EPP hint.
    range_fraction: float = 0.5

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket powersave-governor factory."""
        return lambda: PowersaveFreqGovernor(
            cfg, range_fraction=self.range_fraction
        )


@register_policy(
    "governor-ondemand",
    display_name="cpufreq ondemand governor",
    paper_section="VI (related work)",
    summary="Maximum P-state above up_threshold utilisation, scaled below.",
)
@dataclass(frozen=True)
class GovernorOndemandPolicy:
    """Parameters of the ondemand-governor baseline."""

    #: Utilisation above which the governor jumps to the maximum.
    up_threshold: float = 0.8
    #: Platform peak compute for the utilisation estimate, GFLOPS.
    peak_gflops: float = 180.0

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket ondemand-governor factory."""
        return lambda: OndemandFreqGovernor(
            cfg,
            peak_gflops=self.peak_gflops,
            up_threshold=self.up_threshold,
        )


@register_policy(
    "governor-schedutil",
    display_name="cpufreq schedutil governor",
    paper_section="VI (related work)",
    summary="The kernel's margin*f_max*util rule, clamped to the P-states.",
)
@dataclass(frozen=True)
class GovernorSchedutilPolicy:
    """Parameters of the schedutil-governor baseline."""

    #: Headroom multiplier on the utilisation-proportional target.
    margin: float = 1.25
    #: Platform peak compute for the utilisation estimate, GFLOPS.
    peak_gflops: float = 180.0

    def build(self, cfg: ControllerConfig) -> ControllerFactory:
        """Per-socket schedutil-governor factory."""
        return lambda: SchedutilFreqGovernor(
            cfg,
            peak_gflops=self.peak_gflops,
            margin=self.margin,
        )


# ---------------------------------------------------------------------------
# Budget-split policies: how one shared budget divides across a hetero
# node's devices (paper §VII future work; index 0 the CPU socket, 1..N
# the GPUs) or a cluster's nodes (paper §VI).  Their ``build`` returns a
# SplitPolicy for the hetero or cluster engine, not a per-socket
# controller factory — consumed through split_policy(), never directly.
# Each scope names the same three strategies.  The parameter classes
# keep their names, fields and defaults: all three are part of every
# such cell's cache address.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SplitParams:
    """Shared label and build of the budget-split parameter classes."""

    #: Registry id, the prefix of the display label.
    name: ClassVar[str]
    #: The strategy the parameters build.
    strategy: ClassVar[type[SplitPolicy]]

    def label(self) -> str:
        """Parameter-specialised display label."""
        return f"{self.name}-{self.budget_w:.0f}W"

    def build(self, cfg: ControllerConfig) -> SplitPolicy:
        """A fresh strategy over the shared budget."""
        return self.strategy(self.budget_w)


@register_policy(
    "hetero-static",
    display_name="Static CPU/GPU budget split",
    paper_section="VII (baseline)",
    summary="Fixed CPU fraction, remainder split evenly over the GPUs.",
    scope="device",
)
@dataclass(frozen=True)
class HeteroStaticPolicy(_SplitParams):
    """Parameters of the fixed fractional CPU/GPU split."""

    name: ClassVar[str] = "hetero-static"
    #: Shared node power budget split across all devices, watts.
    budget_w: float = 300.0
    #: Fraction of the budget statically assigned to the CPU socket.
    cpu_fraction: float = 0.5

    def build(self, cfg: ControllerConfig) -> SplitPolicy:
        """The frozen t=0 split, the CPU socket leading."""
        return StaticSplit(self.budget_w, lead_fraction=self.cpu_fraction)


@register_policy(
    "hetero-coord",
    display_name="Coordinated demand/offer CPU/GPU split",
    paper_section="VII (contribution)",
    summary="Tolerance-aware water-filling re-split every period.",
    scope="device",
)
@dataclass(frozen=True)
class HeteroCoordPolicy(_SplitParams):
    """Parameters of the coordinated demand/offer split."""

    name: ClassVar[str] = "hetero-coord"
    strategy: ClassVar[type[SplitPolicy]] = DemandSplit
    #: Shared node power budget split across all devices, watts.
    budget_w: float = 300.0


@register_policy(
    "hetero-fair",
    display_name="FastCap-style fair CPU/GPU split",
    paper_section="VI (related work)",
    summary="Equal fraction of each device's floor-to-ceiling range.",
    scope="device",
)
@dataclass(frozen=True)
class HeteroFairPolicy(_SplitParams):
    """Parameters of the FastCap-style fair split."""

    name: ClassVar[str] = "hetero-fair"
    strategy: ClassVar[type[SplitPolicy]] = FairShareSplit
    #: Shared node power budget split across all devices, watts.
    budget_w: float = 300.0


@register_policy(
    "fleet-static",
    display_name="Static equal-share fleet partition",
    paper_section="VI (baseline)",
    summary="Equal node shares decided once at t=0, never revisited.",
    scope="node",
)
@dataclass(frozen=True)
class FleetStaticPolicy(_SplitParams):
    """Parameters of the equal static fleet partition."""

    name: ClassVar[str] = "fleet-static"
    strategy: ClassVar[type[SplitPolicy]] = StaticSplit
    #: Global power budget partitioned across all nodes, watts.
    budget_w: float = 250.0


@register_policy(
    "fleet-demand",
    display_name="Demand/offer water-filling fleet partition",
    paper_section="VI (contribution)",
    summary="Nodes bid measured power; watts re-partition every period.",
    scope="node",
)
@dataclass(frozen=True)
class FleetDemandPolicy(_SplitParams):
    """Parameters of the demand/offer fleet partition."""

    name: ClassVar[str] = "fleet-demand"
    strategy: ClassVar[type[SplitPolicy]] = DemandSplit
    #: Global power budget partitioned across all nodes, watts.
    budget_w: float = 250.0


@register_policy(
    "fleet-fair",
    display_name="FastCap-style fair fleet partition",
    paper_section="VI (related work)",
    summary="Equal fraction of each node's floor-to-ceiling range.",
    scope="node",
)
@dataclass(frozen=True)
class FleetFairPolicy(_SplitParams):
    """Parameters of the FastCap-style fair fleet partition."""

    name: ClassVar[str] = "fleet-fair"
    strategy: ClassVar[type[SplitPolicy]] = FairShareSplit
    #: Global power budget partitioned across all nodes, watts.
    budget_w: float = 250.0
