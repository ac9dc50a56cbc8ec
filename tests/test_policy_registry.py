"""The policy registry: specs, parsing, cache digests, end-to-end runs."""

import pickle

import pytest

from repro.config import ControllerConfig, NoiseConfig, config_digest
from repro.core.registry import (
    PolicySpec,
    as_spec,
    controller_factory,
    describe_policies,
    make_spec,
    parse_policy,
    policy_info,
    policy_label,
    policy_names,
    register_policy,
)
from repro.errors import PolicyError
from repro.experiments.executor import RunSpec, spec_key
from repro.experiments.protocol import run_protocol
from repro.experiments.sweep import run_sweep
from repro.workloads.catalog import build_application


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)


class TestRegistry:
    def test_every_controller_registered(self):
        names = policy_names()
        for expected in (
            "default",
            "duf",
            "dufp",
            "dufpf",
            "dufp-adaptive",
            "static",
            "uncore",
            "window",
            "dnpc",
            "budget",
        ):
            assert expected in names

    def test_info_carries_metadata(self):
        info = policy_info("dufp")
        assert info.display_name
        assert info.paper_section
        assert info.summary

    def test_unknown_policy_rejected(self):
        with pytest.raises(PolicyError):
            policy_info("magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(PolicyError):
            register_policy(
                "dufp",
                display_name="again",
                summary="A second row under a taken id.",
                params=policy_info("dufp").param_cls,
                build=policy_info("dufp").build,
            )

    def test_describe_lists_every_policy(self):
        text = describe_policies()
        for name in policy_names():
            assert name in text
        assert "cap_w=110.0" in text  # parameters are rendered


class TestSpec:
    def test_defaults_resolved_at_construction(self):
        spec = PolicySpec("static")
        assert spec.params.cap_w == 110.0

    def test_make_spec_overrides_defaults(self):
        assert make_spec("static", cap_w=95.0).params.cap_w == 95.0

    def test_make_spec_rejects_unknown_param(self):
        with pytest.raises(PolicyError):
            make_spec("static", watts=95.0)

    def test_wrong_param_type_rejected(self):
        with pytest.raises(PolicyError):
            PolicySpec("static", params=policy_info("budget").defaults)

    def test_label_specialised_by_params(self):
        assert make_spec("static", cap_w=100.0).label == "static-100W"
        assert make_spec("uncore", freq_ghz=1.8).label == "uncore-1.8GHz"
        assert as_spec("dufp").label == "dufp"
        assert policy_label("budget") == "budget"

    def test_spec_is_picklable(self):
        spec = make_spec("budget", watts=95.0, period_ticks=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params.watts == 95.0

    def test_spec_is_hashable(self):
        assert hash(make_spec("static", cap_w=95.0)) == hash(
            make_spec("static", cap_w=95.0)
        )


class TestParsePolicy:
    def test_bare_name(self):
        assert parse_policy("dnpc") == PolicySpec("dnpc")

    def test_params_coerced_by_field_type(self):
        spec = parse_policy("budget:watts=95,period_ticks=3")
        assert spec.params.watts == 95.0
        assert spec.params.period_ticks == 3
        assert isinstance(spec.params.period_ticks, int)

    def test_unknown_name_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy("magic")

    def test_unknown_key_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy("static:watts=95")

    def test_malformed_pair_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy("static:cap_w")

    def test_as_spec_passthrough_and_rejection(self):
        spec = make_spec("static", cap_w=95.0)
        assert as_spec(spec) is spec
        with pytest.raises(PolicyError):
            as_spec(42)


class TestCacheDigest:
    def test_digest_stable_across_constructions(self):
        a = config_digest(make_spec("budget", watts=95.0))
        b = config_digest(make_spec("budget", watts=95.0))
        assert a == b

    def test_param_change_changes_digest(self):
        assert config_digest(make_spec("budget", watts=95.0)) != config_digest(
            make_spec("budget", watts=100.0)
        )

    def test_param_change_changes_spec_key(self):
        base = dict(app_name="EP", runs=1, app_scale=0.2, noise=QUIET)
        a = RunSpec(controller=make_spec("static", cap_w=100.0), **base)
        b = RunSpec(controller=make_spec("static", cap_w=95.0), **base)
        c = RunSpec(controller="static:cap_w=100", **base)
        assert spec_key(a) != spec_key(b)
        assert spec_key(a) == spec_key(c)  # CLI syntax hits the same address


class TestEndToEnd:
    def test_protocol_name_comes_from_registry(self):
        result = run_protocol(
            build_application("EP", scale=0.2),
            make_spec("static", cap_w=100.0),
            runs=1,
            noise=QUIET,
        )
        assert result.controller_name == "static-100W"

    @pytest.mark.parametrize(
        "controller",
        ["dnpc", "window:cap_w=100,end_s=5", "uncore:freq_ghz=1.8",
         "static:cap_w=95", "budget:watts=95", "dufp-adaptive", "dufpf"],
    )
    def test_each_policy_completes_a_one_cell_sweep(self, controller):
        sweep = run_sweep(
            apps=["EP"],
            tolerances_pct=(10.0,),
            runs=1,
            app_scale=0.2,
            noise=QUIET,
            controllers=(controller,),
        )
        label = as_spec(controller).label
        cmp_ = sweep.get("EP", label, 10.0)
        assert cmp_.controller_name == label

    def test_budget_coordinator_fresh_per_run(self):
        # Two protocol runs on a 2-socket node: a stale coordinator
        # would keep accumulating member sockets across runs.
        result = run_protocol(
            build_application("EP", scale=0.2),
            make_spec("budget", watts=190.0),
            runs=2,
            socket_count=2,
            noise=QUIET,
        )
        assert len(result.times_s) == 2
        assert result.controller_name == "budget"

    def test_factory_fresh_per_call(self):
        factory = controller_factory("dufp", ControllerConfig())
        assert factory() is not factory()

    def test_parallel_equals_serial_for_registry_policy(self):
        grid = dict(
            apps=["EP"],
            tolerances_pct=(0.0,),
            runs=2,
            app_scale=0.2,
            noise=QUIET,
            controllers=("dnpc", "static:cap_w=100"),
        )
        serial = run_sweep(**grid, workers=1)
        parallel = run_sweep(**grid, workers=4)
        assert serial.comparisons == parallel.comparisons
