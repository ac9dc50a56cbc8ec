"""Hetero runs as first-class citizens of the spec/registry layer.

The CPU+GPU co-sim is addressable like any other cell: budget-split
policies live in the registry (``hetero-static``, ``hetero-coord``,
``hetero-fair``), a :class:`RunSpec` carries an optional
:class:`GPUNodeConfig`, and the spec digest folds the GPU side in via
``digest_omit_default`` — so every pre-existing CPU-only digest stays
byte-identical (pinned here against frozen hashes).

Engine-level acceptance: determinism (same seed, same result),
budget conservation on every re-allocation, multi-GPU queues with
uncore-coupled transfer phases, seeded GPU fault channels, and
per-device trace records.
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.config import ControllerConfig, EngineConfig, NoiseConfig
from repro.core.registry import (
    describe_policies,
    make_spec,
    parse_policy,
    split_policy,
)
from repro.core.split import DemandSplit, FairShareSplit
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    PolicyError,
    SimulationError,
)
from repro.experiments.executor import (
    RunSpec,
    cell_seed,
    estimate_spec_ticks,
    execute_spec,
    spec_key,
)
from repro.experiments.protocol import run_protocol
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.faults import FaultPlan
from repro.sim.hetero import HeteroEngine
from repro.sim.trace import InMemoryTraceSink
from repro.workloads.catalog import build_application

#: A node small enough for tier-1 wall clock.
SMALL_NODE = GPUNodeConfig(
    kernel_count=3, kernel_flops=1.5e12, kernel_bytes=0.2e12
)


def coord(budget_w: float):
    """The registry's coordinated device split at ``budget_w``."""
    return split_policy(
        make_spec("hetero-coord", budget_w=budget_w), scope="device"
    )


def small_engine(**overrides) -> HeteroEngine:
    base = dict(
        application=build_application("CG", scale=0.15),
        node=SMALL_NODE,
        policy=coord(300.0),
        cfg=ControllerConfig(tolerated_slowdown=0.10),
        seed=3,
        noise=NoiseConfig(),
    )
    base.update(overrides)
    return HeteroEngine(**base)


class TestGPUNodeConfig:
    def test_defaults_validate_and_build_kernels(self):
        node = GPUNodeConfig()
        node.validate()
        kernels = node.build_kernels()
        assert len(kernels) == node.kernel_count
        assert kernels[0].name == "kernel[0]"
        assert all(k.flops == node.kernel_flops for k in kernels)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gpu_count", 0),
            ("kernel_count", 0),
            ("kernel_flops", -1.0),
            ("kernel_bytes", -1.0),
            ("input_bytes", -1.0),
            ("output_bytes", -1.0),
            ("link_bw_bytes", 0.0),
            ("link_uncore_sensitivity", 1.5),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        node = dataclasses.replace(GPUNodeConfig(), **{field: value})
        with pytest.raises(ConfigurationError):
            node.validate()

    def test_workless_kernels_rejected(self):
        node = dataclasses.replace(
            GPUNodeConfig(), kernel_flops=0.0, kernel_bytes=0.0
        )
        with pytest.raises(ConfigurationError):
            node.validate()

    def test_link_bandwidth_rides_the_uncore(self):
        node = GPUNodeConfig(link_bw_bytes=16e9, link_uncore_sensitivity=0.6)
        assert node.link_bw_at(1.0) == pytest.approx(16e9)
        assert node.link_bw_at(0.0) == pytest.approx(16e9 * 0.4)
        assert node.link_bw_at(0.5) == pytest.approx(16e9 * 0.7)
        # Out-of-range fractions clamp instead of extrapolating.
        assert node.link_bw_at(2.0) == pytest.approx(16e9)
        insensitive = GPUNodeConfig(link_uncore_sensitivity=0.0)
        assert insensitive.link_bw_at(0.1) == insensitive.link_bw_bytes


class TestSplitPolicies:
    """Registry resolution and labels of the device-scope splits; their
    allocation properties live in ``test_properties_allocator.py``."""

    def test_registry_resolves_hetero_policies_only(self):
        policy = split_policy("hetero-coord", scope="device")
        assert isinstance(policy, DemandSplit)
        assert policy.budget_w == 300.0
        parsed = parse_policy("hetero-fair:budget_w=250")
        assert isinstance(split_policy(parsed, scope="device"), FairShareSplit)
        assert split_policy(parsed, scope="device").budget_w == 250.0
        with pytest.raises(PolicyError):
            # A per-socket controller, not a split.
            split_policy("duf", scope="device")
        with pytest.raises(PolicyError):
            split_policy("hetero-coord", scope="socket")

    def test_labels_and_catalog_tag(self):
        assert make_spec("hetero-static", budget_w=280).label == "hetero-static-280W"
        text = describe_policies()
        assert "(hetero split)" in text
        assert "hetero-coord" in text


#: Digests of representative CPU-only specs frozen before the GPU
#: field existed.  ``digest_omit_default`` must keep them stable for
#: every spec that does not opt into hetero execution.
FROZEN_DIGESTS = {
    "plain_dufp": (
        dict(
            app_name="CG",
            controller="dufp",
            runs=3,
            base_seed=cell_seed("CG", "dufp", 10.0),
        ),
        "476e93f671689bf3a586f95f99908f8887834d8acbc9a46a4522d092594d8f44",
    ),
    "static_param": (
        dict(app_name="EP", controller="static:cap_w=90", runs=2),
        "485d614b5b221d583c56f2f82e4a82b144b4ede5f80b2f172decb092bcf96876",
    ),
    "faulted": (
        dict(
            app_name="EP",
            controller="duf",
            runs=2,
            faults=FaultPlan(msr_read_fail_rate=0.01, cap_latch_fail_rate=0.05),
        ),
        "6dd1d80f1e3e8ed720386cc62555fb7856639e951594b1220f38b291290cbd98",
    ),
    "noise_scaled": (
        dict(
            app_name="MG",
            controller="budget:watts=95",
            runs=4,
            app_scale=0.3,
            noise=NoiseConfig(
                duration_jitter=0.002, counter_noise=0.001, power_noise=0.001
            ),
        ),
        "20830abe6e56ed20c31691aced00cbfaadd6c960d16d224324507ed58741c17b",
    ),
}

#: One cell per budget-split policy, frozen before the allocators were
#: merged: the param classes' names, fields and defaults are part of
#: every such cell's cache address and must never move.
_HETERO_CELL = dict(
    app_name="CG", runs=2, gpu=GPUNodeConfig(gpu_count=2, kernel_count=8)
)
_FLEET_CELL = dict(
    app_name="CG",
    runs=2,
    cluster=ClusterSpec(node_count=4, node_apps=("WEB", "BATCH", "CG", "EP")),
)
FROZEN_DIGESTS.update(
    {
        "hetero_static": (
            dict(
                _HETERO_CELL,
                controller="hetero-static:budget_w=450,cpu_fraction=0.4",
            ),
            "2ca45bfa4b00f01318a5fb58d77d42d7f1ba60a57a35d207d3e6b6f4eebab558",
        ),
        "hetero_coord": (
            dict(_HETERO_CELL, controller="hetero-coord:budget_w=450"),
            "6efc73343292d2683a351612b86f7e5272da61d426af9122d57a0d19378c78b1",
        ),
        "hetero_fair": (
            dict(_HETERO_CELL, controller="hetero-fair"),
            "1662a1c2fdefe7fa2c6f76b5e740f0a41360ca60734d78b7d98af6c69a29343a",
        ),
        "fleet_static": (
            dict(_FLEET_CELL, controller="fleet-static:budget_w=360"),
            "4585b3074eab48a4743c5f7b7db746f87dfb92f3d46c59b51b150bea40807a22",
        ),
        "fleet_demand": (
            dict(_FLEET_CELL, controller="fleet-demand:budget_w=360"),
            "f795e755d7a86435675c6aef7598e0125d90eced150796900ef5dc00f4221f3f",
        ),
        "fleet_fair": (
            dict(_FLEET_CELL, controller="fleet-fair"),
            "287e18945459222e8bc69a174f4de3cd7ee968b6e486b3f88931d5a605dd4cd5",
        ),
    }
)


class TestSpecDigests:
    @pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
    def test_cpu_only_digests_unchanged(self, name):
        """Every frozen digest, the budget-split cells' included."""
        kwargs, digest = FROZEN_DIGESTS[name]
        assert spec_key(RunSpec(**kwargs)) == digest

    def test_gpu_field_addresses_the_cache(self):
        spec = RunSpec(
            app_name="CG", controller="hetero-coord", runs=2, gpu=SMALL_NODE
        )
        other = dataclasses.replace(
            spec, gpu=dataclasses.replace(SMALL_NODE, gpu_count=2)
        )
        assert spec_key(spec) != spec_key(other)

    def test_batch_engine_normalises_to_scalar_for_hetero(self):
        spec = RunSpec(
            app_name="CG",
            controller="hetero-coord",
            runs=2,
            gpu=SMALL_NODE,
            engine="batch",
        )
        assert spec.engine == "scalar"

    def test_validation_pairs_gpu_with_hetero_controllers(self):
        with pytest.raises(ExperimentError):
            RunSpec(app_name="CG", controller="duf", gpu=SMALL_NODE).validate()
        with pytest.raises(ExperimentError):
            RunSpec(app_name="CG", controller="hetero-coord").validate()
        with pytest.raises(ExperimentError):
            RunSpec(
                app_name="CG",
                controller="hetero-coord",
                gpu=SMALL_NODE,
                socket_count=2,
            ).validate()

    def test_hetero_ticks_weight_the_gpu_side(self):
        cpu_only = RunSpec(app_name="CG", controller="duf", runs=2, app_scale=0.2)
        hetero = RunSpec(
            app_name="CG",
            controller="hetero-coord",
            runs=2,
            app_scale=0.2,
            gpu=GPUNodeConfig(kernel_count=64),
        )
        assert estimate_spec_ticks(hetero) > estimate_spec_ticks(cpu_only)
        assert estimate_spec_ticks(
            dataclasses.replace(hetero, runs=4)
        ) == pytest.approx(2 * estimate_spec_ticks(hetero))


def result_signature(result):
    return (
        result.cpu_finish_s,
        result.gpu_finish_times_s,
        result.cpu_energy_j,
        result.gpu_energies_j,
        result.transfer_s,
        tuple(result.device_allocations),
        tuple((e.time_s, e.socket_id, e.channel) for e in result.fault_events),
    )


class TestHeteroEngine:
    def test_same_seed_identical_result(self):
        a = small_engine(seed=17).run()
        b = small_engine(seed=17).run()
        assert result_signature(a) == result_signature(b)

    def test_seed_moves_the_outcome(self):
        a = small_engine(seed=17).run()
        b = small_engine(seed=18).run()
        assert result_signature(a) != result_signature(b)

    def test_budget_conserved_every_reallocation(self):
        result = small_engine().run()
        floors = [ControllerConfig().cap_floor_w, 100.0]
        assert len(result.device_allocations) > 1
        for _, allocs in result.device_allocations:
            assert sum(allocs) <= 300.0 + 1e-6
            for a, lo in zip(allocs, floors):
                assert a >= lo - 1e-9

    def test_multi_gpu_round_robin(self):
        node = dataclasses.replace(SMALL_NODE, gpu_count=2, kernel_count=5)
        result = small_engine(
            node=node, policy=coord(500.0)
        ).run()
        assert len(result.gpu_finish_times_s) == 2
        assert len(result.gpu_energies_j) == 2
        assert result.gpu_energy_j == pytest.approx(sum(result.gpu_energies_j))
        assert result.gpu_finish_s == max(result.gpu_finish_times_s)
        # 3 vs 2 kernels: the busier device finishes no earlier.
        assert result.gpu_finish_times_s[0] >= result.gpu_finish_times_s[1]
        for _, allocs in result.device_allocations:
            assert len(allocs) == 3

    def test_transfers_slow_down_with_a_weak_link(self):
        fast = small_engine(
            node=dataclasses.replace(SMALL_NODE, link_bw_bytes=32e9)
        ).run()
        slow = small_engine(
            node=dataclasses.replace(SMALL_NODE, link_bw_bytes=2e9)
        ).run()
        assert slow.transfer_s > fast.transfer_s
        assert fast.transfer_s > 0.0

    def test_uncore_sensitivity_couples_into_transfer_time(self):
        heavy_io = dataclasses.replace(
            SMALL_NODE, input_bytes=8e9, output_bytes=4e9
        )
        insensitive = small_engine(
            node=dataclasses.replace(heavy_io, link_uncore_sensitivity=0.0)
        ).run()
        sensitive = small_engine(
            node=dataclasses.replace(heavy_io, link_uncore_sensitivity=0.95)
        ).run()
        # The uncore governor sits below its ceiling for stretches of
        # the run, so a sensitivity-coupled link moves strictly less
        # data per tick than an insensitive one.
        assert sensitive.transfer_s > insensitive.transfer_s

    def test_gpu_queue_stalls_delay_the_queue_and_log_events(self):
        clean = small_engine().run()
        stalled = small_engine(
            faults=FaultPlan(gpu_queue_stall_rate=0.9, gpu_stall_s=0.5)
        ).run()
        assert stalled.gpu_finish_s > clean.gpu_finish_s
        channels = {e.channel for e in stalled.fault_events}
        assert "gpu_stall" in channels
        assert all(
            e.socket_id >= 1
            for e in stalled.fault_events
            if e.channel == "gpu_stall"
        )

    def test_gpu_latch_faults_pin_the_initial_limit(self):
        latched = small_engine(
            faults=FaultPlan(gpu_cap_latch_fail_rate=1.0)
        ).run()
        assert any(
            e.channel == "gpu_cap_latch_fail" for e in latched.fault_events
        )

    def test_infeasible_budget_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            small_engine(policy=coord(100.0))

    def test_trace_sink_sees_every_device(self):
        sink = InMemoryTraceSink()
        result = small_engine(
            node=dataclasses.replace(SMALL_NODE, gpu_count=2),
            policy=coord(500.0),
            trace_sink=sink,
        ).run()
        ticks = round(result.makespan_s / 0.01)
        counts = {len(sink.collected(socket_id)) for socket_id in (0, 1, 2)}
        assert len(counts) == 1  # every device sampled every tick
        assert abs(counts.pop() - ticks) <= 1
        gpu_trace = sink.collected(1)
        assert any(s.bytes_rate > 0 for s in gpu_trace)  # transfers visible
        assert all(100.0 <= s.cap_w <= 250.0 for s in gpu_trace)
        cpu_trace = sink.collected(0)
        assert all(s.uncore_freq_hz > 0 for s in cpu_trace)


class TestHeteroProtocolAndSpec:
    def test_protocol_metric_mapping(self):
        proto = run_protocol(
            build_application("CG", scale=0.15),
            make_spec("hetero-coord", budget_w=300),
            gpu=SMALL_NODE,
            runs=3,
            noise=NoiseConfig(),
        )
        assert len(proto.times_s) == 3
        for t, pkg, dram, total in zip(
            proto.times_s,
            proto.package_power_w,
            proto.dram_power_w,
            proto.total_energy_j,
        ):
            assert t > 0
            # CPU energy maps to package, GPU energy to dram rails.
            assert (pkg + dram) * t == pytest.approx(total)
        assert proto.last_run is None

    def test_batch_engine_rejects_hetero_cells(self):
        with pytest.raises(ExperimentError, match="CPU-only"):
            run_protocol(
                build_application("CG", scale=0.15),
                make_spec("hetero-coord", budget_w=300),
                gpu=SMALL_NODE,
                runs=1,
                engine="batch",
            )

    def test_spec_time_limit_bounds_hetero_cells(self):
        spec = RunSpec(
            app_name="CG",
            controller=make_spec("hetero-coord", budget_w=300),
            runs=1,
            app_scale=0.15,
            engine_cfg=EngineConfig(max_sim_time_s=0.5),
            gpu=SMALL_NODE,
        )
        with pytest.raises(SimulationError, match="time limit"):
            execute_spec(spec)

    def test_execute_spec_routes_hetero_cells(self):
        spec = RunSpec(
            app_name="CG",
            controller=make_spec("hetero-coord", budget_w=300),
            runs=2,
            app_scale=0.15,
            gpu=SMALL_NODE,
        )
        proto = execute_spec(spec)
        assert len(proto.times_s) == 2
        assert proto.controller_name == "hetero-coord-300W"

    def test_runs_are_independent_and_seeded(self):
        spec = RunSpec(
            app_name="CG",
            controller=make_spec("hetero-coord", budget_w=300),
            runs=2,
            app_scale=0.15,
            gpu=SMALL_NODE,
        )
        again = execute_spec(spec)
        assert execute_spec(spec).times_s == again.times_s
        assert len(set(again.times_s)) == 2  # per-run seeds differ
