"""GPU model and CPU+GPU shared-budget co-simulation."""

from dataclasses import fields

import pytest

from repro.config import ControllerConfig
from repro.core.registry import make_spec, split_policy
from repro.errors import ConfigurationError, HardwareError, SimulationError
from repro.hardware.gpu import GPUConfig, GPUKernel, GPUNodeConfig, SimulatedGPU
from repro.sim.hetero import HeteroEngine
from repro.workloads.catalog import build_application


def split(policy, budget_w=300.0):
    """The registry's device-scope split ``policy`` at ``budget_w``."""
    return split_policy(make_spec(policy, budget_w=budget_w), scope="device")


def balanced_node(n=8, flops_each=6e12):
    """One GPU draining DGEMM-ish kernels at ~0.5 compute utilisation
    (192 W at speed), with no modelled transfers."""
    return GPUNodeConfig(
        gpu_count=1,
        kernel_count=n,
        kernel_flops=flops_each,
        kernel_bytes=flops_each / 8,
        input_bytes=0.0,
        output_bytes=0.0,
    )


class TestGPUConfig:
    def test_default_valid(self):
        GPUConfig().validate()

    def test_bad_clock_range(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(min_freq_hz=2e9, max_freq_hz=1e9).validate()

    def test_kernel_validation(self):
        with pytest.raises(ConfigurationError):
            GPUKernel("k", flops=0.0, bytes=0.0)
        with pytest.raises(ConfigurationError):
            GPUKernel("k", flops=-1.0, bytes=1.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteInputs:
    """NaN and ±inf pass every ordering check, so each is rejected by name."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["flops", "bytes"])
    def test_kernel(self, name, value):
        work = {"flops": 1e12, "bytes": 1e11, name: value}
        with pytest.raises(ConfigurationError, match=name):
            GPUKernel("k", **work)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", [f.name for f in fields(GPUConfig)])
    def test_config(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            GPUConfig(**{name: value}).validate()

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "name",
        [
            "kernel_flops",
            "kernel_bytes",
            "input_bytes",
            "output_bytes",
            "link_bw_bytes",
            "link_uncore_sensitivity",
        ],
    )
    def test_node_config(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            GPUNodeConfig(**{name: value}).validate()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_device_power_limit(self, value):
        with pytest.raises(HardwareError):
            SimulatedGPU(power_limit_w=value)

    def test_nan_node_fails_at_construction_not_at_the_time_limit(self):
        with pytest.raises(ConfigurationError, match="kernel_flops"):
            HeteroEngine(
                application=build_application("CG", scale=0.1),
                policy=split("hetero-coord", budget_w=450.0),
                node=GPUNodeConfig(kernel_flops=float("nan")),
            )


class TestGPUDevice:
    def test_power_limit_controls(self):
        gpu = SimulatedGPU()
        gpu.set_power_limit(150.0)
        assert gpu.power_limit_w == 150.0
        gpu.reset_power_limit()
        assert gpu.power_limit_w == 250.0

    def test_power_limit_bounds(self):
        gpu = SimulatedGPU()
        with pytest.raises(HardwareError):
            gpu.set_power_limit(50.0)

    def test_full_speed_under_default_limit(self):
        gpu = SimulatedGPU()
        kernel = GPUKernel("k", flops=1e12, bytes=1e12 / 8)
        gpu.step(0.01, kernel)
        assert gpu.state.freq_hz == pytest.approx(1.38e9, rel=0.02)

    def test_uncapped_memory_bound_kernel_runs_at_max_clock(self):
        # Util 0 fits any clock under the default limit; the 15 MHz grid
        # from 0.8 GHz overshoots 1.38 GHz unless clamped.
        gpu = SimulatedGPU()
        gpu.step(0.01, GPUKernel("k", flops=0.0, bytes=9e11))
        assert gpu.state.utilisation == 0.0
        assert gpu.state.freq_hz == gpu.config.max_freq_hz

    def test_limit_throttles_clock(self):
        gpu = SimulatedGPU()
        kernel = GPUKernel("k", flops=1e13, bytes=1e10)  # compute-hungry
        gpu.step(0.01, kernel)
        fast = gpu.state.freq_hz
        gpu.set_power_limit(150.0)
        gpu.step(0.01, kernel)
        assert gpu.state.freq_hz < fast

    def test_power_respects_limit(self):
        gpu = SimulatedGPU()
        gpu.set_power_limit(150.0)
        gpu.step(0.01, GPUKernel("k", flops=1e13, bytes=1e10))
        assert gpu.state.power_w <= 150.0 + 1e-9

    def test_energy_integrates(self):
        gpu = SimulatedGPU()
        kernel = GPUKernel("k", flops=1e12, bytes=1e11)
        for _ in range(100):
            gpu.step(0.01, kernel)
        assert gpu.energy_j == pytest.approx(gpu.state.power_w * 1.0, rel=0.05)

    def test_memory_bound_kernel_insensitive_to_limit(self):
        gpu = SimulatedGPU()
        kernel = GPUKernel("k", flops=1e10, bytes=9e11)  # HBM-bound
        t_full = gpu.kernel_time(kernel, 1.38e9)
        t_slow = gpu.kernel_time(kernel, 0.8e9)
        assert t_slow == pytest.approx(t_full, rel=0.05)

    def test_idle_draws_static_ish_power(self):
        gpu = SimulatedGPU()
        gpu.step(0.01, None)
        assert gpu.state.power_w < 100.0

    def test_state_before_step_raises(self):
        with pytest.raises(SimulationError):
            _ = SimulatedGPU().state


class TestHeteroEngine:
    @pytest.fixture(scope="class")
    def scenario(self):
        """Feasible budget: CG needs ~100 W, the GPU ~192 W; 300 W total."""
        app = build_application("CG", scale=0.5)
        node = balanced_node()
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        static = HeteroEngine(
            application=app,
            policy=split("hetero-static"),
            node=node,
            cfg=cfg,
        ).run()
        coordinated = HeteroEngine(
            application=app,
            policy=split("hetero-coord"),
            node=node,
            cfg=cfg,
        ).run()
        return static, coordinated

    def test_budget_always_respected(self, scenario):
        _, coordinated = scenario
        for _, allocs in coordinated.device_allocations:
            assert sum(allocs) <= 300.0 + 1e-6

    def test_coordination_moves_watts_to_the_gpu(self, scenario):
        static, coordinated = scenario
        _, final_static = static.device_allocations[-1]
        _, final_coord = coordinated.device_allocations[-1]
        assert sum(final_coord[1:]) > sum(final_static[1:])

    def test_gpu_faster_when_coordinated(self, scenario):
        static, coordinated = scenario
        assert coordinated.gpu_finish_s < static.gpu_finish_s

    def test_coordination_balances_slowdowns(self, scenario):
        # The coordinator's objective is the paper's: meet both
        # devices' needs.  The worst relative slowdown across the two
        # devices must improve over the naive equal split (which
        # starves the GPU while the CPU idles below its tolerance).
        static, coordinated = scenario
        app = build_application("CG", scale=0.5)
        cpu_nominal = app.nominal_duration()
        gpu_nominal = 8.0 * 1.0  # eight ~1 s kernels at full speed

        def worst(result):
            return max(
                result.cpu_finish_s / cpu_nominal,
                result.gpu_finish_s / gpu_nominal,
            )

        assert worst(coordinated) < worst(static)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(SimulationError):
            HeteroEngine(
                application=build_application("CG", scale=0.2),
                policy=split("hetero-coord", budget_w=100.0),
                node=balanced_node(2),
            )

    def test_empty_kernel_queue_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel queue"):
            HeteroEngine(
                application=build_application("CG", scale=0.2),
                policy=split("hetero-coord"),
                node=balanced_node(0),
            )


class TestHeteroDetails:
    def test_static_mode_allocates_once(self):
        from repro.config import ControllerConfig

        result = HeteroEngine(
            application=build_application("EP", scale=0.1),
            policy=split("hetero-static"),
            node=balanced_node(2, flops_each=2e12),
            cfg=ControllerConfig(tolerated_slowdown=0.10),
        ).run()
        assert len(result.device_allocations) == 1

    def test_result_accessors(self):
        from repro.config import ControllerConfig

        result = HeteroEngine(
            application=build_application("EP", scale=0.1),
            policy=split("hetero-coord"),
            node=balanced_node(2, flops_each=2e12),
            cfg=ControllerConfig(tolerated_slowdown=0.10),
        ).run()
        assert result.makespan_s == max(result.cpu_finish_s, result.gpu_finish_s)
        assert result.total_energy_j == pytest.approx(
            result.cpu_energy_j + result.gpu_energy_j
        )
        assert result.cpu_energy_j > 0 and result.gpu_energy_j > 0
