"""GPU model and CPU+GPU shared-budget co-simulation."""

import pytest

from repro.config import ControllerConfig
from repro.core.registry import make_spec, split_policy
from repro.errors import ConfigurationError, HardwareError, SimulationError
from repro.hardware.gpu import GPUConfig, GPUKernel, SimulatedGPU
from repro.sim.hetero import HeteroEngine
from repro.workloads.catalog import build_application


def split(policy, budget_w=300.0):
    """The registry's device-scope split ``policy`` at ``budget_w``."""
    return split_policy(make_spec(policy, budget_w=budget_w), scope="device")


def balanced_kernels(n=8, flops_each=6e12):
    """DGEMM-ish kernels at ~0.5 compute utilisation (192 W at speed)."""
    return [
        GPUKernel(f"k[{i}]", flops=flops_each, bytes=flops_each / 8.0)
        for i in range(n)
    ]


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
        kernels = balanced_kernels()
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        static = HeteroEngine(
            application=app,
            policy=split("hetero-static"),
            kernels=kernels,
            cfg=cfg,
        ).run()
        coordinated = HeteroEngine(
            application=app,
            policy=split("hetero-coord"),
            kernels=kernels,
            cfg=cfg,
        ).run()
        return static, coordinated

    def test_budget_always_respected(self, scenario):
        _, coordinated = scenario
        for _, cpu_w, gpu_w in coordinated.allocations:
            assert cpu_w + gpu_w <= 300.0 + 1e-6

    def test_coordination_moves_watts_to_the_gpu(self, scenario):
        static, coordinated = scenario
        final_static = static.allocations[-1]
        final_coord = coordinated.allocations[-1]
        assert final_coord[2] > final_static[2]

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
                kernels=balanced_kernels(2),
            )

    def test_empty_kernel_queue_rejected(self):
        with pytest.raises(SimulationError):
            HeteroEngine(
                application=build_application("CG", scale=0.2),
                policy=split("hetero-coord"),
                kernels=[],
            )


class TestHeteroDetails:
    def test_static_mode_allocates_once(self):
        from repro.config import ControllerConfig

        result = HeteroEngine(
            application=build_application("EP", scale=0.1),
            policy=split("hetero-static"),
            kernels=balanced_kernels(2, flops_each=2e12),
            cfg=ControllerConfig(tolerated_slowdown=0.10),
        ).run()
        assert len(result.allocations) == 1

    def test_result_accessors(self):
        from repro.config import ControllerConfig

        result = HeteroEngine(
            application=build_application("EP", scale=0.1),
            policy=split("hetero-coord"),
            kernels=balanced_kernels(2, flops_each=2e12),
            cfg=ControllerConfig(tolerated_slowdown=0.10),
        ).run()
        assert result.makespan_s == max(result.cpu_finish_s, result.gpu_finish_s)
        assert result.total_energy_j == pytest.approx(
            result.cpu_energy_j + result.gpu_energy_j
        )
        assert result.cpu_energy_j > 0 and result.gpu_energy_j > 0
