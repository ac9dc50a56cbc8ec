"""Extension bench: CPU + GPU shared power budget (paper §VII future work).

Shape claim: under a shared budget, the tolerance-aware coordinator
drains watts from the cap-tolerant (memory-bound) CPU into the GPU's
power limit, reducing the worst relative slowdown across the two
devices compared to a naive 50/50 split.
"""

from repro.config import ControllerConfig
from repro.core.registry import make_spec, split_policy
from repro.hardware.gpu import GPUKernel
from repro.sim.hetero import HeteroEngine
from repro.workloads.catalog import build_application

from conftest import assert_shape

BUDGET_W = 300.0


def _scenario():
    app = build_application("CG", scale=0.5)
    kernels = [
        GPUKernel(f"dgemm[{i}]", flops=6e12, bytes=6e12 / 8.0) for i in range(8)
    ]
    cfg = ControllerConfig(tolerated_slowdown=0.10)

    def run(policy):
        return HeteroEngine(
            application=app,
            policy=split_policy(
                make_spec(policy, budget_w=BUDGET_W), cfg, scope="device"
            ),
            kernels=kernels,
            cfg=cfg,
        ).run()

    return app.nominal_duration(), run("hetero-static"), run("hetero-coord")


def test_cpu_gpu_budget_sharing(benchmark):
    cpu_nominal, static, coordinated = benchmark.pedantic(
        _scenario, rounds=1, iterations=1
    )
    gpu_nominal = 8.0

    def worst(r):
        return max(r.cpu_finish_s / cpu_nominal, r.gpu_finish_s / gpu_nominal)

    print(
        f"\nstatic 50/50: CPU {static.cpu_finish_s:.1f} s, GPU "
        f"{static.gpu_finish_s:.1f} s; coordinated: CPU "
        f"{coordinated.cpu_finish_s:.1f} s, GPU {coordinated.gpu_finish_s:.1f} s; "
        f"final split {coordinated.allocations[-1][1]:.0f}/"
        f"{coordinated.allocations[-1][2]:.0f} W"
    )
    assert_shape(
        coordinated.allocations[-1][2] > static.allocations[-1][2],
        "watts flow from the CPU cap to the GPU limit",
    )
    assert_shape(
        worst(coordinated) < worst(static),
        "coordination reduces the worst relative slowdown",
    )
    for _, cpu_w, gpu_w in coordinated.allocations:
        assert_shape(cpu_w + gpu_w <= BUDGET_W + 1e-6, "budget respected")
