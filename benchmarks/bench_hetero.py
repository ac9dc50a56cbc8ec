"""Extension bench: CPU + GPU shared power budget (paper §VII future work).

Shape claim: under a shared budget, the tolerance-aware coordinator
drains watts from the cap-tolerant (memory-bound) CPU into the GPU's
power limit, reducing the worst relative slowdown across the two
devices compared to a naive 50/50 split.
"""

from repro.config import ControllerConfig
from repro.core.registry import make_spec, split_policy
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.hetero import HeteroEngine
from repro.workloads.catalog import build_application

from conftest import assert_shape

BUDGET_W = 300.0


def _scenario():
    app = build_application("CG", scale=0.5)
    node = GPUNodeConfig(
        gpu_count=1,
        kernel_count=8,
        kernel_flops=6e12,
        kernel_bytes=6e12 / 8,
        input_bytes=0.0,
        output_bytes=0.0,
    )
    cfg = ControllerConfig(tolerated_slowdown=0.10)

    def run(policy):
        return HeteroEngine(
            application=app,
            policy=split_policy(
                make_spec(policy, budget_w=BUDGET_W), cfg, scope="device"
            ),
            node=node,
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

    def final_split(r):
        _, alloc = r.device_allocations[-1]
        return alloc[0], sum(alloc[1:])

    cpu_w, gpu_w = final_split(coordinated)

    print(
        f"\nstatic 50/50: CPU {static.cpu_finish_s:.1f} s, GPU "
        f"{static.gpu_finish_s:.1f} s; coordinated: CPU "
        f"{coordinated.cpu_finish_s:.1f} s, GPU {coordinated.gpu_finish_s:.1f} s; "
        f"final split {cpu_w:.0f}/{gpu_w:.0f} W"
    )
    assert_shape(
        gpu_w > final_split(static)[1],
        "watts flow from the CPU cap to the GPU limit",
    )
    assert_shape(
        worst(coordinated) < worst(static),
        "coordination reduces the worst relative slowdown",
    )
    for _, alloc in coordinated.device_allocations:
        assert_shape(sum(alloc) <= BUDGET_W + 1e-6, "budget respected")
