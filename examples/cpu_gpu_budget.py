"""CPU + GPU under one power budget — the paper's closing question.

Section VII: "With a specified shared power budget to distribute over a
CPU and a GPU, can we benefit from dynamic power capping to reduce the
budget of the CPU when it does not need it and increase the GPU power
budget?"

This example runs memory-bound CG on the CPU socket next to a node of
compute-heavy GPU kernels, under one budget, and compares a naive
50/50 split against the tolerance-aware coordinator — through the same
``RunSpec`` machinery that drives sweeps, shards and the result cache.

Usage::

    python examples/cpu_gpu_budget.py [budget_watts]
"""

import sys

from repro import ControllerConfig, build_application
from repro.config import NoiseConfig
from repro.core.registry import make_spec, split_policy
from repro.experiments.executor import RunSpec, cell_seed, execute_spec, spec_key
from repro.hardware.gpu import GPUNodeConfig
from repro.sim.hetero import HeteroEngine


def main() -> None:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 300.0
    app = build_application("CG", scale=0.5)
    node = GPUNodeConfig(kernel_count=8, kernel_flops=6e12, kernel_bytes=6e12 / 8.0)
    cfg = ControllerConfig(tolerated_slowdown=0.10)

    print(
        f"Shared budget {budget:.0f} W for one CPU socket (CG, memory-bound)\n"
        f"and one GPU (DGEMM-like kernels, compute-hungry).\n"
    )

    # Engine-level view: one deterministic co-sim per policy, with the
    # split policy resolved through the registry like any controller.
    policies = {
        "static 50/50": make_spec("hetero-static", budget_w=budget),
        "coordinated": make_spec("hetero-coord", budget_w=budget),
    }
    for label, policy in policies.items():
        result = HeteroEngine(
            application=app,
            node=node,
            policy=split_policy(policy, cfg, scope="device"),
            cfg=cfg,
        ).run()
        _, cpu_w, gpu_w = result.allocations[-1]
        print(
            f"  {label:13s} CPU {result.cpu_finish_s:5.1f}s   "
            f"GPU {result.gpu_finish_s:5.1f}s   "
            f"split {cpu_w:.0f}/{gpu_w:.0f} W   "
            f"transfers {result.transfer_s:.1f}s"
        )

    # Spec-level view: the same cell as a RunSpec — content-addressed,
    # cacheable, shardable, and runnable inside `repro sweep --gpus 1`.
    spec = RunSpec(
        app_name="CG",
        controller=policies["coordinated"],
        controller_cfg=cfg,
        runs=3,
        base_seed=cell_seed("CG", policies["coordinated"].label),
        app_scale=0.5,
        noise=NoiseConfig(),
        gpu=node,
    )
    proto = execute_spec(spec)
    print(
        f"\nAs a sweep cell [{spec_key(spec)[:12]}]: "
        f"{spec.runs} runs, mean makespan {proto.mean_time_s:.1f} s, "
        f"CPU {proto.mean_package_power_w:.0f} W / GPU {proto.mean_dram_power_w:.0f} W"
    )

    print(
        "\nThe coordinator drains watts from the cap-tolerant CPU into the\n"
        "GPU's power limit until both sit near the tolerated slowdown —\n"
        "dynamic power capping as the paper's future work imagines it."
    )


if __name__ == "__main__":
    main()
