"""Regenerate the golden fault-injection trace under tests/data/.

The golden trace pins the *exact* byte content of a fault-injected
DUFP run: sample encoding, event encoding, fault draw order and the
injector's RNG stream.  Any intentional change to one of those layers
must regenerate the file (and justify the diff in review):

    PYTHONPATH=src python scripts/regen_golden_trace.py

``tests/test_golden_trace.py`` byte-compares a fresh run against the
committed file.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import ControllerConfig, NoiseConfig
from repro.core.dufp import DUFP
from repro.sim.export import write_trace_jsonl
from repro.sim.faults import FaultPlan
from repro.sim.run import run_application
from repro.workloads.catalog import build_application

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"

#: The pinned scenario; tests/test_golden_trace.py mirrors these.
SEED = 20220530  # the paper's IPDPSW date
PLAN = FaultPlan(
    msr_read_fail_rate=0.05,
    counter_stuck_rate=0.02,
    power_dropout_rate=0.03,
    cap_latch_fail_rate=0.10,
    latch_delay_rate=0.10,
    tick_miss_rate=0.02,
    tick_jitter_rate=0.05,
)
CFG = ControllerConfig(tolerated_slowdown=0.10)
QUIET = NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0)


def golden_run():
    """The run whose trace is pinned (shared with the test module)."""
    return run_application(
        build_application("CG", scale=0.3),
        lambda: DUFP(CFG),
        controller_cfg=CFG,
        noise=QUIET,
        seed=SEED,
        faults=PLAN,
    )


#: The powersave-governor scenario: an EPP-hinted socket with the
#: C-state model on, running CG with idle gaps, under a fault plan
#: that exercises the C-state rollover channel.  Pins the governor's
#: PERF_CTL actuation, the EPP-biased operating point, the C-state
#: power path and the new event encodings in one trace.
POWERSAVE_SEED = 20220530
POWERSAVE_PLAN = FaultPlan(cstate_rollover_rate=0.05)


def _powersave_socket():
    from dataclasses import replace

    from repro.config import CStateConfig, EPBConfig, SocketConfig

    return replace(
        SocketConfig(), epb=EPBConfig(epp=192), cstates=CStateConfig()
    )


def _powersave_application():
    """CG at 0.3 scale with 20 % idle gaps in its memory phases."""
    from dataclasses import replace as dc_replace

    app = build_application("CG", scale=0.3)
    phases = tuple(
        dc_replace(p, idleness=0.2) if p.bytes > p.flops else p
        for p in app.phases
    )
    return type(app)(name="CG-idle", phases=phases, structure=app.structure)


def golden_powersave_run():
    """The powersave-governor run whose trace is pinned."""
    from repro.core.registry import make_spec
    from repro.hardware.topology import MachineConfig
    from repro.sim.machine import SimulatedMachine

    socket = _powersave_socket()
    return run_application(
        _powersave_application(),
        make_spec("governor-powersave").build(CFG),
        controller_cfg=CFG,
        machine=SimulatedMachine(MachineConfig(socket=socket, socket_count=1)),
        noise=QUIET,
        seed=POWERSAVE_SEED,
        faults=POWERSAVE_PLAN,
    )


#: The cluster scenario: two nodes (latency-sensitive WEB + streaming
#: BATCH) under a demand-driven fleet partition of a 150 W global
#: budget that genuinely caps (ceilings sum to 250 W), with a fault
#: plan exercising the per-node event id-shifting.  Pins the fleet
#: loop's allocation cadence, the node seed stride, the shared-sink
#: global socket ids and the streamed sample/event encodings at once.
CLUSTER_SEED = 20220530
CLUSTER_BUDGET_W = 150.0
CLUSTER_PLAN = FaultPlan(msr_read_fail_rate=0.05, cap_latch_fail_rate=0.10)


def golden_cluster_run(sink=None):
    """The cluster run whose streamed trace is pinned."""
    from repro.cluster import ClusterEngine, ClusterSpec
    from repro.core.registry import make_spec, split_policy

    cluster = ClusterSpec(
        node_count=2, node_apps=("WEB", "BATCH"), period_s=0.5
    )
    apps = [
        build_application(cluster.app_for(i, "WEB"), scale=0.3)
        for i in range(cluster.node_count)
    ]
    return ClusterEngine(
        applications=apps,
        cluster=cluster,
        policy=split_policy(
            make_spec("fleet-demand", budget_w=CLUSTER_BUDGET_W), CFG, scope="node"
        ),
        controller_cfg=CFG,
        noise=QUIET,
        seed=CLUSTER_SEED,
        trace_sink=sink,
        faults=CLUSTER_PLAN,
    ).run()


#: The hetero scenario: one CPU socket plus two GPUs draining a
#: six-kernel queue under a coordinated demand/offer split of a 450 W
#: node budget (floors sum to 265 W, ceilings to 625 W, so the split
#: genuinely arbitrates), with seeded run-to-run noise and a fault
#: plan arming the GPU latch/stall channels next to the CPU RAPL latch
#: (drawn once per re-split, hence its high rate over a ~5 s run).
#: Pins the split cadence, the per-device trace socket ids, the jitter
#: stream and the GPU fault draw order at once.
HETERO_SEED = 20220530
HETERO_BUDGET_W = 450.0
HETERO_PLAN = FaultPlan(
    cap_latch_fail_rate=0.6,
    gpu_cap_latch_fail_rate=0.20,
    gpu_queue_stall_rate=0.25,
    gpu_stall_s=0.2,
)


def golden_hetero_run(sink=None):
    """The hetero run whose streamed trace is pinned."""
    from repro.core.registry import make_spec, split_policy
    from repro.hardware.gpu import GPUNodeConfig
    from repro.sim.hetero import HeteroEngine

    return HeteroEngine(
        application=build_application("CG", scale=0.15),
        node=GPUNodeConfig(gpu_count=2, kernel_count=6),
        policy=split_policy(
            make_spec("hetero-coord", budget_w=HETERO_BUDGET_W), CFG, scope="device"
        ),
        cfg=CFG,
        seed=HETERO_SEED,
        noise=NoiseConfig(),
        faults=HETERO_PLAN,
        trace_sink=sink,
    ).run()


def main() -> None:
    from repro.sim.trace import StreamingTraceSink

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fname, run in (
        ("golden_dufp_trace.jsonl", golden_run),
        ("golden_powersave_trace.jsonl", golden_powersave_run),
    ):
        path = GOLDEN / fname
        result = run()
        lines = write_trace_jsonl(result, str(path))
        events = sum(1 for e in result.fault_events)
        print(f"wrote {lines} lines ({events} fault events) to {path}")
    for fname, run in (
        ("golden_cluster_trace.jsonl", golden_cluster_run),
        ("golden_hetero_trace.jsonl", golden_hetero_run),
    ):
        path = GOLDEN / fname
        sink = StreamingTraceSink(path)
        result = run(sink)
        print(
            f"wrote {sink.rows} lines ({len(result.fault_events)} fault "
            f"events) to {path}"
        )


if __name__ == "__main__":
    main()
