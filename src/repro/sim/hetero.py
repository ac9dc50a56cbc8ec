"""CPU + multi-GPU co-simulation under a shared power budget.

The paper's final future-work question (§VII): "With a specified shared
power budget to distribute over a CPU and a GPU, can we benefit from
dynamic power capping to reduce the budget of the CPU when it does not
need it and increase the GPU power budget?"  This engine answers it on
the repro substrate: one CPU socket running a phase application plus
one or more GPUs draining a kernel queue, with a
:class:`~repro.core.split.SplitPolicy` re-splitting one budget between
the CPU's RAPL cap and each GPU's software power limit every
re-allocation period.

Beyond the original two-device demo, the engine is a first-class peer
of the scalar engine:

* **Multi-GPU nodes** — a :class:`~repro.hardware.gpu.GPUNodeConfig`
  describes the accelerator count, the node-wide kernel queue
  (distributed round-robin) and the host↔device link.
* **Explicit transfer phases** — each kernel stages its input over the
  link, computes, then drains its output.  The link's effective
  bandwidth scales with the *CPU uncore* frequency
  (:meth:`~repro.hardware.gpu.GPUNodeConfig.link_bw_at`), the coupling
  measured by *Exploring Uncore Frequency Scaling for Heterogeneous
  Computing* (PAPERS.md) — so host-side uncore decisions move
  accelerator makespan.
* **Observability** — a :class:`~repro.sim.trace.TraceSink` receives
  per-tick :class:`~repro.sim.result.TraceSample` records for every
  device (the CPU is trace socket 0, GPU *i* is socket ``1+i`` with
  its board clock/power/limit mapped onto the sample fields).
* **Fault channels** — a :class:`~repro.sim.faults.FaultPlan` arms
  seeded GPU power-limit latch losses (``gpu_cap_latch_fail``) and
  kernel-queue stalls (``gpu_stall``) next to the CPU-side RAPL latch
  channel, through one per-run :class:`~repro.sim.faults.
  FaultInjector`.
* **Seeded noise** — a ``seed`` plus :class:`~repro.config.NoiseConfig`
  jitter the CPU phases and GPU kernel volumes per run, so the
  measurement protocol's trimming statistics apply to hetero cells
  exactly as to CPU-only ones.

The split policy is always resolved through the registry
(:func:`repro.core.registry.split_policy` at ``scope="device"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (
    ControllerConfig,
    EngineConfig,
    NoiseConfig,
    SocketConfig,
    yeti_socket_config,
)
from ..core.split import SplitPolicy
from ..core.tolerance import SlowdownTracker, tolerance_bid
from ..errors import SimulationError
from ..hardware.gpu import GPUKernel, GPUNodeConfig, SimulatedGPU
from ..hardware.processor import SimulatedProcessor
from ..workloads.application import Application
from ..workloads.phase import NominalRates
from .faults import FaultEvent, FaultInjector, FaultPlan
from .trace import TraceSink

__all__ = ["HeteroResult", "HeteroEngine"]

#: Stream label decorrelating the hetero jitter RNG from the fault RNG
#: (which derives from the same run seed).
_JITTER_STREAM = 0x48E7

#: Seconds between re-allocations (dynamic split policies only).
REALLOC_PERIOD_S = 1.0


@dataclass
class HeteroResult:
    """Outcome of one shared-budget CPU+GPU run."""

    cpu_finish_s: float
    gpu_finish_s: float
    cpu_energy_j: float
    gpu_energy_j: float
    #: (time, (cpu_alloc, gpu0_alloc, ...)) per re-allocation.
    device_allocations: list[tuple[float, tuple[float, ...]]] = field(
        default_factory=list
    )
    #: Per-GPU finish times / energies, device order.
    gpu_finish_times_s: tuple[float, ...] = ()
    gpu_energies_j: tuple[float, ...] = ()
    #: Link-busy seconds summed over every GPU's transfer phases.
    transfer_s: float = 0.0
    #: Injected faults, emission order (empty without a plan).
    fault_events: list[FaultEvent] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        return max(self.cpu_finish_s, self.gpu_finish_s)

    @property
    def total_energy_j(self) -> float:
        return self.cpu_energy_j + self.gpu_energy_j

    # The protocol's four metrics (docs/HETERO.md, "Metric mapping"):
    # the CPU stands on the package column, the GPUs on the DRAM one.

    @property
    def execution_time_s(self) -> float:
        """The node makespan."""
        return self.makespan_s

    @property
    def avg_package_power_w(self) -> float:
        """CPU energy over the makespan."""
        return self.cpu_energy_j / self.makespan_s

    @property
    def avg_dram_power_w(self) -> float:
        """Combined GPU energy over the makespan."""
        return self.gpu_energy_j / self.makespan_s


class _GPUTask:
    """One GPU's progress through its kernel queue.

    Each kernel passes through three stages: ``in`` (host→device input
    over the shared link), ``compute`` (roofline execution), ``out``
    (device→host output).  Zero-byte transfers complete without
    consuming a tick.
    """

    __slots__ = (
        "queue", "refs", "idx", "stage", "frac",
        "bytes_left", "stall_left", "launched", "finish",
    )

    def __init__(self, queue: list[GPUKernel], refs: list[float]):
        self.queue = queue
        self.refs = refs
        self.idx = 0
        self.stage = "in"
        self.frac = 0.0
        self.bytes_left = 0.0
        self.stall_left = 0.0
        self.launched = False
        self.finish: float | None = None

    @property
    def done(self) -> bool:
        return self.idx >= len(self.queue)

    @property
    def transferring(self) -> bool:
        return (
            not self.done
            and self.stall_left <= 0.0
            and self.stage in ("in", "out")
            and self.bytes_left > 0.0
        )


@dataclass
class HeteroEngine:
    """One CPU socket plus a GPU node under a shared power budget."""

    application: Application
    #: Budget-split strategy over the devices (index 0 the CPU socket),
    #: resolved via :func:`repro.core.registry.split_policy`; it owns
    #: the shared budget.
    policy: SplitPolicy
    #: The GPU side of the node (count, kernel queue, link).
    node: GPUNodeConfig
    cfg: ControllerConfig = field(default_factory=ControllerConfig)
    socket_cfg: SocketConfig = field(default_factory=yeti_socket_config)
    #: Time step and simulated-time limit.
    engine_cfg: EngineConfig = field(default_factory=EngineConfig)
    #: Per-run seed driving jitter and fault draws.
    seed: int = 0
    #: Run-to-run noise; ``None`` disables jitter entirely.
    noise: NoiseConfig | None = None
    #: Seeded fault channels (GPU latch/stall + CPU RAPL latch).
    faults: FaultPlan | None = None
    #: Per-tick per-device observer; the CPU is trace socket 0.
    trace_sink: TraceSink | None = None

    def __post_init__(self) -> None:
        self.cfg.validate()
        self.socket_cfg.validate()
        self.engine_cfg.validate()
        self.node.validate()
        if self.faults is not None:
            self.faults.validate()
        floors = self._floors()
        if self.policy.budget_w < sum(floors):
            raise SimulationError(
                f"budget {self.policy.budget_w} W below the combined "
                f"floor {sum(floors)} W"
            )

    # -- device bounds ---------------------------------------------------------

    def _floors(self) -> list[float]:
        gpu_floor = self.node.gpu.power_limit_floor_w
        return [self.cfg.cap_floor_w] + [gpu_floor] * self.node.gpu_count

    def _ceilings(self) -> list[float]:
        gpu_ceiling = self.node.gpu.power_limit_default_w
        return [self.socket_cfg.rapl.pl1_default_w] + [
            gpu_ceiling
        ] * self.node.gpu_count

    # -- the run ---------------------------------------------------------------

    def run(self) -> HeteroResult:
        node = self.node
        policy = self.policy
        n_gpus = node.gpu_count
        dt = self.engine_cfg.dt_s
        rng = np.random.default_rng([abs(int(self.seed)), _JITTER_STREAM])
        app = self.application
        kernels = node.build_kernels()
        if self.noise is not None and self.noise.duration_jitter > 0.0:
            app = app.jittered(rng, self.noise.duration_jitter)
            # Kernel volumes jitter multiplicatively like CPU phases.
            factors = 1.0 + self.noise.duration_jitter * rng.standard_normal(
                len(kernels)
            )
            kernels = [
                GPUKernel(k.name, flops=k.flops * max(f, 0.5), bytes=k.bytes * max(f, 0.5))
                for k, f in zip(kernels, factors)
            ]

        sink = self.trace_sink
        injector: FaultInjector | None = None
        if self.faults is not None and self.faults.active:
            injector = FaultInjector(
                self.faults,
                self.seed,
                emit=sink.record_event if sink is not None else None,
            )
        cpu_latch = injector.latch_port(0) if injector is not None else None

        cpu = SimulatedProcessor(self.socket_cfg)
        gpus = [SimulatedGPU(node.gpu) for _ in range(n_gpus)]
        cpu_tracker = SlowdownTracker(
            self.cfg.tolerated_slowdown, self.cfg.measurement_error
        )
        gpu_trackers = [
            SlowdownTracker(self.cfg.tolerated_slowdown, self.cfg.measurement_error)
            for _ in range(n_gpus)
        ]
        # Reference rates: what each phase/kernel achieves uncapped.
        # Seeding the trackers with the model-derived nominal keeps the
        # verdicts meaningful even though the devices start capped (a
        # throttled device must not mistake its first throttled sample
        # for full performance).
        nominal = NominalRates(self.socket_cfg)
        cpu_ref = [
            p.flops / nominal.duration(p) if p.flops > 0 else 0.0
            for p in app.phases
        ]
        # Each phase's processor-facing work, built once per phase.
        cpu_work = [p.to_work() for p in app.phases]
        probe = gpus[0]
        kernel_ref = [
            k.flops / probe.kernel_time(k, node.gpu.max_freq_hz) for k in kernels
        ]
        # Round-robin queue distribution across the node's GPUs.
        tasks = [
            _GPUTask(kernels[i::n_gpus], kernel_ref[i::n_gpus])
            for i in range(n_gpus)
        ]

        floors = self._floors()
        ceilings = self._ceilings()
        allocs = policy.initial(floors, ceilings)
        result = HeteroResult(0.0, 0.0, 0.0, 0.0)
        if sink is not None:
            sink.open(1 + n_gpus)

        def apply(now: float) -> None:
            nonlocal allocs
            allocs = [
                min(max(a, lo), hi)
                for a, lo, hi in zip(allocs, floors, ceilings)
            ]
            dropped = cpu_latch()[0] if cpu_latch is not None else False
            if not dropped:
                cpu.rapl.set_limits(allocs[0], allocs[0])
            for i, gpu in enumerate(gpus):
                if injector is not None and injector.gpu_cap_latch_fails(1 + i):
                    continue
                gpu.set_power_limit(allocs[1 + i])
            result.device_allocations.append((now, tuple(allocs)))

        apply(0.0)

        now = 0.0
        next_realloc = REALLOC_PERIOD_S
        cpu_phase = 0
        cpu_done_frac = 0.0
        cpu_finish: float | None = None
        uncore_max = self.socket_cfg.uncore.max_freq_hz

        def step_gpu(i: int, link_bw: float) -> None:
            task, gpu = tasks[i], gpus[i]
            if task.done:
                gpu.step(dt, None)
                if task.finish is None:
                    task.finish = now
                return
            if task.stall_left > 0.0:
                task.stall_left = max(task.stall_left - dt, 0.0)
                gpu.step(dt, None)
                return
            kernel = task.queue[task.idx]
            if task.stage == "in":
                if not task.launched:
                    task.launched = True
                    task.bytes_left = node.input_bytes
                    if injector is not None:
                        task.stall_left = injector.gpu_queue_stall_s(1 + i)
                        if task.stall_left > 0.0:
                            gpu.step(dt, None)
                            return
                if task.bytes_left > 0.0:
                    task.bytes_left -= link_bw * dt
                    gpu.step(dt, None)
                    result.transfer_s += dt
                    if task.bytes_left <= 0.0:
                        task.stage = "compute"
                        gpu_trackers[i].reset(task.refs[task.idx])
                    return
                task.stage = "compute"
                gpu_trackers[i].reset(task.refs[task.idx])
            if task.stage == "compute":
                task.frac += gpu.step(dt, kernel)
                if task.frac >= 1.0 - 1e-9:
                    task.stage = "out"
                    task.bytes_left = node.output_bytes
                    if task.bytes_left <= 0.0:
                        task.idx += 1
                        task.stage = "in"
                        task.frac = 0.0
                        task.launched = False
                return
            # stage == "out"
            task.bytes_left -= link_bw * dt
            gpu.step(dt, None)
            result.transfer_s += dt
            if task.bytes_left <= 0.0:
                task.idx += 1
                task.stage = "in"
                task.frac = 0.0
                task.launched = False

        try:
            while cpu_finish is None or any(t.finish is None for t in tasks):
                if now >= self.engine_cfg.max_sim_time_s:
                    raise SimulationError(
                        "hetero simulation exceeded the time limit"
                    )
                if injector is not None:
                    injector.advance(now)

                # CPU side.
                if cpu_phase < len(cpu_work):
                    if cpu_done_frac == 0.0:
                        cpu_tracker.reset(cpu_ref[cpu_phase])
                    cpu_done_frac += cpu.step(dt, cpu_work[cpu_phase])
                    if cpu_done_frac >= 1.0 - 1e-9:
                        cpu_phase += 1
                        cpu_done_frac = 0.0
                else:
                    cpu.step(dt, None)
                    if cpu_finish is None:
                        cpu_finish = now

                # GPU side: the link bandwidth rides this tick's uncore
                # clock — DUF-style host decisions move transfer time.
                link_bw = node.link_bw_at(cpu.uncore.frequency_hz / uncore_max)
                for i in range(n_gpus):
                    step_gpu(i, link_bw)

                now += dt

                if not policy.is_static and now + 1e-9 >= next_realloc:
                    next_realloc += REALLOC_PERIOD_S
                    step_w = self.cfg.cap_step_w
                    demands = [
                        tolerance_bid(
                            cpu_tracker.judge(cpu.state.flops_rate),
                            cpu.state.package.total_w,
                            allocs[0],
                            step_w,
                            floors[0],
                        )
                    ]
                    for i, gpu in enumerate(gpus):
                        demands.append(
                            tolerance_bid(
                                gpu_trackers[i].judge(gpu.state.flops_rate),
                                gpu.state.power_w,
                                allocs[1 + i],
                                step_w,
                                floors[1 + i],
                            )
                        )
                    allocs = policy.allocate(demands, floors, ceilings)
                    apply(now)

                if sink is not None:
                    # The step's own record, as the CPU engine traces it,
                    # stamped with the node clock and no temperature.
                    _, core_hz, uncore_hz, pkg, dram_w, rates, _ = cpu.snapshot
                    sink.record_step(
                        0,
                        now,
                        core_hz,
                        uncore_hz,
                        pkg.total_w,
                        dram_w,
                        allocs[0],
                        rates.flops_rate,
                        rates.bytes_rate,
                    )
                    for i, gpu in enumerate(gpus):
                        gs = gpu.state
                        sink.record_step(
                            1 + i,
                            now,
                            gs.freq_hz,
                            0.0,
                            gs.power_w,
                            0.0,
                            gpu.power_limit_w,
                            gs.flops_rate,
                            link_bw if tasks[i].transferring else 0.0,
                        )
        finally:
            if sink is not None:
                sink.close()

        result.cpu_finish_s = cpu_finish
        result.gpu_finish_times_s = tuple(t.finish for t in tasks)
        result.gpu_finish_s = max(result.gpu_finish_times_s)
        result.cpu_energy_j = cpu.package_energy_j
        result.gpu_energies_j = tuple(g.energy_j for g in gpus)
        result.gpu_energy_j = sum(result.gpu_energies_j)
        if injector is not None:
            result.fault_events = list(injector.events)
        return result
