"""The co-simulation loop: machine, application and controllers.

Time advances in fixed macro steps (default 10 ms).  Within a step each
socket executes its current phase; steps are split at phase boundaries
so short phases (LAMMPS's 30–60 ms bursts) are timed accurately rather
than rounded to the step grid.  After every step the controller runtime
fires any measurement ticks that became due — the controllers only ever
see the machine through their PAPI meters, never the engine's ground
truth.

Trace recording is delegated to a :class:`~repro.sim.trace.TraceSink`:
``record_trace=True`` without an explicit sink keeps the classic
in-memory behaviour, while a streaming or ring-buffer sink bounds RAM
for arbitrarily long runs (see :mod:`repro.sim.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ControllerConfig, EngineConfig, NoiseConfig
from ..core.base import Controller
from ..core.runtime import ControllerRuntime
from ..errors import SimulationError
from ..hardware.processor import PhaseWork
from ..workloads.application import Application
from ..workloads.phase import Phase
from .faults import FaultInjector, FaultPlan
from .machine import SimulatedMachine
from .result import PhaseSpan, RunResult, SocketResult
from .trace import InMemoryTraceSink, TraceSink

__all__ = ["SimulationEngine", "SimulationStepper", "RunContext"]

#: Completion tolerance on a phase's progress fraction.
_DONE_EPS = 1e-9
#: Smallest step slice worth simulating separately.
_MIN_SLICE_S = 1e-5


@dataclass
class _SocketProgress:
    """Execution cursor of one socket through the phase list."""

    phase_index: int = 0
    fraction_done: float = 0.0
    finish_time_s: float | None = None
    phase_start_s: float = 0.0
    spans: list[PhaseSpan] = field(default_factory=list)
    #: The current phase's processor-facing view, built once per phase.
    work: PhaseWork | None = None


@dataclass
class RunContext:
    """Everything one run constructs before stepping simulated time.

    Built by :meth:`SimulationEngine.prepare` and shared with the batch
    engine (:mod:`repro.sim.batch`), so both engines consume the run's
    RNG stream in exactly the same order: the engine generator is
    created first, the per-socket applications draw their duration
    jitter from it, and the controller runtime then shares it for
    measurement noise.
    """

    rng: np.random.Generator
    socket_apps: list[Application]
    sink: TraceSink | None
    injector: FaultInjector | None
    runtime: ControllerRuntime


@dataclass
class SimulationEngine:
    """Runs one application (or one per socket) under one controller set."""

    machine: SimulatedMachine
    application: Application | list[Application]
    controllers: list[Controller]
    controller_cfg: ControllerConfig
    engine_cfg: EngineConfig = field(default_factory=EngineConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int | None = None
    record_trace: bool = True
    #: Observer receiving every trace sample.  ``None`` with
    #: ``record_trace=True`` means an in-memory sink (classic
    #: behaviour); ``None`` with ``record_trace=False`` records nothing.
    trace_sink: TraceSink | None = None
    #: Optional fault plan.  ``None`` (or an all-zero plan) keeps the
    #: fault-free fast path: no injector is built and every code path
    #: is bit-for-bit the pre-fault-injection behaviour.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.engine_cfg.validate()
        self.noise.validate()
        if self.faults is not None:
            self.faults.validate()
        if len(self.controllers) != self.machine.socket_count:
            raise SimulationError(
                "one controller per socket required "
                f"({self.machine.socket_count} sockets, {len(self.controllers)} controllers)"
            )
        if isinstance(self.application, list):
            if len(self.application) != self.machine.socket_count:
                raise SimulationError(
                    "per-socket applications must match the socket count "
                    f"({self.machine.socket_count} sockets, "
                    f"{len(self.application)} applications)"
                )
        interval = self.controller_cfg.interval_s
        dt = self.engine_cfg.dt_s
        if abs(interval / dt - round(interval / dt)) > 1e-9:
            raise SimulationError(
                f"engine step {dt}s must divide the controller interval {interval}s"
            )

    def prepare(self) -> RunContext:
        """Build the run's RNG, applications, sink, injector and runtime.

        The construction *order* is part of the contract: the batch
        engine calls this too, so both engines draw duration jitter and
        measurement noise from the shared generator identically.
        """
        rng = np.random.default_rng(
            self.seed if self.seed is not None else self.noise.seed
        )
        # Per-socket work copies with run-to-run jitter.  A list gives
        # each socket its own application (heterogeneous node).
        if isinstance(self.application, list):
            base_apps = self.application
        else:
            base_apps = [self.application] * self.machine.socket_count
        socket_apps = [
            app.jittered(rng, self.noise.duration_jitter) for app in base_apps
        ]
        sink = self.trace_sink
        if sink is None and self.record_trace:
            sink = InMemoryTraceSink()
        injector: FaultInjector | None = None
        if self.faults is not None and self.faults.active:
            injector = FaultInjector(
                self.faults,
                seed=self.seed if self.seed is not None else self.noise.seed,
                emit=sink.record_event if sink is not None else None,
            )
            for sid, proc in enumerate(self.machine.processors):
                proc.rapl.latch_fault = injector.latch_port(sid)
                if proc.cstates is not None:
                    proc.cstates.rollover_fault = (
                        lambda sid=sid: injector.cstate_rollover(sid)
                    )
                if proc.epb_model is not None:
                    proc.epb_model.write_latch_fault = (
                        lambda sid=sid: injector.epp_write_latch_fails(sid)
                    )
        runtime = ControllerRuntime(
            processors=self.machine.processors,
            controllers=self.controllers,
            cfg=self.controller_cfg,
            rng=rng,
            counter_noise=self.noise.counter_noise,
            power_noise=self.noise.power_noise,
            injector=injector,
        )
        return RunContext(
            rng=rng,
            socket_apps=socket_apps,
            sink=sink,
            injector=injector,
            runtime=runtime,
        )

    def collect(
        self,
        ctx: RunContext,
        finish_times: list[float],
        spans: list[list[PhaseSpan]],
    ) -> RunResult:
        """Assemble the :class:`RunResult` once every socket finished."""
        sink = ctx.sink
        sockets = []
        for sid, proc in enumerate(self.machine.processors):
            sockets.append(
                SocketResult(
                    socket_id=sid,
                    finish_time_s=finish_times[sid],
                    package_energy_j=proc.package_energy_j,
                    dram_energy_j=proc.dram_energy_j,
                    trace=sink.collected(sid) if sink is not None else [],
                    phases=spans[sid],
                )
            )
        if isinstance(self.application, list):
            app_name = "+".join(dict.fromkeys(a.name for a in self.application))
        else:
            app_name = self.application.name
        return RunResult(
            app_name=app_name,
            controller_name=self.controllers[0].name,
            sockets=sockets,
            fault_events=list(ctx.injector.events)
            if ctx.injector is not None
            else [],
        )

    def stepper(self) -> "SimulationStepper":
        """A tick-at-a-time cursor over this engine's run loop.

        Construction performs everything :meth:`run` does before its
        first step — :meth:`prepare`, ``runtime.start()`` and the sink
        ``open`` — in the same order, so driving the stepper to
        completion is bit-identical to :meth:`run` (which is itself
        implemented on top of it).  External coordinators (the cluster
        engine) interleave ticks of several steppers to co-simulate
        multiple nodes in lockstep.
        """
        return SimulationStepper(self)

    def run(self) -> RunResult:
        """Execute the application(s) to completion on every socket."""
        stepper = self.stepper()
        try:
            while not stepper.done:
                stepper.tick()
        finally:
            stepper.close()
        return stepper.result()

    # -- one socket, one macro step ------------------------------------------------

    def _advance_socket(
        self,
        proc,
        phases: tuple[Phase, ...],
        p: _SocketProgress,
        step_start_s: float,
        dt: float,
    ) -> None:
        remaining_dt = dt
        while remaining_dt > 0.0:
            if p.phase_index >= len(phases):
                # Application finished: the socket idles out the run
                # (waiting on the slowest socket's barrier).
                if p.finish_time_s is None:
                    p.finish_time_s = step_start_s + (dt - remaining_dt)
                proc.step(remaining_dt, None)
                return
            phase = phases[p.phase_index]
            if p.work is None:
                p.work = phase.to_work()
            work = p.work
            rate = proc.preview_progress_rate(work)
            if rate <= 0.0:
                raise SimulationError(f"phase {phase.name!r} makes no progress")
            time_to_finish = (1.0 - p.fraction_done) / rate
            slice_s = min(remaining_dt, max(time_to_finish, _MIN_SLICE_S))
            made = proc.step(slice_s, work)
            p.fraction_done += made
            remaining_dt -= slice_s
            if p.fraction_done >= 1.0 - _DONE_EPS or (
                time_to_finish <= slice_s + _MIN_SLICE_S
                and p.fraction_done >= 1.0 - 1e-3
            ):
                end = step_start_s + (dt - remaining_dt)
                p.spans.append(
                    PhaseSpan(name=phase.name, start_s=p.phase_start_s, end_s=end)
                )
                p.phase_index += 1
                p.fraction_done = 0.0
                p.work = None
                p.phase_start_s = end


class SimulationStepper:
    """One engine's run loop, exposed one macro step at a time.

    Wraps exactly the state :meth:`SimulationEngine.run` used to keep
    on its stack — the :class:`RunContext`, per-socket progress
    cursors and the simulation clock — so a single ``tick()`` advances
    simulated time by one ``dt`` with the contractual operation order
    (advance + record every socket, then the clock, then fault
    injection, then controller ticks).  ``run()`` drives a stepper to
    completion; the cluster engine instead interleaves the ticks of
    one stepper per node, pausing nodes that finished, which is what
    makes a 1-node cluster bit-identical to a plain run.
    """

    def __init__(self, engine: SimulationEngine):
        self.engine = engine
        self.ctx = engine.prepare()
        self.ctx.runtime.start()
        self.progress = [
            _SocketProgress() for _ in range(engine.machine.socket_count)
        ]
        #: Each socket's phase tuple, read once: a jittered application
        #: builds it on first read (see ``Application.jittered``).
        self.phases = [app.phases for app in self.ctx.socket_apps]
        self.now = 0.0
        #: True once every socket has finished its phase list; only
        #: :meth:`tick` finishes sockets, so it updates the flag.
        self.done = False
        self._closed = False
        if self.ctx.sink is not None:
            self.ctx.sink.open(engine.machine.socket_count)

    def tick(self) -> None:
        """Advance simulated time by one engine step (``dt_s``)."""
        engine = self.engine
        ctx = self.ctx
        sink = ctx.sink
        if self.now >= engine.engine_cfg.max_sim_time_s:
            raise SimulationError(
                f"simulation exceeded {engine.engine_cfg.max_sim_time_s}s "
                f"(application {engine.application!r} stuck?)"
            )
        dt = engine.engine_cfg.dt_s
        running = False
        for sid, proc in enumerate(engine.machine.processors):
            p = self.progress[sid]
            engine._advance_socket(proc, self.phases[sid], p, self.now, dt)
            if p.finish_time_s is None:
                running = True
            if sink is not None:
                # Straight from the step's record: no ProcessorState, and
                # no TraceSample unless the sink keeps one.
                now_s, core_hz, uncore_hz, pkg, dram_w, rates, temp_c = (
                    proc.snapshot
                )
                sink.record_step(
                    sid,
                    now_s,
                    core_hz,
                    uncore_hz,
                    pkg.total_w,
                    dram_w,
                    proc.rapl.pl1.limit_w,
                    rates.flops_rate,
                    rates.bytes_rate,
                    temp_c,
                )
        self.done = not running
        self.now += dt
        if ctx.injector is not None:
            ctx.injector.advance(self.now)
        ctx.runtime.on_time(self.now)

    def close(self) -> None:
        """Close the sink exactly once (idempotent, exception-safe)."""
        if self._closed:
            return
        self._closed = True
        if self.ctx.sink is not None:
            self.ctx.sink.close()

    def result(self) -> RunResult:
        """Assemble the run result; only valid once :attr:`done`."""
        assert all(p.finish_time_s is not None for p in self.progress)
        return self.engine.collect(
            self.ctx,
            [p.finish_time_s for p in self.progress],  # type: ignore[misc]
            [p.spans for p in self.progress],
        )
