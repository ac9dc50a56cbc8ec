"""The per-tick physics memos and the lean device step are exact.

``PhaseExecutionModel.instantaneous`` and ``PackagePowerModel.package_power``
/ ``uncore_power`` are memoised per model instance on their exact
inputs, RAPL reuses the last step's decay factors, the RAPL clamp scans
a per-model P-state table, and ``SimulatedGPU.step`` memoises its
operating point per device.  Processors and GPUs build their state
snapshot on read.  These properties pin what makes that safe:

* every result, first call or repeat, equals an uncached reference bit
  for bit — including signed zeros, which ``==`` (and so a dict key)
  cannot tell apart, and the C-state ``idle_scale < 1`` path;
* an invalid input raises on every call and is never stored, nor is a
  NaN key;
* no two processors, and no two GPUs, share a memo;
* reading ``.state`` after every step or only now and then changes
  nothing, and a stepper's cached ``done`` always matches its sockets;
* a processor reusing its last operating point, and a driver its last
  clock, step exactly like a reference that looks both up every time,
  and neither is kept under C-states or on a multi-die uncore;
* the batch engine's memos are bounded by its lanes, not by how long
  the batch simulates.
"""

import math
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import (
    ControllerConfig,
    CoreConfig,
    CStateConfig,
    MemoryConfig,
    NoiseConfig,
    PowerModelConfig,
    RAPLConfig,
    SocketConfig,
    ThermalConfig,
    UncoreConfig,
    yeti_socket_config,
)
from repro.core.registry import as_spec
from repro.errors import SimulationError
from repro.hardware.dvfs import PerformanceGovernor, PowersaveGovernor
from repro.hardware.gpu import GPUKernel, SimulatedGPU
from repro.hardware.memory import MemorySystem
from repro.hardware.msr import MSR
from repro.hardware.perf import PhaseExecutionModel
from repro.hardware.power import PackagePowerModel
from repro.hardware.processor import PhaseWork, SimulatedProcessor
from repro.hardware.rapl import RAPLPackage
from repro.sim.batch import BatchSimulationEngine
from repro.sim.lane_runtime import noise_block_len
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application

MEMO = settings(max_examples=60, deadline=None)


def bits(value):
    """A value's exact identity: ``repr`` tells ``-0.0`` from ``0.0``."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value), repr(value))


def perf_model() -> PhaseExecutionModel:
    core, uncore = CoreConfig(), UncoreConfig()
    return PhaseExecutionModel(core, MemorySystem(MemoryConfig(), core, uncore))


def power_model() -> PackagePowerModel:
    return PackagePowerModel(CoreConfig(), UncoreConfig(), PowerModelConfig())


def scan_reference(budget_w, uncore_hz, activity, traffic, core_boost):
    """The clamp as a top-down scan evaluating the power formula per P-state."""
    fresh = power_model()
    core, pcfg = fresh.core_cfg, fresh.cfg
    budget_cores = budget_w - (pcfg.static_w + fresh.uncore_power(uncore_hz, traffic))
    a0 = pcfg.core_idle_fraction
    scale = a0 * 1.0 + (1.0 - a0) * activity
    n_steps = int(round((core.max_freq_hz - core.min_freq_hz) / core.step_hz))
    for i in range(n_steps, -1, -1):
        f = core.min_freq_hz + i * core.step_hz
        v = core.voltage_at(f)
        p = core.count * pcfg.k_core * v * v * (f / 1e9) * scale
        if p * core_boost <= budget_cores:
            return f
    return core.min_freq_hz


def with_flipped_zeros(calls):
    """``calls`` twice, then once more with every zero's sign flipped."""
    flipped = [tuple(-a if a == 0 else a for a in args) for args in calls]
    return calls + calls + flipped


def pick(grid, lo, hi):
    """Mostly values from a small grid (so calls repeat), some free."""
    return st.one_of(st.sampled_from(grid), st.floats(min_value=lo, max_value=hi))


VOLUME = pick([0.0, -0.0, 1e9, 3.7e11, 2.5e12], 1.0, 1e13)
FPC = pick([0.5, 4.0, 16.0], 0.05, 32.0)
CORE_HZ = pick([1.0e9, 2.0e9, 2.4e9, 2.8e9], 1e8, 4e9)
UNCORE_HZ = pick([1.2e9, 1.8e9, 2.4e9], 1e8, 3e9)
SENSITIVITY = pick([0.0, -0.0, 0.3], 0.0, 2.0)
UNIT = pick([0.0, -0.0, 0.25, 1.0], 0.0, 1.0)
BOOST = pick([1.0, 1.3], 0.1, 3.0)

roofline_args = st.tuples(
    VOLUME, VOLUME, FPC, CORE_HZ, UNCORE_HZ, SENSITIVITY, SENSITIVITY
).filter(lambda a: a[0] or a[1])
package_args = st.tuples(CORE_HZ, UNCORE_HZ, UNIT, UNIT, BOOST, UNIT)
clamp_args = st.tuples(
    st.floats(min_value=-50.0, max_value=400.0), UNCORE_HZ, UNIT, UNIT, BOOST
)
GPU_VOLUME = pick([0.0, -0.0, 1e10, 7.5e11, 6e12], 1.0, 2e13)
GPU_LIMIT = pick([100.0, 175.0, 212.5, 250.0, 300.0], 100.0, 300.0)
GPU_DT = pick([0.01, 0.0037], 1e-4, 0.1)
# (flops, bytes) or None for an idle tick, then the limit and the slice.
gpu_args = st.tuples(
    st.one_of(
        st.none(), st.tuples(GPU_VOLUME, GPU_VOLUME).filter(lambda v: v[0] or v[1])
    ),
    GPU_LIMIT,
    GPU_DT,
)


def with_flipped_gpu_zeros(calls):
    """``calls`` twice, then once more with every zero volume's sign flipped."""
    flipped = [
        (None if w is None else tuple(-v if v == 0 else v for v in w), lim, dt)
        for w, lim, dt in calls
    ]
    return calls + calls + flipped


def gpu_kernel(work):
    return None if work is None else GPUKernel("k", flops=work[0], bytes=work[1])


class TestMemoisedEqualsUncached:
    @MEMO
    @given(calls=st.lists(roofline_args, min_size=1, max_size=12))
    def test_instantaneous(self, calls):
        memo = perf_model()
        for args in with_flipped_zeros(calls):
            got = memo.instantaneous(*args)
            assert bits(astuple(got)) == bits(
                astuple(perf_model().instantaneous(*args))
            )

    @MEMO
    @given(calls=st.lists(package_args, min_size=1, max_size=12))
    def test_package_power(self, calls):
        memo = power_model()
        for args in with_flipped_zeros(calls):
            kwargs = dict(core_boost=args[4], core_idle_scale=args[5])
            got = memo.package_power(*args[:4], **kwargs)
            ref = power_model().package_power(*args[:4], **kwargs)
            assert bits(astuple(got)) == bits(astuple(ref))
            assert bits(memo.uncore_power(args[1], args[3])) == bits(
                power_model().uncore_power(args[1], args[3])
            )

    @MEMO
    @given(calls=st.lists(clamp_args, min_size=1, max_size=12))
    def test_max_core_freq_under(self, calls):
        memo = power_model()
        for args in with_flipped_zeros(calls):
            budget, uncore, act, traffic, boost = args
            got = memo.max_core_freq_under(
                budget, uncore, act, traffic, core_boost=boost
            )
            assert bits(got) == bits(
                scan_reference(budget, uncore, act, traffic, boost)
            )

    @MEMO
    @given(calls=st.lists(gpu_args, min_size=1, max_size=12))
    def test_gpu_step(self, calls):
        memo = SimulatedGPU()
        energy = now = 0.0
        for work, limit, dt in with_flipped_gpu_zeros(calls):
            kernel = gpu_kernel(work)
            memo.set_power_limit(limit)
            got = memo.step(dt, kernel)
            fresh = SimulatedGPU(power_limit_w=limit)
            want = fresh.step(dt, kernel)
            energy += fresh.energy_j
            now += dt
            assert bits(got) == bits(want)
            want_state = replace(fresh.state, time_s=now)
            assert bits(astuple(memo.state)) == bits(astuple(want_state))
            assert bits(memo.energy_j) == bits(energy)
            assert bits(memo.now_s) == bits(now)

    def test_gpu_signed_zero_volumes_keep_their_own_entries(self):
        gpu = SimulatedGPU()
        rates = []
        for flops in (0.0, -0.0, 0.0, -0.0):
            gpu.step(0.01, GPUKernel("k", flops=flops, bytes=1e11))
            rates.append(repr(gpu.state.flops_rate))
        assert rates == ["0.0", "-0.0", "0.0", "-0.0"]
        for bytes_ in (0.0, -0.0):
            gpu.step(0.01, GPUKernel("k", flops=1e12, bytes=bytes_))
        assert len(gpu._points) == 4

    def test_signed_zero_volumes_keep_their_own_entries(self):
        memo = perf_model()
        args = (1e9, 4.0, 2.8e9, 2.4e9)  # bytes, fpc, core and uncore Hz
        pos = memo.instantaneous(0.0, *args)
        neg = memo.instantaneous(-0.0, *args)
        assert repr(pos.flops_rate) == "0.0"
        assert repr(neg.flops_rate) == "-0.0"
        assert memo.instantaneous(0.0, *args) is pos
        assert memo.instantaneous(-0.0, *args) is neg

    def test_idle_scale_below_one_is_its_own_entry(self):
        memo = power_model()
        full = memo.package_power(2.4e9, 2.4e9, 0.3, 0.2, core_idle_scale=1.0)
        parked = memo.package_power(2.4e9, 2.4e9, 0.3, 0.2, core_idle_scale=0.4)
        assert parked.core_w < full.core_w
        assert memo.package_power(
            2.4e9, 2.4e9, 0.3, 0.2, core_idle_scale=0.4
        ) is parked

    def test_rapl_decay_matches_exp(self):
        cfg = RAPLConfig(actuation_delay_s=0.015)
        rapl, start = RAPLPackage(cfg), cfg.pl1_default_w * 0.8
        avg1 = avg2 = start
        reused = []

        def step(dt, watts):
            nonlocal avg1, avg2
            before = rapl._last_decay
            rapl.step(dt, watts, 10.0)
            reused.append(rapl._last_decay is before)
            avg1 += (1.0 - math.exp(-dt / rapl.pl1.window_s)) * (watts - avg1)
            avg2 += (1.0 - math.exp(-dt / rapl.pl2.window_s)) * (watts - avg2)
            assert rapl._avg_pl1_w == avg1 and rapl._avg_pl2_w == avg2

        # A full step, a partial slice, the return to the full dt.
        for dt, watts in ((0.01, 90.0), (0.0037, 120.0), (0.01, 80.0), (0.01, 95.0)):
            step(dt, watts)
        # One window change at a time, each latched by the second step
        # after its write.
        rapl.set_limits(100.0, 120.0, pl1_window_s=0.25)
        for watts in (110.0, 105.0, 99.0):
            step(0.01, watts)
        rapl.set_limits(100.0, 120.0, pl2_window_s=0.005)
        for watts in (101.0, 97.0, 103.0):
            step(0.01, watts)
        assert (rapl.pl1.window_s, rapl.pl2.window_s) == (0.25, 0.005)
        latch = [True, False, True]
        assert reused == [False, False, False, True] + latch + latch
        a1, a2 = 1.0 - math.exp(-0.01 / 0.25), 1.0 - math.exp(-0.01 / 0.005)
        assert rapl._last_decay == (0.01, 0.25, 0.005, a1, a2)

    def test_rapl_nan_window_is_never_reused(self):
        rapl = RAPLPackage(RAPLConfig())
        rapl.pl1.window_s = float("nan")  # bypasses set_limits
        rapl.step(0.01, 90.0, 10.0)
        first = rapl._last_decay
        rapl.step(0.01, 90.0, 10.0)
        assert rapl._last_decay is not first
        assert math.isnan(rapl._avg_pl1_w)
        assert not math.isnan(rapl._avg_pl2_w)


class TestInvalidInputsNeverStored:
    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, 1e9, 4.0, 2e9, 2e9, 0.0, 0.0),  # negative flops
            (1e9, -1.0, 4.0, 2e9, 2e9, 0.0, 0.0),  # negative bytes
            (1e9, 1e9, 0.0, 2e9, 2e9, 0.0, 0.0),  # fpc <= 0
            (1e9, 1e9, 4.0, 0.0, 2e9, 0.0, 0.0),  # core clock <= 0
            (1e9, 1e9, 4.0, 2e9, 2e9, -0.1, 0.0),  # negative sensitivity
            (0.0, 0.0, 4.0, 2e9, 2e9, 0.0, 0.0),  # no work at all
        ],
    )
    def test_instantaneous_raises_every_call(self, args):
        memo = perf_model()
        for _ in range(3):
            with pytest.raises(ValueError):
                memo.instantaneous(*args)
        assert memo._rates == {}

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((2.4e9, 2.4e9, 1.5, 0.2), {}),  # activity > 1
            ((2.4e9, 2.4e9, 0.5, -0.2), {}),  # traffic < 0
            ((2.4e9, 2.4e9, 0.5, 0.2), {"core_boost": 0.0}),
            ((2.4e9, 2.4e9, 0.5, 0.2), {"core_boost": -1.0}),
            ((2.4e9, 2.4e9, 0.5, 0.2), {"core_idle_scale": 1.2}),
        ],
    )
    def test_package_power_raises_every_call(self, args, kwargs):
        memo = power_model()
        for _ in range(3):
            with pytest.raises(ValueError):
                memo.package_power(*args, **kwargs)
        assert memo._package == {}

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((100.0, 2.4e9, 1.5, 0.2), {}),  # activity > 1
            ((100.0, 2.4e9, 0.5, 1.2), {}),  # traffic > 1
            ((100.0, 2.4e9, 0.5, 0.2), {"core_boost": 0.0}),
        ],
    )
    def test_clamp_raises_every_call(self, args, kwargs):
        memo = power_model()
        for _ in range(3):
            with pytest.raises(ValueError):
                memo.max_core_freq_under(*args, **kwargs)
        assert all(0.0 <= traffic <= 1.0 for _, traffic in memo._uncore)

    def test_valid_hit_still_checks_core_boost(self):
        memo = power_model()
        memo.package_power(2.4e9, 2.4e9, 0.5, 0.2, core_boost=1.0)
        with pytest.raises(ValueError):
            memo.package_power(2.4e9, 2.4e9, 0.5, 0.2, core_boost=0.0)

    def test_nan_is_never_stored(self):
        perf, power = perf_model(), power_model()
        nan = float("nan")
        rates = perf.instantaneous(nan, 1e9, 4.0, 2e9, 2e9)
        assert math.isnan(rates.flops_rate)
        assert perf._rates == {}
        pkg = power.package_power(nan, 2.4e9, 0.5, 0.2)
        assert math.isnan(pkg.core_w)
        assert power._package == {}

    def test_gpu_nan_limit_is_never_stored(self):
        gpu = SimulatedGPU()
        gpu.power_limit_w = float("nan")  # bypasses set_power_limit's check
        for _ in range(3):
            gpu.step(0.01, GPUKernel("k", flops=1e12, bytes=1e11))
        assert gpu.state.freq_hz == gpu.config.min_freq_hz
        assert gpu._points == {}

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.01, float("nan")])
    @pytest.mark.parametrize("kernel", [None, GPUKernel("k", flops=1e12, bytes=1e11)])
    def test_gpu_step_raises_every_call(self, dt, kernel):
        gpu = SimulatedGPU()
        for _ in range(3):
            with pytest.raises(SimulationError):
                gpu.step(dt, kernel)
        assert gpu._points == {}
        assert gpu.energy_j == 0.0 and gpu.now_s == 0.0


class TestMemoOwnership:
    def test_processors_never_share_a_memo(self):
        cfg = yeti_socket_config()
        a, b = SimulatedProcessor(cfg), SimulatedProcessor(cfg, socket_id=1)
        work = PhaseWork(flops=1e12, bytes=1e11, fpc=4.0)
        for _ in range(5):
            a.step(0.01, work)
        pairs = [
            (a.perf._rates, b.perf._rates),
            (a.power_model._package, b.power_model._package),
            (a.power_model._uncore, b.power_model._uncore),
            (a.rapl._last_decay, b.rapl._last_decay),
        ]
        for mine, theirs in pairs:
            assert mine is not theirs
            assert mine and not theirs

    def test_memos_stay_out_of_equality_and_repr(self):
        used, fresh = power_model(), power_model()
        used.package_power(2.4e9, 2.4e9, 0.5, 0.2)
        assert used == fresh
        assert "_package" not in repr(used)

    def test_gpus_never_share_a_memo(self):
        a, b = SimulatedGPU(), SimulatedGPU()
        for _ in range(5):
            a.step(0.01, GPUKernel("k", flops=1e12, bytes=1e11))
            a.step(0.01, None)
        assert a._points is not b._points
        assert len(a._points) == 2 and not b._points

    def test_gpu_memo_stays_out_of_equality_and_repr(self):
        used = SimulatedGPU()
        used.step(0.01, GPUKernel("k", flops=1e12, bytes=1e11))
        twin = replace(used)
        assert twin._points == {} and used._points
        assert used == twin
        assert "_points" not in repr(used)


#: A socket whose package trips PROCHOT within a few ticks at full power
#: and whose wide-vector phases (fpc >= 8) run under the AVX license.
LEAN_CFG = replace(
    yeti_socket_config(),
    core=replace(CoreConfig(), avx_license_fpc=8.0, avx_max_freq_hz=2.4e9),
    thermal=ThermalConfig(r_thermal_c_per_w=1.0, tau_s=0.05),
)
LEAN_WORK = [
    None,
    PhaseWork(flops=1e12, bytes=1e7, fpc=4.0),
    PhaseWork(flops=1.5e10, bytes=1e12, fpc=0.5, overfetch=0.4),
    PhaseWork(flops=2e12, bytes=1e9, fpc=16.0, power_boost=1.3),
]
# (dt, work index, read the sparse twin's state?), a cap write with an
# optional PL1 window change, or an uncore pin (``None`` releases).
lean_step = st.tuples(
    st.just("step"), pick([0.01, 0.0037], 1e-4, 0.02), st.integers(0, 3), st.booleans()
)
lean_cap = st.tuples(
    st.just("cap"), st.sampled_from([65.0, 90.0, 125.0]), st.sampled_from([None, 0.25])
)
lean_pin = st.tuples(st.just("pin"), st.sampled_from([None, 1.2e9, 1.8e9, 2.4e9]))
lean_actions = st.lists(
    st.one_of(lean_step, lean_step, lean_step, lean_cap, lean_pin),
    min_size=1,
    max_size=60,
)


def processor_counters(proc):
    return bits(
        (
            proc.now_s,
            proc.package_energy_j,
            proc.dram_energy_j,
            proc.flops_retired,
            proc.bytes_transferred,
            proc.dvfs._aperf_cycles,
            proc.dvfs._mperf_cycles,
            proc.rapl._avg_pl1_w,
            proc.rapl._avg_pl2_w,
            proc.thermal.temperature_c,
            proc.uncore.frequency_hz,
        )
    )


#: ``LEAN_WORK`` plus an equal-valued but distinct copy of its first
#: phase, and two phases that compare equal yet retire ``0.0`` and
#: ``-0.0`` FLOPs: only identity tells them apart.
POINT_WORK = LEAN_WORK + [
    replace(LEAN_WORK[1]),
    PhaseWork(flops=0.0, bytes=1e11, fpc=2.0),
    PhaseWork(flops=-0.0, bytes=1e11, fpc=2.0),
]
# PERF_CTL ratios (100 MHz units) below, inside and above the P-states.
point_ctl = st.tuples(st.just("perf_ctl"), st.sampled_from([5, 12, 20, 25, 40]))
point_governor = st.tuples(
    st.just("governor"), st.sampled_from([PerformanceGovernor, PowersaveGovernor])
)
# Rounds on one phase: a step, one control write (or none), then 1-3
# more steps, so every write lands between steps that could reuse.
point_dt = pick([0.01, 0.0037], 1e-4, 0.02)
point_round = st.tuples(
    st.integers(0, len(POINT_WORK) - 1),
    st.one_of(st.none(), lean_cap, lean_pin, point_ctl, point_governor),
    st.lists(point_dt, min_size=2, max_size=4),
)
point_actions = st.lists(point_round, min_size=1, max_size=20).map(
    lambda rounds: [
        action
        for w, control, dts in rounds
        for action in [("step", dts[0], w)]
        + ([control] if control else [])
        + [("step", dt, w) for dt in dts[1:]]
    ]
)


def forget_points(proc):
    """Drop the processor's and the driver's one-entry records, so the
    next read looks everything up afresh."""
    proc._point = None
    proc.dvfs._last_freq = None


def act(proc, action):
    kind = action[0]
    if kind == "cap":
        proc.rapl.set_limits(action[1], action[1], pl1_window_s=action[2])
    elif kind == "pin":
        if action[1] is None:
            proc.uncore.release()
        else:
            proc.uncore.pin(action[1])
    elif kind == "perf_ctl":
        proc.msrs.write(MSR.IA32_PERF_CTL, action[1] << 8)
    elif kind == "governor":
        proc.dvfs.governor = action[1]()


class TestLeanStep:
    """Snapshots built on read equal the ones an every-tick reader sees."""

    @MEMO
    @given(actions=lean_actions)
    def test_processor_snapshot_on_read(self, actions):
        eager, sparse = SimulatedProcessor(LEAN_CFG), SimulatedProcessor(LEAN_CFG)
        for action in actions:
            for proc in (eager, sparse):
                act(proc, action)
            if action[0] != "step":
                continue
            _, dt, w, read = action
            work = LEAN_WORK[w]
            assert bits(eager.step(dt, work)) == bits(sparse.step(dt, work))
            seen = eager.state
            if read:
                got = sparse.state
                assert bits(astuple(got)) == bits(astuple(seen))
                assert sparse.state is got
        assert processor_counters(eager) == processor_counters(sparse)
        if eager._snap is not None:
            assert bits(astuple(sparse.state)) == bits(astuple(eager.state))

    @MEMO
    @given(actions=point_actions)
    @example(
        # PROCHOT under the AVX license, a cap that latches, then equal
        # but distinct phases at unchanged clocks and a governor swap.
        actions=[("step", 0.01, 3)] * 30
        + [("cap", 65.0, None)]
        + [("step", 0.01, 1), ("step", 0.01, 4)] * 4
        + [("step", 0.01, 5), ("step", 0.01, 6), ("step", 0.01, 5)]
        + [("governor", PowersaveGovernor), ("step", 0.01, 1)]
        + [("governor", PerformanceGovernor), ("step", 0.01, 1)]
    )
    @example(
        # A pin and a PERF_CTL write between steps of one memory-bound phase.
        actions=[("step", 0.01, 2)] * 3
        + [("pin", 1.2e9), ("step", 0.01, 2), ("perf_ctl", 12), ("step", 0.01, 2)]
    )
    def test_reused_points_match_fresh_lookups(self, actions):
        kept, fresh = SimulatedProcessor(LEAN_CFG), SimulatedProcessor(LEAN_CFG)
        for action in actions:
            for proc in (kept, fresh):
                act(proc, action)
            if action[0] != "step":
                continue
            _, dt, w = action
            work = POINT_WORK[w]
            if work is not None:
                forget_points(fresh)
                assert bits(kept.preview_progress_rate(work)) == bits(
                    fresh.preview_progress_rate(work)
                )
            forget_points(fresh)
            assert bits(kept.step(dt, work)) == bits(fresh.step(dt, work))
            assert bits(kept.snapshot) == bits(fresh.snapshot)
            assert processor_counters(kept) == processor_counters(fresh)
            assert bits(kept.dvfs.effective_freq()) == bits(
                fresh.dvfs.effective_freq()
            )

    def test_an_unchanged_point_is_reused(self):
        proc = SimulatedProcessor(yeti_socket_config())
        work = LEAN_WORK[1]
        for _ in range(30):  # until the uncore governor settles
            proc.step(0.01, work)
        lookups = []
        proc.perf.instantaneous = lambda *a: lookups.append(a)
        proc.dvfs.governor.requested_freq = lambda cfg: lookups.append(cfg)
        before = proc.snapshot
        proc.preview_progress_rate(work)
        proc.step(0.01, work)
        assert lookups == []
        assert proc.snapshot[3:6] == before[3:6]
        assert proc.snapshot[3] is before[3] and proc.snapshot[5] is before[5]

    @pytest.mark.parametrize(
        "cfg",
        [
            replace(SocketConfig(), cstates=CStateConfig()),
            replace(SocketConfig(), uncore=replace(SocketConfig().uncore, die_count=2)),
        ],
        ids=["cstates", "multi-die"],
    )
    def test_cstate_and_multi_die_sockets_never_reuse(self, cfg):
        proc = SimulatedProcessor(cfg)
        work = replace(LEAN_WORK[1], idleness=0.3)
        for _ in range(5):
            proc.preview_progress_rate(work)
            proc.step(0.01, work)
            assert proc._point is None

    def test_scenario_reaches_prochot_and_the_avx_license(self):
        proc = SimulatedProcessor(LEAN_CFG)
        tripped = False
        aperf = 0.0
        for _ in range(40):
            proc.step(0.01, LEAN_WORK[3])
            tripped |= proc.thermal.prochot
            assert proc.state.core_freq_hz <= 2.4e9
            # APERF counts the P-state clock, before AVX and PROCHOT.
            aperf += proc.dvfs.effective_freq() * 0.01
            assert proc.dvfs._aperf_cycles == aperf
        assert tripped

    def test_repeated_reads_return_one_object(self):
        proc, gpu = SimulatedProcessor(LEAN_CFG), SimulatedGPU()
        for dev, work in ((proc, LEAN_WORK[1]), (gpu, GPUKernel("k", 1e12, 1e11))):
            with pytest.raises(SimulationError):
                _ = dev.state
            dev.step(0.01, work)
            first = dev.state
            assert dev.state is first and dev.state is first
            dev.step(0.01, work)
            assert dev.state is not first
            assert dev.state.time_s == 0.02

    @MEMO
    @given(
        calls=st.lists(st.tuples(gpu_args, st.booleans()), min_size=1, max_size=30)
    )
    def test_gpu_snapshot_on_read(self, calls):
        eager, sparse = SimulatedGPU(), SimulatedGPU()
        for (work, limit, dt), read in calls:
            kernel = gpu_kernel(work)
            for gpu in (eager, sparse):
                gpu.set_power_limit(limit)
            assert bits(eager.step(dt, kernel)) == bits(sparse.step(dt, kernel))
            seen = eager.state
            if read:
                got = sparse.state
                assert bits(astuple(got)) == bits(astuple(seen))
                assert sparse.state is got
        assert bits((eager.energy_j, eager.now_s)) == bits(
            (sparse.energy_j, sparse.now_s)
        )
        assert bits(astuple(sparse.state)) == bits(astuple(eager.state))

    def test_stepper_done_tracks_every_socket(self):
        apps = [build_application(name, scale=0.05) for name in ("EP", "CG")]
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        engine = build_engine(
            apps,
            as_spec("dufp").build(cfg),
            controller_cfg=cfg,
            noise=NoiseConfig(),
            seed=3,
            record_trace=False,
        )
        assert engine.machine.socket_count == 2
        stepper = engine.stepper()
        finished = [p.finish_time_s is not None for p in stepper.progress]
        assert stepper.done is all(finished) is False
        split = 0
        try:
            while not stepper.done:
                stepper.tick()
                finished = [p.finish_time_s is not None for p in stepper.progress]
                assert stepper.done is all(finished)
                split += any(finished) and not all(finished)
        finally:
            stepper.close()
        assert split > 0  # one socket idled while the other still ran
        assert stepper.result().execution_time_s > 0


class TestBatchMemoryBounded:
    """A batch's memos hold at most a few entries, however long it runs.

    Memos keyed on raw float values or on the bytes of whole lane
    arrays grow with lanes × ticks; at the paper grid's size they held
    about half of the engine's peak memory while almost never hitting.
    """

    @pytest.fixture(scope="class", params=[0.05, 0.2])
    def batch(self, request) -> BatchSimulationEngine:
        cfg = ControllerConfig(tolerated_slowdown=0.10)
        engines = [
            build_engine(
                build_application(app, scale=request.param),
                as_spec(policy).build(cfg),
                controller_cfg=cfg,
                socket_count=sockets,
                noise=NoiseConfig(),
                seed=7,
            )
            for app, sockets in (("CG", 1), ("LAMMPS", 2))
            for policy in ("duf", "dufp")
        ]
        batch = BatchSimulationEngine(engines)
        batch.run()
        return batch

    def test_dict_entries_do_not_grow_with_simulated_time(self, batch):
        entries = sum(
            len(v)
            for owner in (batch, batch.physics, batch.lane_runtime)
            for v in vars(owner).values()
            if isinstance(v, dict)
        )
        assert entries <= 64

    def test_noise_blocks_do_not_grow_with_simulated_time(self, batch):
        """Prefetched noise is one fixed block per run, refilled in place."""
        bound = sum(
            noise_block_len(e.machine.socket_count) for e in batch.engines
        )
        assert 0 < batch.lane_runtime._nz.size <= bound
