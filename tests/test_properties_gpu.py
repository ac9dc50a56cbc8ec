"""Property-based tests on the GPU model.

The budget allocator's properties live in ``test_properties_allocator.py``.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.hardware.gpu import GPUConfig, GPUKernel, SimulatedGPU

# Hypothesis GPU-property sweeps: tier 2 (`pytest -m slow`).
pytestmark = pytest.mark.slow


@given(
    limit=st.floats(min_value=100.0, max_value=300.0),
    flops=st.floats(min_value=1e11, max_value=2e13),
    ratio=st.floats(min_value=4.0, max_value=64.0),
)
@settings(max_examples=60)
def test_gpu_power_respects_limit(limit, flops, ratio):
    gpu = SimulatedGPU()
    gpu.set_power_limit(limit)
    gpu.step(0.01, GPUKernel("k", flops=flops, bytes=flops / ratio))
    cfg = GPUConfig()
    # The device throttles to its lowest clock if it must; only at the
    # clock floor may power exceed the limit (like RAPL at deep caps).
    if gpu.state.freq_hz > cfg.min_freq_hz:
        assert gpu.state.power_w <= limit + 1e-9


@given(
    lo=st.floats(min_value=0.3e9, max_value=1.5e9),
    span=st.floats(min_value=0.0, max_value=1.0e9),
    step=st.floats(min_value=1e6, max_value=200e6),
    limit=st.floats(min_value=100.0, max_value=300.0),
    util=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100)
def test_gpu_clock_never_exceeds_max(lo, span, step, limit, util):
    cfg = GPUConfig(min_freq_hz=lo, max_freq_hz=lo + span, step_hz=step)
    gpu = SimulatedGPU(cfg)
    gpu.set_power_limit(limit)
    f = gpu.max_freq_under_limit(util)
    assert cfg.min_freq_hz <= f <= cfg.max_freq_hz


@given(
    flops=st.floats(min_value=1e11, max_value=2e13),
    ratio=st.floats(min_value=4.0, max_value=64.0),
)
@settings(max_examples=60)
def test_gpu_kernel_time_monotone_in_clock(flops, ratio):
    gpu = SimulatedGPU()
    kernel = GPUKernel("k", flops=flops, bytes=flops / ratio)
    t_fast = gpu.kernel_time(kernel, 1.38e9)
    t_slow = gpu.kernel_time(kernel, 0.8e9)
    assert t_slow >= t_fast - 1e-12
