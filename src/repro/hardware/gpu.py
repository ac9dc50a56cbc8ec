"""A simulated GPU: the paper's future-work co-processor.

The paper closes by asking whether a shared power budget can be shifted
between a CPU and a GPU according to their needs (§VII).  This module
supplies the GPU half at the same granularity as the CPU socket model:
a roofline execution model (SM compute roof vs HBM bandwidth roof), a
``P = static + k·V²·f`` power model over a boost-clock range, and an
nvidia-smi-style software power limit that the device honours by
down-clocking — the exact mechanism of ``nvidia-smi -pl``.

The model is deliberately V100-shaped: ~7 TFLOP/s FP64, ~900 GB/s HBM2,
250 W board power, 300 W limit ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..errors import ConfigurationError, HardwareError, SimulationError
from ..units import nan_free, smooth_max, zero_signs

__all__ = [
    "GPUConfig",
    "GPUKernel",
    "GPUNodeConfig",
    "SimulatedGPU",
    "GPUState",
]


def _require_finite(owner: str, **values: float) -> None:
    """Reject NaN and ±inf, which every ordering check lets through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{owner}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GPUConfig:
    """A V100-class accelerator."""

    #: Boost-clock range, Hz.
    min_freq_hz: float = 0.8e9
    max_freq_hz: float = 1.38e9
    step_hz: float = 15e6
    #: FP64 FLOPs per SM clock across the device (80 SMs x 32 lanes x 2).
    flops_per_hz: float = 5120.0
    #: HBM2 bandwidth, bytes/s (clock-independent in this model).
    hbm_bw_bytes: float = 900e9
    #: Idle/static board power, watts.
    static_w: float = 40.0
    #: Dynamic coefficient, watts per (GHz · V²).
    k_dyn: float = 170.0
    #: Voltage at the min/max boost clock.
    v_min: float = 0.75
    v_max: float = 1.00
    #: Default software power limit (board TDP), watts.
    power_limit_default_w: float = 250.0
    #: Lowest accepted software power limit, watts.
    power_limit_floor_w: float = 100.0

    def validate(self) -> None:
        _require_finite("GPU", **{f.name: getattr(self, f.name) for f in fields(self)})
        if not 0 < self.min_freq_hz <= self.max_freq_hz:
            raise ConfigurationError("GPU clock range invalid")
        if self.step_hz <= 0 or self.flops_per_hz <= 0 or self.hbm_bw_bytes <= 0:
            raise ConfigurationError("GPU throughput parameters must be positive")
        if self.static_w < 0 or self.k_dyn <= 0:
            raise ConfigurationError("GPU power parameters invalid")
        if not 0 < self.v_min <= self.v_max:
            raise ConfigurationError("GPU voltages invalid")
        if not 0 < self.power_limit_floor_w <= self.power_limit_default_w:
            raise ConfigurationError("GPU power limits invalid")

    def voltage_at(self, freq_hz: float) -> float:
        if self.max_freq_hz == self.min_freq_hz:
            return self.v_max
        t = (freq_hz - self.min_freq_hz) / (self.max_freq_hz - self.min_freq_hz)
        t = min(max(t, 0.0), 1.0)
        return self.v_min + t * (self.v_max - self.v_min)


@dataclass(frozen=True)
class GPUKernel:
    """One kernel launch: FLOPs plus HBM traffic."""

    name: str
    flops: float
    bytes: float

    def __post_init__(self) -> None:
        _require_finite(f"kernel {self.name!r}", flops=self.flops, bytes=self.bytes)
        if self.flops < 0 or self.bytes < 0:
            raise ConfigurationError(f"kernel {self.name!r}: negative work")
        if self.flops == 0 and self.bytes == 0:
            raise ConfigurationError(f"kernel {self.name!r}: no work")


@dataclass(frozen=True)
class GPUNodeConfig:
    """The GPU side of a heterogeneous node, as carried by a run spec.

    Describes everything the hetero engine needs beyond the CPU socket:
    how many accelerators share the node budget, the uniform kernel
    queue each one executes, and the host↔device link whose effective
    bandwidth scales with the *CPU uncore* frequency — the coupling
    measured by *Exploring Uncore Frequency Scaling for Heterogeneous
    Computing* (PAPERS.md): PCIe/NVLink transfers ride the uncore
    (mesh + IIO) clock, so an uncore-scaling controller on the host
    directly moves accelerator transfer time.

    Frozen, picklable and canonically hashable, so it folds into
    :func:`~repro.experiments.executor.spec_key` cache addresses when
    attached to a :class:`~repro.experiments.executor.RunSpec`.
    """

    #: The accelerator model every GPU of the node shares.
    gpu: GPUConfig = field(default_factory=GPUConfig)
    #: Number of identical GPUs under the shared budget.
    gpu_count: int = 1
    #: Kernels in the node-wide queue (distributed round-robin).
    kernel_count: int = 8
    #: FP64 FLOPs per kernel.
    kernel_flops: float = 6e12
    #: HBM traffic per kernel, bytes.
    kernel_bytes: float = 0.75e12
    #: Host→device input staged before each kernel, bytes.
    input_bytes: float = 2e9
    #: Device→host output drained after each kernel, bytes.
    output_bytes: float = 1e9
    #: Peak host↔device link bandwidth at the maximum uncore clock,
    #: bytes/s (PCIe gen3 x16-shaped).
    link_bw_bytes: float = 16e9
    #: Fraction of the link bandwidth that scales with the CPU uncore
    #: frequency: ``bw = link_bw · (1 - s + s · f_uncore / f_uncore_max)``.
    #: 0 decouples transfers from the uncore; 1 makes them fully
    #: proportional.
    link_uncore_sensitivity: float = 0.6

    def validate(self) -> None:
        self.gpu.validate()
        _require_finite(
            "GPU node",
            kernel_flops=self.kernel_flops,
            kernel_bytes=self.kernel_bytes,
            input_bytes=self.input_bytes,
            output_bytes=self.output_bytes,
            link_bw_bytes=self.link_bw_bytes,
            link_uncore_sensitivity=self.link_uncore_sensitivity,
        )
        if self.gpu_count < 1:
            raise ConfigurationError("node needs at least one GPU")
        if self.kernel_count < 1:
            raise ConfigurationError("kernel queue cannot be empty")
        if self.kernel_flops < 0 or self.kernel_bytes < 0:
            raise ConfigurationError("kernel work must be non-negative")
        if self.kernel_flops == 0 and self.kernel_bytes == 0:
            raise ConfigurationError("kernels must carry some work")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ConfigurationError("transfer sizes must be non-negative")
        if self.link_bw_bytes <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if not 0.0 <= self.link_uncore_sensitivity <= 1.0:
            raise ConfigurationError("link_uncore_sensitivity must be in [0, 1]")

    def build_kernels(self) -> list[GPUKernel]:
        """The node-wide kernel queue described by this config."""
        return [
            GPUKernel(
                f"kernel[{i}]", flops=self.kernel_flops, bytes=self.kernel_bytes
            )
            for i in range(self.kernel_count)
        ]

    def link_bw_at(self, uncore_frac: float) -> float:
        """Effective host↔device bandwidth at an uncore fraction.

        ``uncore_frac`` is the CPU uncore clock as a fraction of its
        maximum; the insensitive share of the link is always available.
        """
        frac = min(max(uncore_frac, 0.0), 1.0)
        s = self.link_uncore_sensitivity
        return self.link_bw_bytes * (1.0 - s + s * frac)


@dataclass(frozen=True)
class GPUState:
    """Snapshot after a step."""

    time_s: float
    freq_hz: float
    power_w: float
    flops_rate: float
    utilisation: float


@dataclass
class SimulatedGPU:
    """The device: clocks, power limit, kernel execution, energy."""

    config: GPUConfig = field(default_factory=GPUConfig)
    power_limit_w: float = 0.0
    energy_j: float = 0.0
    now_s: float = 0.0
    #: What the last step recorded for its snapshot: ``(now_s, point)``.
    _snap: tuple | None = None
    #: The :class:`GPUState` built from ``_snap`` on the first
    #: :attr:`state` read after a step; ``None`` until then.
    _last_state: GPUState | None = field(default=None, repr=False, compare=False)
    #: ``_operating_point`` results by ``(flops, bytes, power_limit_w)``,
    #: ``()`` for idle.  A kernel runs for ~100 ticks and the limit moves
    #: once per re-allocation, so a run revisits a few dozen keys; the
    #: memo dies with its device.
    _points: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.config.validate()
        if not math.isfinite(self.power_limit_w):
            raise HardwareError(f"power limit {self.power_limit_w!r} W is not finite")
        if self.power_limit_w == 0.0:
            self.power_limit_w = self.config.power_limit_default_w

    # -- nvidia-smi style controls ---------------------------------------------

    def set_power_limit(self, watts: float) -> None:
        """``nvidia-smi -pl``: clamp the board's power target."""
        cfg = self.config
        if not cfg.power_limit_floor_w <= watts <= cfg.power_limit_default_w * 1.2:
            raise HardwareError(
                f"power limit {watts!r} W outside "
                f"[{cfg.power_limit_floor_w}, {cfg.power_limit_default_w * 1.2}]"
            )
        self.power_limit_w = watts

    def reset_power_limit(self) -> None:
        self.power_limit_w = self.config.power_limit_default_w

    # -- power/perf model ---------------------------------------------------------

    def power_at(self, freq_hz: float, utilisation: float) -> float:
        """Board power at a clock and utilisation."""
        if not 0.0 <= utilisation <= 1.0:
            raise HardwareError("utilisation must be in [0, 1]")
        v = self.config.voltage_at(freq_hz)
        return self.config.static_w + self.config.k_dyn * v * v * (
            freq_hz / 1e9
        ) * (0.3 + 0.7 * utilisation)

    def max_freq_under_limit(self, utilisation: float) -> float:
        """Highest boost clock whose power fits the software limit.

        The grid ``min + i·step`` need not land on ``max``; its top
        candidate is clamped there rather than overshooting.
        """
        cfg = self.config
        steps = int(round((cfg.max_freq_hz - cfg.min_freq_hz) / cfg.step_hz))
        for i in range(steps, -1, -1):
            f = min(cfg.min_freq_hz + i * cfg.step_hz, cfg.max_freq_hz)
            if self.power_at(f, utilisation) <= self.power_limit_w:
                return f
        return cfg.min_freq_hz

    def kernel_time(self, kernel: GPUKernel, freq_hz: float) -> float:
        """Roofline execution time of one kernel at a clock."""
        t_c = kernel.flops / (self.config.flops_per_hz * freq_hz)
        t_m = kernel.bytes / self.config.hbm_bw_bytes
        return smooth_max(t_c, t_m, 4.0)

    # -- stepping --------------------------------------------------------------------

    def step(self, dt_s: float, kernel: GPUKernel | None) -> float:
        """Advance ``dt_s`` running ``kernel`` (or idle); returns progress.

        The operating point is memoised on ``(flops, bytes,
        power_limit_w)``: a hit returns the tuple an earlier call
        computed from equal inputs.  A zero volume adds the volumes'
        signs to the key (a ``-0.0``-flops kernel runs at a ``-0.0``
        rate), and a NaN key is never stored.
        """
        if not dt_s > 0:  # NaN too: it would make idle progress NaN
            raise SimulationError(f"gpu step: dt {dt_s!r} is not positive")
        if kernel is None:
            key = ()
        else:
            flops, bytes_ = kernel.flops, kernel.bytes
            key = (flops, bytes_, self.power_limit_w)
            if not (flops and bytes_):
                key += zero_signs(flops, bytes_)
        point = self._points.get(key)
        if point is None:
            point = self._operating_point(kernel)
            if nan_free(key):
                self._points[key] = point
        self.energy_j += point[1] * dt_s
        self.now_s += dt_s
        self._snap = (self.now_s, point)
        self._last_state = None
        return min(dt_s / point[2], 1.0)

    def _operating_point(
        self, kernel: GPUKernel | None
    ) -> tuple[float, float, float, float, float]:
        """``(freq, power, t, rate, util)`` running ``kernel`` under the
        current limit; idle never finishes anything (``t = inf``)."""
        cfg = self.config
        if kernel is None:
            freq = cfg.min_freq_hz
            return freq, self.power_at(freq, 0.0), math.inf, 0.0, 0.0
        # Utilisation: compute-roof share of the kernel's time.
        t_full = self.kernel_time(kernel, cfg.max_freq_hz)
        t_c = kernel.flops / (cfg.flops_per_hz * cfg.max_freq_hz)
        util = min(t_c / t_full, 1.0) if t_full > 0 else 0.0
        freq = self.max_freq_under_limit(util)
        t = self.kernel_time(kernel, freq)
        return freq, self.power_at(freq, util), t, kernel.flops / t, util

    @property
    def state(self) -> GPUState:
        """Snapshot after the most recent step, built on first read."""
        state = self._last_state
        if state is None:
            if self._snap is None:
                raise SimulationError("gpu has not stepped yet")
            now_s, (freq, power, _, rate, util) = self._snap
            state = self._last_state = GPUState(
                time_s=now_s,
                freq_hz=freq,
                power_w=power,
                flops_rate=rate,
                utilisation=util,
            )
        return state
