"""Package thermal model: temperature, TDP and PROCHOT throttling.

The paper's background (§II-B) grounds power capping in thermals: TDP
is "the maximum amount of power that can be dissipated by the processor
cooling systems", and RAPL's default long-term limit equals it.  This
module closes that loop with a first-order thermal RC model:

``dT/dt = (P · R_th − (T − T_amb)) / τ``

so sustained power `P` settles at ``T_amb + P · R_th``.  With the
default constants, running at the 125 W TDP settles around 84 °C —
comfortably below the 96 °C PROCHOT trip — which is exactly the
guarantee TDP encodes.  Power spikes above TDP are absorbed by the
package's thermal mass (τ ≈ 8 s), mirroring why RAPL's short-term
limit may exceed TDP "for a short time".

If temperature does reach the trip point (undersized cooling, raised
limits), PROCHOT clamps the core frequency until the package cools —
a safety net beneath RAPL, not a control knob.

Readouts use the architectural registers: ``IA32_THERM_STATUS``
(0x19C) exposes the *digital readout* — degrees below the trip point —
and ``MSR_TEMPERATURE_TARGET`` (0x1A2) the trip point itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import ThermalConfig
from ..errors import HardwareError
from .msr import MSRFile, set_bits

__all__ = ["ThermalConfig", "ThermalModel", "MSR_IA32_THERM_STATUS", "MSR_TEMPERATURE_TARGET"]

MSR_IA32_THERM_STATUS = 0x19C
MSR_TEMPERATURE_TARGET = 0x1A2


@dataclass
class ThermalModel:
    """First-order package temperature with PROCHOT."""

    cfg: ThermalConfig
    temperature_c: float = 0.0
    prochot: bool = False

    def __post_init__(self) -> None:
        self.cfg.validate()
        if self.temperature_c == 0.0:
            self.temperature_c = self.cfg.ambient_c

    def step(self, dt_s: float, power_w: float) -> None:
        """Advance the RC model and update the PROCHOT latch."""
        if not dt_s > 0:  # NaN too: it would poison the temperature
            raise HardwareError(f"step: dt {dt_s!r} is not positive")
        if not power_w >= 0:
            raise HardwareError(f"step: power {power_w!r} W is not non-negative")
        target = self.cfg.steady_state_c(power_w)
        alpha = 1.0 - math.exp(-dt_s / self.cfg.tau_s)
        self.temperature_c += alpha * (target - self.temperature_c)
        if self.temperature_c >= self.cfg.t_prochot_c:
            self.prochot = True
        elif self.temperature_c <= self.cfg.t_prochot_c - self.cfg.hysteresis_c:
            self.prochot = False

    def freq_clamp_hz(self) -> float:
        """The PROCHOT frequency clamp (infinite when not asserted)."""
        return self.cfg.prochot_freq_hz if self.prochot else math.inf

    @property
    def headroom_c(self) -> float:
        """Degrees below the trip point (the digital readout)."""
        return max(self.cfg.t_prochot_c - self.temperature_c, 0.0)

    # -- MSR wiring ------------------------------------------------------------

    def attach_msrs(self, msrs: MSRFile) -> None:
        """Expose IA32_THERM_STATUS / MSR_TEMPERATURE_TARGET."""

        def _read_status() -> int:
            v = set_bits(0, 0, 0, int(self.prochot))
            # Digital readout: degrees below the trip, bits 22:16.
            readout = min(int(self.headroom_c), 0x7F)
            v = set_bits(v, 22, 16, readout)
            v = set_bits(v, 31, 31, 1)  # readout valid
            return v

        msrs.define(MSR_IA32_THERM_STATUS, writable=False, read_hook=_read_status)
        msrs.define(
            MSR_TEMPERATURE_TARGET,
            writable=False,
            initial=set_bits(0, 23, 16, int(self.cfg.t_prochot_c)),
        )
