"""The uncore actuator: DUF's frequency stepping through MSR 0x620.

DUF pins the uncore by writing min-ratio = max-ratio into
``MSR_UNCORE_RATIO_LIMIT``; all movements here go through the same
register writes a real implementation issues via msr-tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ControllerConfig, UncoreConfig
from ..hardware.msr import MSR, set_bits
from ..interfaces.msr_tools import MSRTools

__all__ = ["UncoreActuator", "UncoreLanes"]

RATIO_HZ = 100e6


@dataclass
class UncoreActuator:
    """Stepped control of one socket's uncore frequency."""

    msr: MSRTools
    uncore_cfg: UncoreConfig
    cfg: ControllerConfig

    def __post_init__(self) -> None:
        self.uncore_cfg.validate()
        self.cfg.validate()

    # -- views ------------------------------------------------------------------

    @property
    def pinned_freq_hz(self) -> float:
        """The currently programmed max ratio (the pin point)."""
        ratio = self.msr.rdmsr(MSR.MSR_UNCORE_RATIO_LIMIT, field=(6, 0))
        return ratio * RATIO_HZ

    @property
    def measured_freq_hz(self) -> float:
        """The frequency the uncore actually runs at."""
        ratio = self.msr.rdmsr(MSR.MSR_UNCORE_PERF_STATUS, field=(6, 0))
        return ratio * RATIO_HZ

    @property
    def at_max(self) -> bool:
        return self.pinned_freq_hz >= self.uncore_cfg.max_freq_hz

    @property
    def at_min(self) -> bool:
        return self.pinned_freq_hz <= self.uncore_cfg.min_freq_hz

    # -- actions ----------------------------------------------------------------

    def _pin(self, freq_hz: float) -> None:
        freq_hz = min(
            max(freq_hz, self.uncore_cfg.min_freq_hz), self.uncore_cfg.max_freq_hz
        )
        ratio = int(round(freq_hz / RATIO_HZ))
        value = set_bits(set_bits(0, 6, 0, ratio), 14, 8, ratio)
        self.msr.wrmsr(MSR.MSR_UNCORE_RATIO_LIMIT, value)

    def decrease(self) -> bool:
        """One step down; returns ``False`` at the minimum."""
        if self.at_min:
            return False
        self._pin(self.pinned_freq_hz - self.cfg.uncore_step_hz)
        return True

    def increase(self) -> bool:
        """One step up; returns ``False`` at the maximum."""
        if self.at_max:
            return False
        self._pin(self.pinned_freq_hz + self.cfg.uncore_step_hz)
        return True

    def reset(self) -> None:
        """Pin back to the maximum uncore frequency."""
        self._pin(self.uncore_cfg.max_freq_hz)

    def ensure_reset(self) -> bool:
        """Re-issue the reset if the uncore is not at the maximum.

        DUFP's second interaction rule: after a joint reset the applied
        uncore frequency can lag (the cap's effect is still visible),
        so the reset is checked and retried.  Returns ``True`` if a
        retry was needed.
        """
        if self.measured_freq_hz < self.uncore_cfg.max_freq_hz:
            self.reset()
            return True
        return False

    def release(self) -> None:
        """Hand control back to the hardware governor (full window)."""
        lo = int(round(self.uncore_cfg.min_freq_hz / RATIO_HZ))
        hi = int(round(self.uncore_cfg.max_freq_hz / RATIO_HZ))
        self.msr.wrmsr(
            MSR.MSR_UNCORE_RATIO_LIMIT, set_bits(set_bits(0, 6, 0, hi), 14, 8, lo)
        )


class UncoreLanes:
    """Lane-parallel mirror of :class:`UncoreActuator`.

    ``pin`` is the programmed ratio limit per lane (what
    :attr:`UncoreActuator.pinned_freq_hz` reads back).  The window and
    frequency arrays are *views into the batch engine's state*: a pin
    here is the vector equivalent of the MSR 0x620 write plus the
    driver's window snap, which — for ratio-grid frequencies between
    the socket's min and max — lands on the identical float.
    """

    __slots__ = (
        "pin",
        "_win_lo",
        "_win_hi",
        "_freq",
        "_min_hz",
        "_max_hz",
        "_step_hz",
    )

    def __init__(
        self,
        *,
        pin: np.ndarray,
        win_lo: np.ndarray,
        win_hi: np.ndarray,
        freq: np.ndarray,
        min_hz: float,
        max_hz: float,
        step_hz: np.ndarray,
    ):
        self.pin = pin
        self._win_lo = win_lo
        self._win_hi = win_hi
        self._freq = freq
        self._min_hz = min_hz
        self._max_hz = max_hz
        self._step_hz = np.asarray(step_hz, dtype=float)

    def _pin_to(self, idx: np.ndarray, freq_hz: np.ndarray) -> None:
        clamped = np.minimum(np.maximum(freq_hz, self._min_hz), self._max_hz)
        new_pin = np.rint(clamped / RATIO_HZ) * RATIO_HZ
        self.pin[idx] = new_pin
        self._win_lo[idx] = new_pin
        self._win_hi[idx] = new_pin
        # The driver clamps the running frequency into the new window
        # immediately, exactly as a pinned scalar write does.
        self._freq[idx] = new_pin

    def decrease(self, idx: np.ndarray) -> np.ndarray:
        """One step down per lane; ``False`` marks lanes at the minimum."""
        can = self.pin[idx] > self._min_hz
        sub = idx[can]
        self._pin_to(sub, self.pin[sub] - self._step_hz[sub])
        return can

    def increase(self, idx: np.ndarray) -> np.ndarray:
        """One step up per lane; ``False`` marks lanes at the maximum."""
        can = self.pin[idx] < self._max_hz
        sub = idx[can]
        self._pin_to(sub, self.pin[sub] + self._step_hz[sub])
        return can

    def reset(self, idx: np.ndarray) -> None:
        """Pin every lane in ``idx`` back to the maximum frequency."""
        self._pin_to(idx, np.full(len(idx), self._max_hz))
