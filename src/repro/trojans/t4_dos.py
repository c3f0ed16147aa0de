"""T4 — denial-of-service heater.

"T4 is a simple denial-of-service Trojan that elevates power
consumption, potentially causing the IC to overheat" — always-on with
an external enable in the experiments.

The payload is a clocked power-virus bank (Trust-Hub DoS style): wide
toggle registers re-clocked from the system clock, each cell switching
several times per cycle through a local buffer chain.  Because the
bank is *synchronous with the main clock* (``clock_phase = "rising"``),
its current pulses add in phase with the main comb.  The current draw
follows the supply voltage, and the supply droops with main-circuit
activity, so the heater current is amplitude-modulated by the AES
block structure — that IR-drop coupling is what puts T4's signature at
the same 48/84 MHz sideband frequencies, while its zero-span envelope
stays aperiodic (Figure 5d).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .base import CycleWindow, ExternallyEnabledTrojan


class T4DosHeater(ExternallyEnabledTrojan):
    """T4: ring-oscillator heater bank (always-on, externally enabled).

    The droop reads ``window.aes_norm()``, the main circuit's activity
    per cycle summed over the die.  The chip computes it from per-module
    totals (``sum(weights) * toggles`` per module), so simulating a T4
    window builds no dense region-by-cycle matrix.

    Parameters
    ----------
    enabled:
        External enable signal.
    ro_toggle_rate:
        Transitions per payload cell per clock cycle (the toggle bank
        re-circulates through short buffer chains within the cycle).
    droop_coupling:
        Fractional current modulation per unit of normalized AES
        activity (IR-drop coupling).
    """

    name = "T4"
    clock_phase = "rising"

    def __init__(
        self,
        enabled: bool = False,
        ro_toggle_rate: float = 6.0,
        droop_coupling: float = 0.45,
    ):
        super().__init__(enabled)
        if ro_toggle_rate <= 0:
            raise WorkloadError("ro_toggle_rate must be positive")
        if not 0.0 <= droop_coupling < 1.0:
            raise WorkloadError("droop_coupling must be in [0, 1)")
        self.ro_toggle_rate = ro_toggle_rate
        self.droop_coupling = droop_coupling

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        modulation = 1.0 - self.droop_coupling * window.aes_norm()
        return self.n_cells * self.ro_toggle_rate * modulation

    def trigger_window(self, window: CycleWindow) -> np.ndarray:
        # Just the enable gating; nothing else switches when disabled.
        return np.full(window.n_cycles, 0.5)
