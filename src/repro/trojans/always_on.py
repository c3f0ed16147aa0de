"""Always-on Trojan variant family (no trigger, active from power-on).

The paper's four Trojans all expose a baseline→active transition the
run-time monitor can catch: T1/T2 carry trigger logic, T3/T4 carry
external enables the experimentalist asserts mid-stream.  A foundry
adversary does not have to be so polite.  This module models the
scenario class the rolling-Welford self-baseline is structurally blind
to — Trojans that are *already leaking when the chip powers up*, so
the monitored stream never transitions:

* :class:`T1AContinuousCarrier` — T1's AM radio payload with the
  trigger counter deleted; the 750 kHz carrier runs continuously.
* :class:`T2AContinuousLeaker` — T2's key-wire inverter chain wired
  straight to the key-schedule nets; leaks every block, no plaintext
  match.
* :class:`TPParametricDrift` — a parametric modification (skewed
  implants on a buffer bank) whose leakage component ramps with
  junction temperature over each measurement window; there is no
  digital trigger at all.

Detecting this class needs a *reference-free* statistic — anomalous
sideband energy against the same spectrum's own noise floor (the
spectral and persistence detectors of :mod:`repro.detectors`) rather
than against the stream's own history.

All three variants are registered in
:data:`~repro.trojans.base.EXTENDED_TROJAN_CELLS` (not Table II: the
fabricated test chip carries exactly T1..T4, and the netlist/gate-count
artifacts must keep saying so) and are only instantiated by
:meth:`~repro.chip.testchip.TestChip.make_trojans` when a scenario
names them — existing records are bit-identical with the family
present in the codebase.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .base import EXTENDED_TROJAN_CELLS, CycleWindow, Trojan
from .t1_am_carrier import am_carrier_payload
from .t2_leakage import key_wire_payload

#: Standard-cell counts of the variant family (plausible synthesis
#: results: the trigger/enable logic of the parent designs is gone,
#: the payload networks remain).
ALWAYS_ON_CELLS = {
    "T1A": 1530,
    "T2A": 1760,
    "TP": 640,
}
EXTENDED_TROJAN_CELLS.update(ALWAYS_ON_CELLS)

#: The variant scenario/Trojan names, in catalog order.
ALWAYS_ON_NAMES = ("T1A", "T2A", "TP")


class AlwaysOnTrojan(Trojan):
    """Base of the variant family: no trigger, no enable, no off state.

    Unlike :class:`~repro.trojans.base.ExternallyEnabledTrojan` (T3/T4,
    whose enables the experimentalist toggles), these Trojans have no
    control input of any kind — power-on *is* activation — and no
    trigger circuit ticking beside the payload, so there is nothing to
    transition and nothing for a self-baseline to learn against.
    """

    def __init__(self) -> None:
        super().__init__(enabled=True)

    def active_window(self, window: CycleWindow) -> np.ndarray:
        return np.ones(window.n_cycles, dtype=bool)

    def trigger_window(self, window: CycleWindow) -> np.ndarray:
        # No trigger/enable logic exists in this family.
        return np.zeros(window.n_cycles)


class T1AContinuousCarrier(AlwaysOnTrojan):
    """T1A: the AM radio payload of T1 with the counter deleted.

    The 750 kHz carrier amplitude-modulates the round-synchronous
    burst pattern continuously, so the 48/84 MHz sidebands are present
    from the first captured window.

    Parameters
    ----------
    payload_fraction:
        Fraction of payload cells switching at the carrier peak.
    """

    name = "T1A"
    site = "T1"

    def __init__(self, payload_fraction: float = 0.55):
        super().__init__()
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        self.payload_fraction = payload_fraction

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        return am_carrier_payload(self.n_cells, self.payload_fraction, window)


class T2AContinuousLeaker(AlwaysOnTrojan):
    """T2A: the key-wire inverter chain without the plaintext trigger.

    The chain follows the key-schedule wires on *every* block, so its
    switching tracks the fixed round-to-round Hamming distance of the
    round keys — a stationary block-synchronous signature with no
    workload dependence at all.

    Parameters
    ----------
    payload_fraction:
        Fraction of the chain toggling at full key-schedule swing.
    """

    name = "T2A"
    site = "T2"

    def __init__(self, payload_fraction: float = 0.80):
        super().__init__()
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        self.payload_fraction = payload_fraction

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        return key_wire_payload(self.n_cells, self.payload_fraction, window)


class TPParametricDrift(AlwaysOnTrojan):
    """TP: a parametric drift Trojan (skewed implants, no logic).

    Models a dopant-level modification of a buffer bank: the parasitic
    leakage path conducts from power-on and its strength ramps as the
    junctions heat over a measurement window, saturating after
    ``drift_cycles`` cycles.  The drift is a deterministic function of
    the cycle index, so records are bit-identical under a fixed
    :class:`~repro.config.SimConfig` seed, and every window of a
    monitoring stream sees the same saturated profile — stationary
    across windows (always-on class), drifting within each one.

    Parameters
    ----------
    payload_fraction:
        Fraction of the bank conducting at full drift.
    drift_floor:
        Leakage fraction already present at the window start (cold
        junctions).
    drift_cycles:
        Cycles to thermal saturation.
    """

    name = "TP"
    site = "T4"

    def __init__(
        self,
        payload_fraction: float = 0.70,
        drift_floor: float = 0.35,
        drift_cycles: int = 256,
    ):
        super().__init__()
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        if not 0.0 <= drift_floor <= 1.0:
            raise WorkloadError("drift_floor must be in [0, 1]")
        if drift_cycles < 1:
            raise WorkloadError("drift_cycles must be >= 1")
        self.payload_fraction = payload_fraction
        self.drift_floor = drift_floor
        self.drift_cycles = drift_cycles

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        drift = self.drift_floor + (1.0 - self.drift_floor) * np.minimum(
            1.0, window.cycle / self.drift_cycles
        )
        return self.n_cells * self.payload_fraction * drift * window.burst()
