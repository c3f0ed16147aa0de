"""T2 — key-wire inverter-chain leakage amplifier.

"T2 is a chain of inverters connected to a key wire to amplify its
leakage current.  If T2 is implanted, attackers could recover the key
via power analysis ... T2 is triggered when the first four bytes of the
plaintext are 16'hAAAA."

The trigger value ``16'hAAAA`` is 16 bits, i.e. the first two plaintext
bytes both equal to 0xAA (the paper's "four bytes" vs "16'h" wording is
internally inconsistent; we follow the 16-bit constant and document the
choice).  While a matching block is being encrypted, the inverter chain
follows the key-schedule wires, so its switching tracks the
round-to-round Hamming distance of the round keys — block-aligned
bursts that switch on and off with the plaintext pattern (Figure 5b).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .base import CycleWindow, Trojan

#: Plaintext prefix that arms T2 (two bytes of 0xAA).
T2_TRIGGER_PREFIX = b"\xaa\xaa"


class T2KeyLeakInverters(Trojan):
    """T2: inverter chain on a key wire, plaintext-triggered.

    Parameters
    ----------
    enabled:
        Master enable.
    payload_fraction:
        Fraction of the chain toggling at full key-schedule swing.
    """

    name = "T2"

    def __init__(self, enabled: bool = True, payload_fraction: float = 0.80):
        super().__init__(enabled)
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        self.payload_fraction = payload_fraction

    def active_window(self, window: CycleWindow) -> np.ndarray:
        prefix = np.frombuffer(T2_TRIGGER_PREFIX, dtype=np.uint8)
        matched = (window.plaintext[:, : prefix.size] == prefix).all(axis=1)
        return matched & bool(self.enabled)

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        return key_wire_payload(self.n_cells, self.payload_fraction, window)

    def trigger_window(self, window: CycleWindow) -> np.ndarray:
        # The 16-bit comparator re-evaluates once per block load.
        return np.where(window.phase == 0, 3.0, 1.0)


def key_wire_payload(
    n_cells: int, payload_fraction: float, window: CycleWindow
) -> np.ndarray:
    """Inverter-chain toggles following the round-key swing."""
    key_swing = window.key_hd / 128.0
    return n_cells * payload_fraction * key_swing * window.burst()
