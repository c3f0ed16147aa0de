"""T3 — CDMA channel key leaker.

"T3 is a Code Division Multiple Access (CDMA) channel Trojan designed
to leak the key" — an always-on Trojan (external enable added for the
experiments) and the smallest of the four (329 cells), which is what
defeats the low-SNR prior methods.

The payload spreads key bits over a pseudo-noise (PN) code: an
m-sequence LFSR advances at the chip rate, each key bit covers one full
PN period, and the transmitted chip is ``key_bit XOR pn``.  Switching
happens while the chip line is high, producing the pseudo-random binary
envelope of Figure 5c.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import WorkloadError
from .base import CycleWindow, ExternallyEnabledTrojan

#: PN sequence length (6-bit m-sequence).
PN_PERIOD = 63


def _msequence(taps: Tuple[int, ...] = (0, 1), width: int = 6) -> List[int]:
    """Generate one period of a maximal-length LFSR sequence.

    Right-shifting Fibonacci LFSR over GF(2) implementing
    x^6 + x^5 + 1 (feedback from bits 0 and 1 in this orientation),
    which is maximal for width 6: period 63.
    """
    state = 1
    sequence = []
    for _ in range((1 << width) - 1):
        sequence.append(state & 1)
        feedback = 0
        for tap in taps:
            feedback ^= (state >> tap) & 1
        state = (state >> 1) | (feedback << (width - 1))
    return sequence


#: One period of the spreading code.
PN_SEQUENCE: List[int] = _msequence()
_PN = np.array(PN_SEQUENCE)


class T3CdmaLeaker(ExternallyEnabledTrojan):
    """T3: CDMA key leaker (always-on, externally enabled).

    Parameters
    ----------
    enabled:
        External enable signal (the experiments' trigger).
    key:
        The key whose bits are being leaked.
    chip_cycles:
        Clock cycles per PN chip (chip rate = f_clock / chip_cycles).
    payload_fraction:
        Fraction of payload cells toggling during a high chip.
    """

    name = "T3"

    def __init__(
        self,
        enabled: bool = False,
        key: bytes = b"\x00" * 16,
        chip_cycles: int = 22,
        payload_fraction: float = 1.0,
    ):
        super().__init__(enabled)
        if len(key) != 16:
            raise WorkloadError(f"key must be 16 bytes, got {len(key)}")
        if chip_cycles < 1:
            raise WorkloadError("chip_cycles must be >= 1")
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        self.key_bits = np.array(
            [(byte >> bit) & 1 for byte in key for bit in range(8)]
        )
        self.chip_cycles = chip_cycles
        self.payload_fraction = payload_fraction

    def _chip_values(self, cycles: np.ndarray) -> np.ndarray:
        chip_index = cycles // self.chip_cycles
        pn = _PN[chip_index % PN_PERIOD]
        key_bit = self.key_bits[(chip_index // PN_PERIOD) % self.key_bits.size]
        return key_bit ^ pn

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        return np.where(
            self._chip_values(window.cycle) != 0,
            self.n_cells * self.payload_fraction * window.burst(),
            0.0,
        )

    def trigger_window(self, window: CycleWindow) -> np.ndarray:
        # The PN LFSR itself keeps stepping at the chip rate.
        return np.where(window.cycle % self.chip_cycles == 0, 1.0, 0.5)
