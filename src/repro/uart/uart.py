"""Cycle model of the RS232 UART on the test chip.

The UART clocks at the 33 MHz system clock and shifts 8N1 frames at
the baud rate (115200 by default), so it contributes only a small, slow
switching-activity component — which is why the AES activity dominates
the EM spectra.  The model reports per-cycle toggle estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SimConfig
from ..errors import WorkloadError
from ..netlist.builder import MAIN_MODULE_TOTALS

#: Bits per 8N1 frame: one start bit, eight data bits, one stop bit.
FRAME_BITS = 10


@dataclass(frozen=True)
class UartConfig:
    """UART operating parameters.

    Attributes
    ----------
    baud_rate:
        Line rate [bits/s].
    """

    baud_rate: float = 115200.0

    def cycles_per_bit(self, config: SimConfig) -> int:
        """System-clock cycles per UART bit."""
        cycles = int(round(config.f_clock / self.baud_rate))
        if cycles < 1:
            raise WorkloadError(
                f"baud rate {self.baud_rate} exceeds the system clock"
            )
        return cycles


class Uart:
    """Activity model of the UART.

    Parameters
    ----------
    config:
        Simulation configuration.
    uart_config:
        UART parameters.
    """

    def __init__(self, config: SimConfig, uart_config: UartConfig | None = None):
        self.config = config
        self.uart_config = uart_config or UartConfig()

    def activity(self, transmitting: bool = True) -> np.ndarray:
        """Per-cycle toggle estimate over one trace window.

        The shift registers toggle once per baud interval; the FIFO and
        framing logic add a small constant floor.  Returns an array of
        shape ``(config.n_cycles,)``.
        """
        n_cycles = self.config.n_cycles
        toggles = np.zeros(n_cycles)
        core_cells = MAIN_MODULE_TOTALS["uart_core"]
        fifo_cells = MAIN_MODULE_TOTALS["uart_fifo"]
        # Constant floor: baud counter ticks every cycle.
        toggles += core_cells * 0.015
        if transmitting:
            cycles_per_bit = self.uart_config.cycles_per_bit(self.config)
            bit_edges = np.arange(0, n_cycles, cycles_per_bit)
            # A bit boundary reshuffles the shifter (~10% of core cells)
            # and occasionally pops a FIFO entry.
            toggles[bit_edges] += core_cells * 0.10
            byte_edges = bit_edges[::FRAME_BITS]
            toggles[byte_edges] += fifo_cells * 0.05
        return toggles
