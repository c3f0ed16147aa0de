"""T1 — amplitude-modulation radio carrier Trojan.

"T1 is an amplitude modulation radio carrier Trojan capable of emitting
an electromagnetic (EM) wave at a frequency of 750 KHz ... activated
periodically when a counter reaches 21'h1FFFFF under the 33 MHz clock."

The trigger is a free-running 21-bit counter; on terminal count the
radio activates for a programmable burst.  While active, the payload's
round-synchronous switching is amplitude-modulated by the 750 kHz
carrier envelope, which is what the zero-span trace at 48 MHz recovers
as a smooth sinusoid (Figure 5a).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from .base import CycleWindow, Trojan

#: The 21-bit terminal count from the paper.
T1_TERMINAL = 0x1FFFFF

#: Carrier frequency [Hz].
T1_CARRIER_HZ = 750e3


class T1AmCarrier(Trojan):
    """T1: AM radio carrier, counter-triggered.

    Parameters
    ----------
    enabled:
        Master enable (the Trojan exists in the chip either way; when
        False the payload never activates but the counter still runs).
    start_count:
        Initial counter value.  The real period is 2^21 cycles
        (~63.6 ms at 33 MHz); experiments that must observe an
        activation inside a short window set this close to the
        terminal count.
    burst_cycles:
        Payload-active duration after each terminal count.
    payload_fraction:
        Fraction of payload cells switching at the burst peak.
    """

    name = "T1"

    def __init__(
        self,
        enabled: bool = True,
        start_count: int = 0,
        burst_cycles: int = 1 << 20,
        payload_fraction: float = 0.55,
    ):
        super().__init__(enabled)
        if not 0 <= start_count <= T1_TERMINAL:
            raise WorkloadError(
                f"start_count {start_count:#x} outside 0..{T1_TERMINAL:#x}"
            )
        if burst_cycles < 1:
            raise WorkloadError("burst_cycles must be >= 1")
        if not 0.0 < payload_fraction <= 1.0:
            raise WorkloadError("payload_fraction must be in (0, 1]")
        self.start_count = start_count
        self.burst_cycles = burst_cycles
        self.payload_fraction = payload_fraction
        self.reset()

    def reset(self) -> None:
        self._steps = 0
        self._last_cycle: int | None = None

    # -- trigger -------------------------------------------------------------

    def _advance_to(self, cycles: np.ndarray) -> np.ndarray:
        """Step the counter through ``cycles``; steps since reset at each.

        The first cycle observed after a reset costs one step; every
        later cycle costs its distance from the previous one.
        """
        last = cycles[0] - 1 if self._last_cycle is None else self._last_cycle
        previous = np.concatenate([[last], cycles[:-1]])
        deltas = cycles - previous
        if (deltas < 0).any():
            at = int(np.argmax(deltas < 0))
            raise WorkloadError(
                "T1 observed cycles out of order "
                f"({int(previous[at])} -> {int(cycles[at])}); call reset() "
                "between traces that restart time"
            )
        steps = self._steps + np.cumsum(deltas)
        self._steps = int(steps[-1])
        self._last_cycle = int(cycles[-1])
        return steps

    def active_window(self, window: CycleWindow) -> np.ndarray:
        steps = self._advance_to(window.cycle)
        if not self.enabled:
            return np.zeros(steps.shape, dtype=bool)
        # Step k (1-based) finds the counter at (start + k - 1) mod 2^21;
        # the terminal count restarts a burst spanning exactly
        # burst_cycles steps, starting with the terminal step itself.
        period = T1_TERMINAL + 1
        first_terminal = (T1_TERMINAL - self.start_count) % period + 1
        since = (steps - first_terminal) % period
        return (steps >= first_terminal) & (since < self.burst_cycles)

    # -- payload -------------------------------------------------------------

    def payload_window(self, window: CycleWindow) -> np.ndarray:
        return am_carrier_payload(self.n_cells, self.payload_fraction, window)


def am_carrier_payload(
    n_cells: int, payload_fraction: float, window: CycleWindow
) -> np.ndarray:
    """AM-radio payload toggles: the 750 kHz carrier over the bursts.

    The carrier envelope is evaluated with libm (``math.sin``) cycle by
    cycle: a SIMD ``np.sin`` may differ in the last ulp.
    """
    envelope = np.array(
        [
            0.5 * (1.0 + math.sin(2.0 * math.pi * T1_CARRIER_HZ * time_s))
            for time_s in window.time_s.tolist()
        ]
    )
    return n_cells * payload_fraction * envelope * window.burst()
