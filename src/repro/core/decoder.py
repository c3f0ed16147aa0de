"""The PSA control decoder (gate level).

Section V-A: the four ``PSA_sel[3:0]`` pins "were decoded into gate
signals for T-gates with the fully combinational decoder".  The decoder
is built out of real gates and evaluated in the event-driven logic
simulator, so its functional correctness (one-hot outputs, glitch-free
settling) is testable, and it doubles as the tamper-evidence mechanism:
a decoder returning non-one-hot patterns fails the test phase.
"""

from __future__ import annotations

from typing import List

from ..errors import GridProgrammingError
from ..logic.components import build_decoder_4to16
from ..logic.simulator import LogicSimulator


class PsaDecoder:
    """Gate-level 4-to-16 selection decoder."""

    def __init__(self) -> None:
        self._sim = LogicSimulator()
        self._sel, self._outputs = build_decoder_4to16(
            self._sim, sel_prefix="PSA_sel", out_prefix="sensor_en"
        )
        self.select(0)

    def select(self, index: int) -> List[int]:
        """Drive ``PSA_sel`` and return the settled 16-bit one-hot output."""
        if not 0 <= index < 16:
            raise GridProgrammingError(f"selection {index} outside 0..15")
        assignments = {
            wire.name: (index >> bit) & 1
            for bit, wire in enumerate(self._sel)
        }
        self._sim.settle(assignments)
        return [wire.value for wire in self._outputs]

    def selected(self) -> int:
        """Currently selected sensor index (from the output pattern).

        Raises
        ------
        GridProgrammingError
            If the output is not one-hot (tamper evidence).
        """
        values = [wire.value for wire in self._outputs]
        highs = [idx for idx, value in enumerate(values) if value == 1]
        if len(highs) != 1:
            raise GridProgrammingError(
                f"decoder output is not one-hot: {values} — "
                "possible tampering"
            )
        return highs[0]
