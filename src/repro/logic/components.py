"""Gate-level building blocks.

The fully combinational 4-to-16 decoder that expands ``PSA_sel[3:0]``
into T-gate control signals (Section V-A, "decoded into gate signals
for T-gates with the fully combinational decoder").
"""

from __future__ import annotations

from typing import List

from .signals import Wire
from .simulator import LogicSimulator


def build_decoder_4to16(
    sim: LogicSimulator, sel_prefix: str = "sel", out_prefix: str = "dec"
) -> tuple[List[Wire], List[Wire]]:
    """Build a fully combinational 4-to-16 one-hot decoder.

    Returns ``(select_bus, output_bus)``.  Output ``dec[i]`` goes high
    exactly when the select bus equals ``i``.
    """
    sel = sim.bus(sel_prefix, 4)
    sel_n = []
    for bit, wire in enumerate(sel):
        inverted = sim.wire(f"{sel_prefix}_n[{bit}]")
        sim.gate("NOT", [wire], inverted)
        sel_n.append(inverted)
    outputs = []
    for code in range(16):
        literals = [
            sel[bit] if (code >> bit) & 1 else sel_n[bit] for bit in range(4)
        ]
        out = sim.wire(f"{out_prefix}[{code}]")
        sim.gate("AND", literals, out)
        outputs.append(out)
    return sel, outputs
