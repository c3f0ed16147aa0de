"""Event-driven gate-level logic simulation substrate.

A compact digital simulator used for the structural piece of the test
chip that the paper describes at the gate level: the fully combinational
PSA_sel 4-to-16 decoder that drives the T-gate control lines.

The simulator is deliberately small: four-state-free (0/1 only, with an
explicit unknown at reset), inertial-delay gates, and a binary-heap
event queue.
"""

from .signals import Wire, LOW, HIGH, UNKNOWN
from .gates import GATE_EVALUATORS, Gate
from .simulator import LogicSimulator
from .components import build_decoder_4to16

__all__ = [
    "Wire",
    "LOW",
    "HIGH",
    "UNKNOWN",
    "Gate",
    "GATE_EVALUATORS",
    "LogicSimulator",
    "build_decoder_4to16",
]
