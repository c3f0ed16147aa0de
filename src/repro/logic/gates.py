"""Primitive gate behaviors for the event-driven simulator."""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..errors import LogicSimulationError
from .signals import HIGH, LOW, UNKNOWN, Wire

#: Evaluator signature: tuple of input values -> output value.
Evaluator = Callable[[Sequence[int]], int]


def _require_known(values: Sequence[int]) -> bool:
    """True when every input has settled to 0/1."""
    return all(value != UNKNOWN for value in values)


def _eval_buf(values: Sequence[int]) -> int:
    return values[0]


def _eval_not(values: Sequence[int]) -> int:
    return HIGH if values[0] == LOW else LOW


def _eval_and(values: Sequence[int]) -> int:
    return HIGH if all(v == HIGH for v in values) else LOW


def _eval_nand(values: Sequence[int]) -> int:
    return LOW if all(v == HIGH for v in values) else HIGH


def _eval_or(values: Sequence[int]) -> int:
    return HIGH if any(v == HIGH for v in values) else LOW


def _eval_nor(values: Sequence[int]) -> int:
    return LOW if any(v == HIGH for v in values) else HIGH


def _eval_xor(values: Sequence[int]) -> int:
    ones = sum(1 for v in values if v == HIGH)
    return HIGH if ones % 2 else LOW


def _eval_xnor(values: Sequence[int]) -> int:
    return LOW if _eval_xor(values) == HIGH else HIGH


#: Supported gate types and their evaluators.
GATE_EVALUATORS: Dict[str, Evaluator] = {
    "BUF": _eval_buf,
    "NOT": _eval_not,
    "AND": _eval_and,
    "NAND": _eval_nand,
    "OR": _eval_or,
    "NOR": _eval_nor,
    "XOR": _eval_xor,
    "XNOR": _eval_xnor,
}

#: Single-input gate types (arity checked at construction).
_UNARY = {"BUF", "NOT"}


class Gate:
    """One combinational gate instance.

    Parameters
    ----------
    kind:
        A key of :data:`GATE_EVALUATORS`.
    inputs:
        Input wires (order matters only for diagnostics).
    output:
        Output wire.
    delay:
        Inertial propagation delay in simulator time units.
    """

    __slots__ = ("kind", "inputs", "output", "delay", "_evaluate")

    def __init__(
        self,
        kind: str,
        inputs: Sequence[Wire],
        output: Wire,
        delay: int = 1,
    ):
        if kind not in GATE_EVALUATORS:
            raise LogicSimulationError(f"unknown gate kind {kind!r}")
        if kind in _UNARY and len(inputs) != 1:
            raise LogicSimulationError(f"{kind} gate takes exactly one input")
        if kind not in _UNARY and len(inputs) < 2:
            raise LogicSimulationError(f"{kind} gate needs at least two inputs")
        if delay < 0:
            raise LogicSimulationError(f"negative gate delay {delay}")
        self.kind = kind
        self.inputs = list(inputs)
        self.output = output
        self.delay = delay
        self._evaluate = GATE_EVALUATORS[kind]

    def evaluate(self) -> int:
        """Current output value implied by the input wires.

        Returns UNKNOWN if any input is unresolved.
        """
        values = [wire.value for wire in self.inputs]
        if not _require_known(values):
            return UNKNOWN
        return self._evaluate(values)
