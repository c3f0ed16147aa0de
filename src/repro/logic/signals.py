"""Wires and logic values for the event-driven simulator."""

from __future__ import annotations

from typing import List

from ..errors import LogicSimulationError

#: Logic low.
LOW = 0
#: Logic high.
HIGH = 1
#: Unresolved value (before the first assignment reaches a wire).
UNKNOWN = -1

_VALID_DRIVES = (LOW, HIGH)


class Wire:
    """A single-bit net.

    Attributes
    ----------
    name:
        Diagnostic name.
    value:
        Current logic value (``LOW``, ``HIGH`` or ``UNKNOWN``).
    fanout:
        Gate indices (into the simulator's gate list) re-evaluated when
        this wire changes.
    """

    __slots__ = ("name", "value", "fanout")

    def __init__(self, name: str):
        self.name = name
        self.value = UNKNOWN
        self.fanout: List[int] = []

    def drive(self, value: int) -> bool:
        """Set the wire value; return True if it changed.

        Raises
        ------
        LogicSimulationError
            If the value is not LOW/HIGH.
        """
        if value not in _VALID_DRIVES:
            raise LogicSimulationError(
                f"wire {self.name!r} driven with invalid value {value!r}"
            )
        changed = value != self.value
        self.value = value
        return changed
