"""Event-driven simulation kernel.

A classic inertial-delay event simulator: driving a primary input
schedules the fanout gates; each gate evaluation that changes its output
schedules its own fanout ``delay`` time units later.  Used to simulate
the PSA control decoder and the Trojan trigger logic at the gate level.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Sequence, Tuple

from ..errors import LogicSimulationError
from .gates import Gate
from .signals import UNKNOWN, Wire


class LogicSimulator:
    """Owns wires, gates and the event queue.

    Typical usage::

        sim = LogicSimulator()
        a = sim.wire("a"); b = sim.wire("b"); y = sim.wire("y")
        sim.gate("AND", [a, b], y)
        sim.set_inputs({"a": 1, "b": 1})
        sim.run()
        assert y.value == 1
    """

    def __init__(self, max_events: int = 1_000_000):
        self._wires: Dict[str, Wire] = {}
        self._gates: List[Gate] = []
        self._queue: List[Tuple[int, int, int]] = []  # (time, seq, gate_idx)
        self._seq = itertools.count()
        self._now = 0
        self._max_events = max_events
        self.events_processed = 0

    # -- construction --------------------------------------------------------

    def wire(self, name: str) -> Wire:
        """Create (or fetch) the wire called ``name``."""
        if name in self._wires:
            return self._wires[name]
        wire = Wire(name)
        self._wires[name] = wire
        return wire

    def bus(self, prefix: str, width: int) -> List[Wire]:
        """Create ``width`` wires named ``prefix[0]..prefix[width-1]``."""
        if width < 1:
            raise LogicSimulationError(f"bus width must be >= 1, got {width}")
        return [self.wire(f"{prefix}[{bit}]") for bit in range(width)]

    def gate(
        self,
        kind: str,
        inputs: Sequence[Wire],
        output: Wire,
        delay: int = 1,
    ) -> Gate:
        """Add a gate and register its fanout."""
        for wire in inputs:
            if wire.name not in self._wires:
                raise LogicSimulationError(
                    f"input wire {wire.name!r} does not belong to this "
                    "simulator"
                )
        gate = Gate(kind, inputs, output, delay)
        index = len(self._gates)
        self._gates.append(gate)
        for wire in gate.inputs:
            wire.fanout.append(index)
        return gate

    # -- stimulus ------------------------------------------------------------

    def set_inputs(self, assignments: Dict[str, int]) -> None:
        """Drive primary inputs; schedules affected gates at t=now."""
        for name, value in assignments.items():
            if name not in self._wires:
                raise LogicSimulationError(f"no wire named {name!r}")
            wire = self._wires[name]
            if wire.drive(value):
                self._schedule_fanout(wire, self._now)

    def _schedule_fanout(self, wire: Wire, when: int) -> None:
        for gate_idx in wire.fanout:
            heapq.heappush(self._queue, (when, next(self._seq), gate_idx))

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Process events until quiescence (or time ``until``).

        Returns the simulation time after the last processed event.

        Raises
        ------
        LogicSimulationError
            If the event budget is exhausted (combinational loop).
        """
        while self._queue:
            when, _seq, gate_idx = self._queue[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._queue)
            self._now = max(self._now, when)
            self.events_processed += 1
            if self.events_processed > self._max_events:
                raise LogicSimulationError(
                    "event budget exhausted — combinational loop or "
                    "oscillation in the design"
                )
            gate = self._gates[gate_idx]
            value = gate.evaluate()
            if value == UNKNOWN:
                continue
            if gate.output.drive(value):
                self._schedule_fanout(gate.output, self._now + gate.delay)
        return self._now

    def settle(self, assignments: Dict[str, int]) -> int:
        """Drive inputs then run to quiescence; returns settle time."""
        start = self._now
        self.set_inputs(assignments)
        self.run()
        return self._now - start
