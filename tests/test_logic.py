"""Event-driven logic simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogicSimulationError
from repro.logic.components import build_decoder_4to16
from repro.logic.signals import HIGH, UNKNOWN, Wire, bus_value, drive_bus
from repro.logic.simulator import LogicSimulator


def test_wire_starts_unknown():
    wire = Wire("w")
    assert wire.value == UNKNOWN
    assert wire.drive(HIGH) is True
    assert wire.drive(HIGH) is False  # no change


def test_wire_rejects_bad_values():
    with pytest.raises(LogicSimulationError):
        Wire("w").drive(2)


def test_basic_gates_settle():
    sim = LogicSimulator()
    a, b = sim.wire("a"), sim.wire("b")
    for kind, expected in [
        ("AND", [0, 0, 0, 1]),
        ("OR", [0, 1, 1, 1]),
        ("XOR", [0, 1, 1, 0]),
        ("NAND", [1, 1, 1, 0]),
        ("NOR", [1, 0, 0, 0]),
        ("XNOR", [1, 0, 0, 1]),
    ]:
        out = sim.wire(f"out_{kind}")
        sim.gate(kind, [a, b], out)
        values = []
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            sim.settle({"a": bits[0], "b": bits[1]})
            values.append(out.value)
        assert values == expected, kind


def test_not_and_buf():
    sim = LogicSimulator()
    a = sim.wire("a")
    inv, buf = sim.wire("inv"), sim.wire("buf")
    sim.gate("NOT", [a], inv)
    sim.gate("BUF", [a], buf)
    sim.settle({"a": 1})
    assert (inv.value, buf.value) == (0, 1)


def test_chain_propagation_delay():
    """N chained inverters settle after N delay units."""
    sim = LogicSimulator()
    previous = sim.wire("in")
    for index in range(5):
        nxt = sim.wire(f"n{index}")
        sim.gate("NOT", [previous], nxt, delay=1)
        previous = nxt
    settle_time = sim.settle({"in": 0})
    # The first gate evaluates at t=0, so N inverters settle at t=N-1.
    assert settle_time == 4
    assert previous.value == 1


def test_unknown_inputs_do_not_propagate():
    sim = LogicSimulator()
    a, b = sim.wire("a"), sim.wire("b")
    out = sim.wire("out")
    sim.gate("AND", [a, b], out)
    sim.settle({"a": 1})  # b still unknown
    assert out.value == UNKNOWN


def test_oscillation_detected():
    sim = LogicSimulator(max_events=1000)
    a = sim.wire("a")
    sim.gate("NOT", [a], a)  # combinational loop
    with pytest.raises(LogicSimulationError):
        sim.settle({"a": 0})


def test_bus_helpers():
    sim = LogicSimulator()
    bus = sim.bus("d", 4)
    drive_bus(bus, 0b1010)
    assert bus_value(bus) == 0b1010
    with pytest.raises(LogicSimulationError):
        drive_bus(bus, 16)


@settings(max_examples=16, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_decoder_is_one_hot(code):
    sim = LogicSimulator()
    sel, outputs = build_decoder_4to16(sim)
    drive = {wire.name: (code >> bit) & 1 for bit, wire in enumerate(sel)}
    sim.settle(drive)
    values = [wire.value for wire in outputs]
    assert values[code] == 1
    assert sum(values) == 1
