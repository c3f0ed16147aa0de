"""Netlist inventory and Table II reproduction."""

from collections import Counter

import pytest

from repro.errors import NetlistError
from repro.netlist.builder import (
    MAIN_MODULE_TOTALS,
    TABLE2_OVERALL,
    TABLE2_TROJANS,
    _scale_mix,
    build_main_circuit,
    build_trojan,
)
from repro.netlist.cells import CELL_LIBRARY, get_cell
from repro.netlist.netlist import Netlist
from repro.netlist.stats import expected_table, trojan_gate_table


def test_library_has_plausible_cells():
    assert "INV_X1" in CELL_LIBRARY
    assert "DFF_X1" in CELL_LIBRARY
    assert CELL_LIBRARY["DFF_X1"].is_sequential
    assert not CELL_LIBRARY["NAND2_X1"].is_sequential
    assert CELL_LIBRARY["TGATE_PSA"].area_um2 == pytest.approx(3.2 * 4.0)


def test_get_cell_unknown_raises():
    with pytest.raises(NetlistError):
        get_cell("FOO_X1")


def test_scale_mix_exact_total():
    mix = _scale_mix({"a": 0.3333, "b": 0.3333, "c": 0.3334}, 100)
    assert sum(mix.values()) == 100
    mix = _scale_mix({"a": 1.0, "b": 2.0}, 7)
    assert sum(mix.values()) == 7
    assert mix["b"] > mix["a"]


def test_main_circuit_cell_count():
    netlist = build_main_circuit()
    assert len(netlist) == TABLE2_OVERALL - sum(TABLE2_TROJANS.values())
    for module, total in MAIN_MODULE_TOTALS.items():
        assert netlist.cell_count(module) == total


@pytest.mark.parametrize("trojan,count", sorted(TABLE2_TROJANS.items()))
def test_trojan_cell_counts(trojan, count):
    assert len(build_trojan(trojan)) == count


def test_full_chip_reproduces_table2():
    rows = trojan_gate_table()
    paper = expected_table()
    assert [r.n_cells for r in rows] == [r.n_cells for r in paper]
    # Percentages match the paper to the printed precision.
    assert rows[1].percentage == pytest.approx(6.52, abs=0.01)
    assert rows[2].percentage == pytest.approx(7.40, abs=0.01)
    assert rows[3].percentage == pytest.approx(1.14, abs=0.01)
    assert rows[4].percentage == pytest.approx(7.57, abs=0.01)


def test_t2_is_inverter_dominated():
    """T2 is 'a chain of inverters' — the mix must reflect that."""
    histogram = Counter(instance.cell.name for instance in build_trojan("T2"))
    inverters = histogram.get("INV_X4", 0) + histogram.get("INV_X1", 0)
    assert inverters / sum(histogram.values()) > 0.8


def test_netlist_rejects_duplicates():
    netlist = Netlist("x")
    netlist.add_instance("u1", "INV_X1", "m")
    with pytest.raises(NetlistError):
        netlist.add_instance("u1", "INV_X1", "m")


def test_merge_keeps_names_unique():
    a = Netlist("a")
    a.add_bulk("m1", {"INV_X1": 2})
    b = Netlist("b")
    b.add_bulk("m2", {"INV_X1": 2})
    a.merge(b)
    assert len(a) == 4
    assert {instance.module for instance in a} == {"m1", "m2"}
