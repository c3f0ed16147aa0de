"""Coil synthesis on the lattice."""

import pytest

from repro.core.coil import COIL_Z, synthesize_rect_coil
from repro.core.grid import PITCH, PsaGrid
from repro.em.devices import tgate_resistance
from repro.errors import CoilSynthesisError


def test_figure_1b_two_turn_example():
    """Figure 1b shows a 2-turn coil programmed onto the lattice."""
    coil = synthesize_rect_coil("fig1b", 0, 0, size=6, turns=2)
    assert coil.n_turns == 2
    outer, inner = coil.turn_rects
    assert outer.width == pytest.approx(6 * PITCH)
    assert inner.width == pytest.approx(4 * PITCH)
    # Each turn needs its 4 corner T-gates, plus one inter-turn bridge.
    assert coil.n_tgates == 2 * 4 + 1


def test_turn_geometry_concentric():
    coil = synthesize_rect_coil("c", 4, 6, size=10, turns=3)
    for outer, inner in zip(coil.turn_rects, coil.turn_rects[1:]):
        assert inner.x0 == pytest.approx(outer.x0 + PITCH)
        assert inner.y1 == pytest.approx(outer.y1 - PITCH)


def test_wire_length_and_resistance():
    coil = synthesize_rect_coil("c", 0, 0, size=4, turns=1)
    assert coil.wire_length == pytest.approx(16 * PITCH)
    expected = 4 * tgate_resistance(1.2, 25.0)
    assert coil.resistance(1.2, 25.0) == pytest.approx(expected, rel=0.2)


def test_enclosed_area_sums_turns():
    coil = synthesize_rect_coil("c", 0, 0, size=6, turns=2)
    expected = (6 * PITCH) ** 2 + (4 * PITCH) ** 2
    assert sum(rect.area for rect in coil.turn_rects) == pytest.approx(expected)


def test_receiver_view():
    coil = synthesize_rect_coil("c", 0, 0, size=6, turns=2)
    receiver = coil.to_receiver()
    assert receiver.name == "c"
    assert receiver.z == COIL_Z
    assert len(receiver.turns) == 2
    assert receiver.r_series == pytest.approx(coil.resistance())


def test_max_turns_enforced():
    # An 11-pitch coil supports at most 5 concentric turns.
    synthesize_rect_coil("ok", 0, 0, size=11, turns=5)
    with pytest.raises(CoilSynthesisError):
        synthesize_rect_coil("bad", 0, 0, size=11, turns=6)


def test_bounds_enforced():
    with pytest.raises(CoilSynthesisError):
        synthesize_rect_coil("bad", 30, 0, size=6, turns=1)
    with pytest.raises(CoilSynthesisError):
        synthesize_rect_coil("bad", -1, 0, size=6, turns=1)
    with pytest.raises(CoilSynthesisError):
        synthesize_rect_coil("bad", 0, 0, size=1, turns=1)


def test_programming_marks_grid(switches_on):
    grid = PsaGrid()
    coil = synthesize_rect_coil("c", 2, 2, size=6, turns=2)
    coil.program(grid)
    assert grid.n_on == len(coil.crosspoints)
    assert switches_on(grid) == set(coil.crosspoints)
    coil.release(grid)
    assert grid.n_on == 0


def test_conflicting_coils_refused():
    grid = PsaGrid()
    a = synthesize_rect_coil("a", 0, 0, size=6, turns=1)
    b = synthesize_rect_coil("b", 6, 0, size=6, turns=1)  # shares a corner
    a.program(grid)
    with pytest.raises(CoilSynthesisError.__mro__[1]):  # GridProgrammingError
        b.program(grid)


def test_disjoint_coils_coexist():
    grid = PsaGrid()
    a = synthesize_rect_coil("a", 0, 0, size=6, turns=1)
    b = synthesize_rect_coil("b", 10, 10, size=6, turns=1)
    a.program(grid)
    b.program(grid)
    assert grid.n_on == len(a.crosspoints) + len(b.crosspoints)
