"""PSA lattice programming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import N_SWITCHES, N_WIRES, PsaGrid
from repro.errors import GridProgrammingError


def test_lattice_dimensions_match_paper():
    """36 x 36 wires, 1296 switches (Section V-A)."""
    assert N_WIRES == 36
    assert N_SWITCHES == 1296
    assert PsaGrid().ascii_art().count(".") == 1296


def test_all_switches_start_off(switches_on):
    grid = PsaGrid()
    assert grid.n_on == 0
    assert switches_on(grid) == set()


def test_turn_on_off(switches_on):
    grid = PsaGrid()
    grid.program([(3, 5)])
    assert switches_on(grid) == {(3, 5)}
    assert grid.n_on == 1
    grid.turn_off(3, 5)
    assert switches_on(grid) == set()


def test_out_of_range_rejected():
    grid = PsaGrid()
    with pytest.raises(GridProgrammingError):
        grid.program([(36, 0)])
    with pytest.raises(GridProgrammingError):
        grid.turn_off(0, -1)


def test_ownership_conflict_detected():
    grid = PsaGrid()
    grid.program([(1, 1)], owner="coil_a")
    with pytest.raises(GridProgrammingError):
        grid.program([(1, 1)], owner="coil_b")
    # Same owner may re-assert its own switch.
    grid.program([(1, 1)], owner="coil_a")


def test_program_is_atomic_on_conflict():
    grid = PsaGrid()
    grid.program([(2, 2)], owner="existing")
    with pytest.raises(GridProgrammingError):
        grid.program([(0, 0), (1, 1), (2, 2)], owner="newcomer")
    # Nothing from the failed request may remain.
    assert grid.n_on == 1
    assert grid.release("newcomer") == 0


def test_release_by_owner():
    grid = PsaGrid()
    grid.program([(0, 0), (0, 1)], owner="a")
    grid.program([(5, 5)], owner="b")
    assert grid.release("a") == 2
    assert grid.n_on == 1
    assert grid.release("b") == 1


@settings(max_examples=20, deadline=None)
@given(
    st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=35),
            st.integers(min_value=0, max_value=35),
        ),
        max_size=64,
    )
)
def test_program_release_roundtrip(switches_on, points):
    grid = PsaGrid()
    grid.program(points, owner="prop")
    assert grid.n_on == len(points)
    assert switches_on(grid) == set(points)
    grid.release("prop")
    assert grid.n_on == 0


def test_ascii_art_renders():
    grid = PsaGrid()
    grid.program([(0, 35)])  # on the sampled raster for any step
    art = grid.ascii_art(step=6)
    assert "#" in art and "." in art
