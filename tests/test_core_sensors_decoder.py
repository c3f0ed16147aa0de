"""Standard sensor configuration and the control decoder."""

import pytest

from repro.chip.floorplan import DIE_SIZE, sensor_rect
from repro.core.decoder import PsaDecoder
from repro.core.grid import PITCH
from repro.core.sensors import (
    COLUMN_ORIGINS,
    N_SENSORS,
    ROW_ORIGINS,
    SENSOR_SIZE_PITCHES,
    quadrant_coil,
    sensor_grid_origin,
    standard_sensor_coil,
)
from repro.errors import CoilSynthesisError, GridProgrammingError


def test_sixteen_sensors():
    assert N_SENSORS == 16
    coils = [standard_sensor_coil(i) for i in range(16)]
    assert len({c.name for c in coils}) == 16


def test_origins_are_uniform_stride():
    assert COLUMN_ORIGINS == (0, 8, 16, 24)
    assert ROW_ORIGINS == tuple(reversed(COLUMN_ORIGINS))


def test_sensor_grid_matches_floorplan_rects():
    """Coil footprints coincide with the floorplan's sensor squares."""
    for index in range(16):
        coil = standard_sensor_coil(index)
        outer = coil.turn_rects[0]
        rect = sensor_rect(index)
        assert outer.x0 == pytest.approx(rect.x0, abs=1e-9)
        assert outer.y1 == pytest.approx(rect.y1, abs=1e-9)


def test_sensor10_covers_die_center():
    coil = standard_sensor_coil(10)
    outer = coil.turn_rects[0]
    assert outer.x0 <= DIE_SIZE * 0.6 <= outer.x1
    assert outer.y0 <= DIE_SIZE * 0.4 <= outer.y1


def test_default_turns():
    coil = standard_sensor_coil(7)
    assert coil.n_turns == 5
    assert coil.turn_rects[0].width == pytest.approx(
        SENSOR_SIZE_PITCHES * PITCH
    )


def test_diagonal_sensors_conflict_on_shared_corners():
    """Diagonally overlapping sensors (5 and 10) contend for corner
    T-gates — they must be time-multiplexed, not co-programmed."""
    from repro.core.grid import PsaGrid

    grid = PsaGrid()
    standard_sensor_coil(5).program(grid)
    with pytest.raises(GridProgrammingError):
        standard_sensor_coil(10).program(grid)


def test_row_adjacent_sensors_can_coexist():
    """Same-row sensors use disjoint corner sets, matching the paper's
    four simultaneous output channels (one sensor per row at a time)."""
    from repro.core.grid import PsaGrid

    grid = PsaGrid()
    standard_sensor_coil(5).program(grid)
    standard_sensor_coil(6).program(grid)
    assert grid.release("psa_sensor_5") == len(standard_sensor_coil(5).crosspoints)
    assert grid.release("psa_sensor_6") == len(standard_sensor_coil(6).crosspoints)


def test_quadrant_coils_tile_sensor():
    for which in ("sw", "se", "nw", "ne"):
        coil = quadrant_coil(10, which)
        assert coil.n_turns == 1
        outer = coil.turn_rects[0]
        sensor = standard_sensor_coil(10).turn_rects[0]
        # Each quadrant coil stays within the sensor footprint.
        assert outer.x0 >= sensor.x0 - 1e-12
        assert outer.x1 <= sensor.x1 + 1e-12
    with pytest.raises(CoilSynthesisError):
        quadrant_coil(10, "north")


def test_sensor_origin_bounds():
    with pytest.raises(CoilSynthesisError):
        sensor_grid_origin(16)


def test_decoder_selects_all_sixteen():
    decoder = PsaDecoder()
    for code in range(16):
        outputs = decoder.select(code)
        assert outputs[code] == 1
        assert sum(outputs) == 1
        assert decoder.selected() == code


def test_decoder_rejects_bad_selection():
    decoder = PsaDecoder()
    with pytest.raises(GridProgrammingError):
        decoder.select(16)
