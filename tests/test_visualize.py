"""ASCII visualization helpers."""

import numpy as np
import pytest

from repro.chip.floorplan import default_floorplan
from repro.errors import FloorplanError
from repro.visualize import floorplan_map, score_heatmap


def test_floorplan_map_contains_modules_and_legend():
    art = floorplan_map(default_floorplan())
    for glyph in ("s", "1", "2", "3", "4", "U"):
        assert glyph in art
    assert "aes_sbox_bank" in art  # legend


def test_floorplan_map_orientation():
    """psa_control sits top-left => its glyph appears in early rows."""
    art = floorplan_map(default_floorplan())
    rows = art.splitlines()[:-1]
    top_half = "\n".join(rows[: len(rows) // 2])
    assert "p" in top_half


def test_floorplan_map_size_validation():
    with pytest.raises(FloorplanError):
        floorplan_map(default_floorplan(), width=4)


def test_score_heatmap_extremes():
    scores = np.zeros(16)
    scores[10] = 1.0
    art = score_heatmap(scores)
    lines = art.splitlines()
    assert len(lines) == 4
    assert "@" in lines[2]  # sensor 10 = row 2, col 2
    with pytest.raises(FloorplanError):
        score_heatmap(np.zeros(4))
