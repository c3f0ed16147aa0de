"""Localization stage (integration)."""

import numpy as np
import pytest

from repro.core.analysis.localizer import Localizer
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def localizer(psa):
    return Localizer(psa)


def test_score_map_peaks_at_sensor10(localizer, records):
    scores = localizer.score_map(records["baseline"], records["T1"])
    assert scores.shape == (16,)
    assert int(np.argmax(scores)) == 10


def test_sensor0_scores_near_zero(localizer, records):
    """Figure 4e: the Trojan-free corner shows hardly any change."""
    scores = localizer.score_map(records["baseline"], records["T1"])
    assert abs(scores[0]) < 0.05 * scores[10]


@pytest.mark.parametrize(
    "trojan,quadrant",
    [("T1", "nw"), ("T3", "sw")],
)
def test_localize_with_refinement(localizer, records, trojan, quadrant):
    reference = "T2_ref" if trojan == "T2" else "baseline"
    result = localizer.localize(records[reference], records[trojan])
    assert result.sensor_index == 10
    assert result.quadrant == quadrant
    assert result.margin_db > 0.0
    # The refined position lands inside sensor 10's footprint.
    x, y = result.position
    from repro.chip.floorplan import sensor_rect

    rect = sensor_rect(10)
    assert rect.x0 <= x <= rect.x1 and rect.y0 <= y <= rect.y1


def test_position_tracks_trojan(localizer, records, chip):
    """The estimate lands within ~120 um of the true Trojan center."""
    result = localizer.localize(records["baseline"], records["T1"])
    true_center = chip.floorplan.placements["T1"][0].center
    error = np.hypot(
        result.position[0] - true_center[0],
        result.position[1] - true_center[1],
    )
    assert error < 120e-6


def test_localize_without_refinement(localizer, records):
    result = localizer.localize(
        records["baseline"], records["T4"], refine=False
    )
    assert result.sensor_index == 10
    assert result.quadrant is None
    assert result.quadrant_scores is None


def test_empty_records_rejected(localizer, records):
    with pytest.raises(AnalysisError):
        localizer.score_map([], records["T1"])
