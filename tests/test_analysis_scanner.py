"""Adaptive scan localization (coarse stage)."""

import numpy as np
import pytest

from repro.core.analysis.scanner import AdaptiveScanner, ScanWindow
from repro.core.grid import N_WIRES, PITCH
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def scanner(psa):
    return AdaptiveScanner(psa)


def test_children_shrink_and_stay_on_lattice(scanner):
    for col0, row0, size in [(0, 0, 35), (10, 5, 18), (20, 20, 10)]:
        children = scanner._children(col0, row0, size)
        assert 4 <= len(children) <= 5
        for c_col, c_row, c_size in children:
            assert c_size < size
            assert 0 <= c_col and c_col + c_size < N_WIRES
            assert 0 <= c_row and c_row + c_size < N_WIRES


def test_window_center():
    window = ScanWindow(col0=10, row0=20, size=6, score=0.0)
    assert window.center[0] == pytest.approx(13 * PITCH)
    assert window.center[1] == pytest.approx(23 * PITCH)


def test_scan_converges_near_trojan(scanner, chip, records):
    """Coarse localization: within ~a window size of the true site."""
    result = scanner.scan(records["baseline"], records["T1"])
    true = chip.floorplan.placements["T1"][0].center
    error = np.hypot(
        result.position[0] - true[0], result.position[1] - true[1]
    )
    assert error < 300e-6  # coarse stage: ~window-size accuracy
    # The descent shrinks monotonically and every level was scored.
    sizes = [window.size for window in result.path]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert result.path[-1].size <= scanner.min_size + 1
    assert result.n_measurement_windows == sum(
        len(level) for level in result.levels
    )


def test_scan_scores_increase_toward_trojan(scanner, records):
    """The winning window at each level outscores its siblings."""
    result = scanner.scan(records["baseline"], records["T4"])
    for level, winner in zip(result.levels, result.path):
        assert winner.score == max(w.score for w in level)


def test_scan_validates_inputs(scanner, records):
    with pytest.raises(AnalysisError):
        scanner.scan([], records["T1"])
    with pytest.raises(AnalysisError):
        scanner.scan(records["baseline"], records["T1"], start=(0, 0, 4))


def test_min_size_validation(psa):
    with pytest.raises(AnalysisError):
        AdaptiveScanner(psa, min_size=1)
