"""The comparative detector × Trojan-class grid and its committed matrix.

Two committed expectation files under ``tests/data/`` pin the
blind-spot structure of the builtin detection methods:

* ``detector_grid_expected.json`` — the full ``detectors`` grid
  (every catalog Trojan and every always-on variant under every
  method).  CI runs the smoke slice; the full grid is exercised by
  the gated benchmark (``DETECTOR_GRID_FULL=1``) and by
  ``repro sweep --grid detectors``.
* ``detector_grid_smoke_expected.json`` — the CI-sized
  ``detectors-smoke`` slice, rendered end-to-end here.

Every miss in those matrices is structural (a method's own blind
spot), so a flip in *either* direction is a regression — a newly
"detected" cell means the simulated physics or a detector's semantics
drifted just as surely as a newly missed one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.sweep import (
    DETECTOR_NAMES,
    DETECTOR_TROJANS,
    DetectionSweep,
    SweepCell,
    SweepGrid,
    detectors_grid,
    detectors_smoke_grid,
)
from repro.core.analysis.detector import DetectorConfig

DATA = Path(__file__).parent / "data"


def _expected(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_report(campaign):
    return DetectionSweep(campaign).run(detectors_smoke_grid())


# -- the committed expectation files -------------------------------------------


class TestCommittedMatrices:
    def test_full_matrix_covers_the_grid(self):
        expected = _expected("detector_grid_expected.json")
        assert expected["grid"] == "detectors"
        matrix = expected["matrix"]
        assert set(matrix) == set(DETECTOR_NAMES)
        for row in matrix.values():
            assert tuple(row) == DETECTOR_TROJANS
        grid = detectors_grid()
        assert grid.n_cells == len(DETECTOR_NAMES) * len(DETECTOR_TROJANS)

    def test_smoke_matrix_is_a_slice_of_the_full_matrix(self):
        full = _expected("detector_grid_expected.json")["matrix"]
        smoke = _expected("detector_grid_smoke_expected.json")["matrix"]
        assert set(smoke) == set(DETECTOR_NAMES)
        for detector, row in smoke.items():
            for trojan, detected in row.items():
                assert full[detector][trojan] == detected

    def test_matrix_structure_is_complementary(self):
        """The blind spots are the grid's point: no method sees every
        class, and no class evades every method."""
        matrix = _expected("detector_grid_expected.json")["matrix"]
        always_on = ("T1A", "T2A", "TP")
        # The paper's self-baseline detects every catalog Trojan and
        # is structurally blind to the always-on family it absorbs.
        assert all(matrix["welford"][t] for t in ("T1", "T2", "T3", "T4"))
        assert not any(matrix["welford"][t] for t in always_on)
        for detector in DETECTOR_NAMES:
            assert not all(matrix[detector].values())
        for trojan in DETECTOR_TROJANS:
            assert any(matrix[d][trojan] for d in DETECTOR_NAMES)


# -- the rendered smoke grid (end-to-end) --------------------------------------


class TestSmokeGrid:
    def test_reproduces_the_committed_matrix(self, smoke_report):
        expected = _expected("detector_grid_smoke_expected.json")
        assert smoke_report.grid == expected["grid"]
        assert smoke_report.detection_matrix() == expected["matrix"]

    def test_always_on_cells_score_any_alarm_as_detection(self, smoke_report):
        for cell in smoke_report.cells:
            if cell.trojan != "T1A":
                continue
            # Always-on streams have no quiet reference span: the
            # implant is active from window 0, so any alarm is true.
            assert cell.reference == "T1A"
            if cell.alarm_index is not None:
                assert cell.success
                # trigger_index == 0: latency counts from window 0,
                # inclusive of the alarming window.
                assert cell.mttd.traces_to_detect == cell.alarm_index + 1
                assert not cell.mttd.false_alarm

    def test_cell_labels_carry_the_detector(self, smoke_report):
        labels = {cell.label for cell in smoke_report.cells}
        assert "T1|baseline@0" in labels  # welford keeps legacy labels
        assert "T1|baseline@0|spectral" in labels
        assert "T1A|T1A@0|persistence" in labels
        assert all(
            cell.detector in ("welford", "spectral", "persistence")
            for cell in smoke_report.cells
        )

    def test_drift_gate_passes_on_the_rendered_report(
        self, smoke_report, tmp_path
    ):
        """CI's gate (tools/check_detector_grid.py) accepts the real
        report — closing the loop between the sweep's JSON schema and
        the tool that diffs it."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_detector_grid",
            Path(__file__).parent.parent
            / "tools"
            / "check_detector_grid.py",
        )
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        report_path = tmp_path / "detector-grid.json"
        report_path.write_text(smoke_report.to_json() + "\n")
        code, lines = check.run(
            report_path, DATA / "detector_grid_smoke_expected.json"
        )
        assert code == 0, lines

    def test_report_renders_the_detector_column(self, smoke_report):
        text = smoke_report.format()
        assert "detector" in text
        assert "persistence" in text
        payload = json.loads(smoke_report.to_json())
        assert {c["detector"] for c in payload["cells"]} == set(
            DETECTOR_NAMES
        )


# -- registry-routed welford is bit-identical in the sweep flow ----------------


class TestWelfordSweepIdentity:
    def test_sweep_cell_matches_direct_detector_bank(
        self, campaign, detector_golden
    ):
        pin = detector_golden["pins"]["sweep-cell-T1"]
        tuning = DetectorConfig(warmup=4)
        grid = SweepGrid(
            name="pin",
            cells=(
                SweepCell(
                    trojan="T1",
                    detector=tuning,
                    n_baseline=6,
                    n_active=3,
                    quantize=True,
                ),
            ),
        )
        sweep = DetectionSweep(campaign)
        report = sweep.run(grid)
        cell = report.cells[0]
        assert cell.detector == "welford"
        # The registry-routed cell reproduces the committed features
        # and bank timeline: the same alarms at the same windows.
        np.testing.assert_allclose(
            cell.features_db, pin["features"], rtol=1e-12, atol=0
        )
        first_alarms = [
            row.index("1") if "1" in row else None for row in pin["alarms"]
        ]
        assert cell.alarm_index == first_alarms[0]
        assert first_alarms == [
            outcome.first_alarm for outcome in cell.outcomes
        ]
        assert set(pin["armed"][0][tuning.warmup :]) == {"1"}
