"""The full comparative detector × Trojan-class grid, end to end.

Renders the complete ``detectors`` grid — every catalog Trojan
(T1..T4) and every always-on variant (T1A/T2A/TP) under every
registered detection method — and asserts the detected/missed matrix
equals the committed expectation
(``tests/data/detector_grid_expected.json``) cell for cell.  Tier-1
pins the ``detectors-smoke`` slice; this run covers the 21-cell full
grid, so it lives with the benchmarks rather than the unit suite.

Timing lands in ``BENCH_detector_grid.json`` (see ``bench_report.py``).

Set ``DETECTOR_SMOKE=1`` to run the smoke slice instead (CI).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from bench_report import write_report
from repro.sweep import DetectionSweep, detectors_grid, detectors_smoke_grid

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

SMOKE = os.environ.get("DETECTOR_SMOKE", "") not in ("", "0")


def _expected_matrix(name: str) -> dict:
    with open(EXPECTED_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)["matrix"]


def test_detector_grid_reproduces_committed_matrix(ctx):
    if SMOKE:
        grid = detectors_smoke_grid()
        expected = _expected_matrix("detector_grid_smoke_expected.json")
    else:
        grid = detectors_grid()
        expected = _expected_matrix("detector_grid_expected.json")

    sweep = DetectionSweep(ctx.campaign)
    start = time.perf_counter()
    report = sweep.run(grid)
    elapsed = time.perf_counter() - start

    matrix = report.detection_matrix()
    assert matrix == expected, (
        "detector matrix drift — every committed miss is a structural "
        f"blind spot, so flips in either direction are regressions: "
        f"{matrix}"
    )

    payload = {
        "grid": grid.name,
        "n_cells": grid.n_cells,
        "smoke": SMOKE,
        "seconds": elapsed,
        "cells_per_sec": grid.n_cells / elapsed,
        "matrix": matrix,
    }
    write_report("BENCH_detector_grid.json", payload)
