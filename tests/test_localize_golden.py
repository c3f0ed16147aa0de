"""Golden localization and monitor outcomes, pinned to committed data.

``tests/data/localize_golden.json`` holds, for the T1 and T4 fixture
records (``campaign.record(scenario, 500 + i)``, ``i < 2``, against
the matching baseline records):

* every adaptive-scan level: each candidate window's
  ``(col0, row0, size)`` and score, plus the descent path;
* the localizer's hot sensor, score map, refine quadrant scores and
  chosen quadrant;
* the sensor-10 feature timeline and trigger index of a run-time
  session (6 quiet windows, then 4 with T4 active, no ADC).

Discrete values compare exactly.  Floats compare at ``rtol=1e-12``
rather than by digest: rendered samples pass through NumPy's
CPU-dispatched SIMD kernels, so the last bit may differ between hosts.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python tests/test_localize_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis.localizer import Localizer
from repro.core.analysis.scanner import AdaptiveScanner
from repro.runtime import (
    ActivationSchedule,
    EscalationPipeline,
    LiveSource,
    PipelineConfig,
)
from repro.workloads.scenarios import scenario_by_name

GOLDEN_PATH = Path(__file__).parent / "data" / "localize_golden.json"

TROJANS = ("T1", "T4")
MONITOR = ("T4", 6, 4)
RTOL = 1e-12


def _window(window) -> list:
    return [window.col0, window.row0, window.size, window.score]


def localize_outcome(psa, base, active) -> dict:
    """Scan levels, path and localization of one Trojan's records."""
    scan = AdaptiveScanner(psa).scan(base, active)
    result = Localizer(psa).localize(base, active)
    return {
        "scan": {
            "levels": [[_window(w) for w in level] for level in scan.levels],
            "path": [_window(w) for w in scan.path],
        },
        "sensor_index": result.sensor_index,
        "scores": [float(score) for score in result.scores],
        "quadrant": result.quadrant,
        "quadrant_scores": result.quadrant_scores,
    }


def monitor_outcome(campaign) -> dict:
    """Feature timeline of a monitor-only session on sensor 10."""
    trojan, n_baseline, n_active = MONITOR
    schedule = ActivationSchedule.step(
        trojan, n_baseline=n_baseline, n_active=n_active
    )
    tuning = PipelineConfig(quantize=False, identify=False, localize=False)
    report = EscalationPipeline(campaign.chip.config, pipeline=tuning).run(
        LiveSource(campaign, schedule, sensors=(10,))
    )
    return {
        "features": report.features_db[0].tolist(),
        "trigger": report.trigger_index,
    }


def compute_golden(campaign, records) -> dict:
    golden = {
        name: localize_outcome(campaign.psa, records["baseline"], records[name])
        for name in TROJANS
    }
    golden["monitor"] = monitor_outcome(campaign)
    return golden


def _split_windows(windows):
    """``(discrete (col0, row0, size) list, float score array)``."""
    return [w[:3] for w in windows], np.array([w[3] for w in windows])


def assert_localize_matches(actual: dict, expected: dict) -> None:
    assert len(actual["scan"]["levels"]) == len(expected["scan"]["levels"])
    pairs = list(zip(actual["scan"]["levels"], expected["scan"]["levels"]))
    pairs.append((actual["scan"]["path"], expected["scan"]["path"]))
    for got, want in pairs:
        got_windows, got_scores = _split_windows(got)
        want_windows, want_scores = _split_windows(want)
        assert got_windows == want_windows
        np.testing.assert_allclose(got_scores, want_scores, rtol=RTOL, atol=0)
    assert actual["sensor_index"] == expected["sensor_index"]
    np.testing.assert_allclose(
        actual["scores"], expected["scores"], rtol=RTOL, atol=0
    )
    assert actual["quadrant"] == expected["quadrant"]
    assert list(actual["quadrant_scores"]) == list(expected["quadrant_scores"])
    np.testing.assert_allclose(
        list(actual["quadrant_scores"].values()),
        list(expected["quadrant_scores"].values()),
        rtol=RTOL,
        atol=0,
    )


def assert_monitor_matches(actual: dict, expected: dict) -> None:
    assert actual["trigger"] == expected["trigger"]
    np.testing.assert_allclose(
        actual["features"], expected["features"], rtol=RTOL, atol=0
    )


# -- tests ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def outcomes(psa, records) -> dict:
    return {
        name: localize_outcome(psa, records["baseline"], records[name])
        for name in TROJANS
    }


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(TROJANS + ("monitor",))


@pytest.mark.parametrize("name", TROJANS)
def test_localization_matches_golden(golden, outcomes, name):
    assert_localize_matches(outcomes[name], golden[name])


@pytest.mark.parametrize(
    "name,sensor,quadrant", [("T1", 10, "nw"), ("T4", 10, "se")]
)
def test_golden_localizes_to_the_implant(golden, name, sensor, quadrant):
    """The pinned outcome is the paper's: sensor 10, right quadrant."""
    assert golden[name]["sensor_index"] == sensor
    assert golden[name]["quadrant"] == quadrant


def test_monitor_stream_matches_golden(golden, campaign):
    assert_monitor_matches(monitor_outcome(campaign), golden["monitor"])


def test_comparison_can_fail(golden, outcomes):
    """A one-part-in-1e9 score drift or a moved window is caught."""
    drifted = json.loads(json.dumps(outcomes["T1"]))
    drifted["scan"]["levels"][-1][0][3] *= 1.0 + 1e-9
    with pytest.raises(AssertionError):
        assert_localize_matches(drifted, golden["T1"])
    moved = json.loads(json.dumps(outcomes["T4"]))
    moved["scan"]["path"][0][0] += 1
    with pytest.raises(AssertionError):
        assert_localize_matches(moved, golden["T4"])
    monitor = json.loads(json.dumps(golden["monitor"]))
    monitor["features"][-1] *= 1.0 + 1e-9
    with pytest.raises(AssertionError):
        assert_monitor_matches(monitor, golden["monitor"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_localize_golden.py --write")
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import TEST_KEY

    from repro.chip.testchip import TestChip
    from repro.config import SimConfig
    from repro.core.array import ProgrammableSensorArray
    from repro.workloads.campaign import MeasurementCampaign

    chip = TestChip(TEST_KEY, SimConfig())
    psa = ProgrammableSensorArray(chip)
    campaign = MeasurementCampaign(chip, psa)
    records = {
        name: [campaign.record(scenario_by_name(name), 500 + i) for i in range(2)]
        for name in ("baseline",) + TROJANS
    }
    golden = compute_golden(campaign, records)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
