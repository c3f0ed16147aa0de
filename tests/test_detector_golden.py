"""Golden detector timelines, pinned to committed data.

``tests/data/detector_golden.json`` holds the ``process()`` output of
the registered detectors: the z-score matrix (NaN stored as null) and
the armed and alarm masks (one ``"0"``/``"1"`` string per stream).
It has three sections:

* ``cases`` — ``welford`` under four tunings (default, one-sided, a
  short ``baseline_window`` that evicts, ``consecutive=1``) plus
  ``spectral`` and ``persistence``, over seeded synthetic feature
  matrices with a warm-up, a pre-trigger glitch and a persistent
  shift.  The inputs are stored next to the outputs.
* ``pins`` — features and timelines the sweep, runtime and registry
  tests check against: the shared test chip's T1 sweep cell and T1
  monitor session, and a 3-stream registry case.
* ``fixtures`` — named false-alarm regression chips.  Chip seed 103
  under the ``soak`` preset alarms on quiet window 12 against trigger
  24 in the T1, T3 and T4 slots; chip seed 17 under the ``paper``
  preset never alarms on T4.

Timelines compare exactly: every detector is an elementwise float64
fold over its input.  Rendered features compare at ``rtol=1e-12``:
samples pass through NumPy's CPU-dispatched SIMD kernels, so the last
bit may differ between hosts.

Regenerate (only for an intended detector change) with::

    PYTHONPATH=src python tests/test_detector_golden.py --write
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis.detector import DetectorConfig
from repro.detectors import make_detector
from repro.runtime import build_chip_monitor, build_preset

RTOL = 1e-12

#: Synthetic inputs: ``(seed, level, spread, glitch, shift)``.  Four
#: streams, 48 traces; a glitch of ``glitch`` on stream 0 (one trace,
#: 14) and stream 2 (two traces, 16-17), then from trace 30 a shift of
#: ``+shift`` on streams 1 and 3 and ``-shift`` on stream 2.
INPUTS = {
    "sideband-db": (20240601, 90.0, 0.5, 6.0, 8.0),
    "sideband-excess-db": (20240602, 20.0, 1.5, 20.0, 20.0),
}
N_STREAMS = 4
N_TRACES = 48
TRIGGER = 30

#: Golden cases: ``(detector, DetectorConfig overrides, input)``.
CASES = {
    "welford-default": ("welford", {}, "sideband-db"),
    "welford-one-sided": ("welford", {"two_sided": False}, "sideband-db"),
    "welford-evicting": (
        "welford",
        {"warmup": 4, "baseline_window": 6},
        "sideband-db",
    ),
    "welford-consecutive-1": ("welford", {"consecutive": 1}, "sideband-db"),
    "spectral": ("spectral", None, "sideband-excess-db"),
    "persistence": ("persistence", None, "sideband-excess-db"),
}

#: False-alarm regression chips: ``(preset, chip seed, trojan slot)``.
FIXTURES = {
    "soak-103-T4": ("soak", 103, "T4"),
    "soak-103-T1": ("soak", 103, "T1"),
    "soak-103-T3": ("soak", 103, "T3"),
    "paper-17-T4": ("paper", 17, "T4"),
}

#: The sweep and monitor pins: T1 on the shared test chip, warm-up 4.
PIN_DETECTOR = DetectorConfig(warmup=4)


def synthetic_features(name: str) -> np.ndarray:
    """One seeded ``(N_STREAMS, N_TRACES)`` input matrix."""
    seed, level, spread, glitch, shift = INPUTS[name]
    rng = np.random.default_rng(seed)
    features = rng.normal(level, spread, size=(N_STREAMS, N_TRACES))
    features[0, 14] += glitch
    features[2, 16:18] += glitch
    features[1, TRIGGER:] += shift
    features[3, TRIGGER:] += shift
    features[2, TRIGGER:] -= shift
    return features


def registry_features() -> np.ndarray:
    """The 3-stream level-shift input of the registry pin."""
    rng = np.random.default_rng(42)
    features = rng.normal(90.0, 1.0, size=(3, 40))
    features[1, 25:] += 8.0
    return features


def case_detector(name: str):
    detector, overrides, _ = CASES[name]
    config = None if overrides is None else DetectorConfig(**overrides)
    return make_detector(detector, N_STREAMS, config)


def _bits(row) -> str:
    return "".join("1" if value else "0" for value in row)


def timeline_json(timeline) -> dict:
    """A ``process()`` timeline as JSON-ready lists."""
    return {
        "z": [
            [None if np.isnan(value) else float(value) for value in row]
            for row in timeline.z
        ],
        "armed": [_bits(row) for row in timeline.armed],
        "alarms": [_bits(row) for row in timeline.alarms],
    }


def assert_timeline_matches(timeline, expected: dict) -> None:
    """Exact comparison: masks as strings, z as Python floats."""
    actual = timeline_json(timeline)
    assert actual["armed"] == expected["armed"]
    assert actual["alarms"] == expected["alarms"]
    assert actual["z"] == expected["z"]


def alarm_windows(expected: dict) -> tuple:
    """Windows where any stream alarms (a monitor report's ``alarms``)."""
    rows = expected["alarms"]
    return tuple(
        index
        for index in range(len(rows[0]))
        if any(row[index] == "1" for row in rows)
    )


def fixture_session(name: str):
    """Monitor one fixture chip (no escalation); its report."""
    preset_name, seed, trojan = FIXTURES[name]
    preset = build_preset(preset_name)
    spec = replace(preset.specs(1, base_seed=seed)[0], trojan=trojan)
    tuning = replace(preset.pipeline_config(), identify=False, localize=False)
    monitor = build_chip_monitor(spec, pipeline_config=tuning)
    return monitor.pipeline.run(monitor.source)


def fixture_detector(name: str, n_streams: int):
    tuning = build_preset(FIXTURES[name][0]).detector()
    return make_detector("welford", n_streams, tuning)


def sweep_pin_features(campaign) -> np.ndarray:
    from repro.sweep import DetectionSweep, SweepCell, SweepGrid

    grid = SweepGrid(
        name="pin",
        cells=(
            SweepCell(
                trojan="T1",
                detector=PIN_DETECTOR,
                n_baseline=6,
                n_active=3,
                quantize=True,
            ),
        ),
    )
    return DetectionSweep(campaign).run(grid).cells[0].features_db


def monitor_pin_features(campaign) -> np.ndarray:
    from repro.runtime import (
        ActivationSchedule,
        EscalationPipeline,
        LiveSource,
        PipelineConfig,
    )

    pipeline = EscalationPipeline(
        campaign.chip.config,
        n_streams=1,
        pipeline=PipelineConfig(detector=PIN_DETECTOR, localize=False),
    )
    schedule = ActivationSchedule.step("T1", n_baseline=6, n_active=4)
    return pipeline.run(LiveSource(campaign, schedule, chunk=4)).features_db


def _pin(features: np.ndarray, timeline) -> dict:
    return {"features": features.tolist(), **timeline_json(timeline)}


def dump_golden(golden: dict) -> str:
    """Indented JSON with every innermost list on one line."""
    text = json.dumps(golden, indent=1)
    return re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + re.sub(r"\s+", " ", match.group(1)) + "]",
        text,
    )


def compute_golden(campaign) -> dict:
    cases = {}
    for name, (_, _, input_name) in CASES.items():
        cases[name] = timeline_json(
            case_detector(name).process(synthetic_features(name=input_name))
        )
    registry = registry_features()
    sweep = sweep_pin_features(campaign)
    monitor = monitor_pin_features(campaign)
    pins = {
        "registry-3stream": _pin(
            registry,
            make_detector("welford", 3, DetectorConfig(warmup=5)).process(registry),
        ),
        "sweep-cell-T1": _pin(
            sweep, make_detector("welford", 1, PIN_DETECTOR).process(sweep)
        ),
        "monitor-T1": _pin(
            monitor, make_detector("welford", 1, PIN_DETECTOR).process(monitor)
        ),
    }
    fixtures = {}
    for name in FIXTURES:
        report = fixture_session(name)
        features = np.asarray(report.features_db)
        fixtures[name] = {
            "first_alarm": report.first_alarm,
            "trigger_index": report.trigger_index,
            "false_alarm": report.mttd.false_alarm,
            **_pin(
                features,
                fixture_detector(name, features.shape[0]).process(features),
            ),
        }
    return {
        "inputs": {name: synthetic_features(name).tolist() for name in INPUTS},
        "cases": cases,
        "pins": pins,
        "fixtures": fixtures,
    }


# -- tests ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden(detector_golden) -> dict:
    return detector_golden


def test_golden_covers_every_case(golden):
    assert sorted(golden["inputs"]) == sorted(INPUTS)
    assert sorted(golden["cases"]) == sorted(CASES)
    assert sorted(golden["pins"]) == [
        "monitor-T1",
        "registry-3stream",
        "sweep-cell-T1",
    ]
    assert sorted(golden["fixtures"]) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_inputs_match_golden(golden, name):
    assert synthetic_features(name).tolist() == golden["inputs"][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(golden, name):
    features = np.array(golden["inputs"][CASES[name][2]])
    timeline = case_detector(name).process(features)
    assert_timeline_matches(timeline, golden["cases"][name])


def test_cases_exercise_every_branch(golden):
    """The inputs reach what each case is there to pin."""
    cases = golden["cases"]
    default = cases["welford-default"]["alarms"]
    # The two-trace glitch on stream 2 alarms before the trigger; the
    # one-trace glitch on stream 0 is debounced away unless
    # consecutive=1.
    assert default[2].index("1") == 17
    assert "1" not in default[0]
    assert cases["welford-consecutive-1"]["alarms"][0].index("1") == 14
    # After the trigger every shifted stream alarms once per debounce;
    # the drop on stream 2 alarms two-sided only.
    for row in default[1:]:
        assert row[TRIGGER:] == "01" * ((N_TRACES - TRIGGER) // 2)
    assert "1" not in cases["welford-one-sided"]["alarms"][2][TRIGGER:]
    # The short window arms after its own warm-up and keeps evicting.
    assert cases["welford-evicting"]["armed"][0].index("1") == 4
    assert cases["welford-evicting"]["z"] != cases["welford-default"]["z"]
    # Reference-free methods: spectral is armed from window 0 and sees
    # the glitch; persistence fires once, on the persistent rises only.
    assert set(cases["spectral"]["armed"][0]) == {"1"}
    assert cases["spectral"]["alarms"][2].index("1") == 17
    persistence = cases["persistence"]["alarms"]
    assert [row.count("1") for row in persistence] == [0, 1, 0, 1]


@pytest.mark.parametrize("name", ["monitor-T1", "sweep-cell-T1"])
def test_pin_matches_golden(golden, name):
    pin = golden["pins"][name]
    timeline = make_detector("welford", 1, PIN_DETECTOR).process(
        np.array(pin["features"])
    )
    assert_timeline_matches(timeline, pin)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_timeline_matches_golden(golden, name):
    """The stored chip features fold to the stored verdicts."""
    fixture = golden["fixtures"][name]
    features = np.array(fixture["features"])
    timeline = fixture_detector(name, features.shape[0]).process(features)
    assert_timeline_matches(timeline, fixture)
    assert timeline.first_alarm() == fixture["first_alarm"]


def test_fixtures_pin_the_false_alarm_edge(golden):
    """Seed 103 false-alarms at quiet window 12; seed 17 stays silent."""
    for slot in ("T1", "T3", "T4"):
        fixture = golden["fixtures"][f"soak-103-{slot}"]
        assert fixture["first_alarm"] == 12
        assert fixture["trigger_index"] == 24
        assert fixture["false_alarm"] is True
    silent = golden["fixtures"]["paper-17-T4"]
    assert silent["first_alarm"] is None
    assert alarm_windows(silent) == ()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_session_matches_golden(golden, name):
    """Re-simulating the chip reproduces its features and verdicts."""
    fixture = golden["fixtures"][name]
    report = fixture_session(name)
    np.testing.assert_allclose(
        report.features_db, fixture["features"], rtol=RTOL, atol=0
    )
    assert report.alarms == alarm_windows(fixture)
    assert report.first_alarm == fixture["first_alarm"]
    assert report.trigger_index == fixture["trigger_index"]
    assert report.mttd.false_alarm is fixture["false_alarm"]


def test_comparison_can_fail(golden):
    """A one-ulp z drift or a moved alarm is caught."""
    features = np.array(golden["inputs"]["sideband-db"])
    timeline = case_detector("welford-default").process(features)
    expected = golden["cases"]["welford-default"]
    stream, trace = np.argwhere(np.isfinite(timeline.z))[-1]
    timeline.z[stream, trace] = np.nextafter(timeline.z[stream, trace], np.inf)
    with pytest.raises(AssertionError):
        assert_timeline_matches(timeline, expected)
    timeline = case_detector("welford-default").process(features)
    timeline.alarms[0, 0] = True
    with pytest.raises(AssertionError):
        assert_timeline_matches(timeline, expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_detector_golden.py --write")
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import DETECTOR_GOLDEN, TEST_KEY

    from repro.chip.testchip import TestChip
    from repro.config import SimConfig
    from repro.core.array import ProgrammableSensorArray
    from repro.workloads.campaign import MeasurementCampaign

    chip = TestChip(TEST_KEY, SimConfig())
    campaign = MeasurementCampaign(chip, ProgrammableSensorArray(chip))
    golden = compute_golden(campaign)
    DETECTOR_GOLDEN.write_text(dump_golden(golden) + "\n")
    print(f"wrote {DETECTOR_GOLDEN}")
