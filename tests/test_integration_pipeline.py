"""End to end: one run-time session detects, identifies and localizes.

The paper's headline flow (Section VI-D) as deployed: a ``paper``
preset session on one chip (8 quiet windows, then the Trojan enabled;
all 16 sensors through the RASC ADC) escalates its first alarm to
zero-span identification and quadrant localization.
"""

from dataclasses import replace

import pytest

from repro.errors import AnalysisError
from repro.runtime import Alarm, ChipSpec, EventBus, build_chip_monitor, build_preset


def _session(trojan):
    """``(report, alarm events)`` of one single-chip ``paper`` session."""
    preset = replace(build_preset("paper"), trojan=trojan)
    alarms = []
    bus = EventBus()
    bus.subscribe(lambda event: isinstance(event, Alarm) and alarms.append(event))
    monitor = build_chip_monitor(
        preset.specs(1)[0], pipeline_config=preset.pipeline_config(), bus=bus
    )
    return monitor.pipeline.run(monitor.source), alarms


@pytest.fixture(scope="module")
def t1_session():
    return _session("T1")


def test_detection_within_paper_budget(t1_session):
    """<10 traces, <10 ms MTTD (Section VI-D)."""
    report, _ = t1_session
    assert report.detected
    assert report.mttd.traces_to_detect < 10
    assert report.mttd.mttd_s < 10e-3


def test_localization_names_sensor10(t1_session):
    report, _ = t1_session
    assert report.localization.sensor_index == 10
    assert report.localization.quadrant == "nw"


def test_identification_names_t1(t1_session):
    report, _ = t1_session
    assert report.identification.label == "T1"


def test_monitor_sensor_recorded(t1_session):
    """The escalating alarm names the sensor over the Trojan cluster."""
    report, alarms = t1_session
    assert report.sensors == tuple(range(16))
    assert alarms[0].escalating
    assert alarms[0].sensor == 10
    assert alarms[0].window == report.first_alarm


def test_t3_smallest_trojan_detected():
    """The 329-cell T3 defeats the prior methods but not the PSA."""
    report, alarms = _session("T3")
    assert report.detected
    assert report.mttd.traces_to_detect < 10
    assert alarms[0].sensor == 10
    assert report.identification.label == "T3"
    assert report.localization.sensor_index == 10


def test_idle_scenario_rejected():
    """A chip with no implanted Trojan is a typed error, not a KeyError."""
    for scenario in ("idle", "baseline"):
        with pytest.raises(AnalysisError, match="implanted Trojan"):
            build_chip_monitor(ChipSpec(chip_id="chip0", trojan=scenario, seed=1))
