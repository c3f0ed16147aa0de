"""Shared fixtures.

The chip + PSA assembly (coupling matrices in particular) is expensive,
so integration-level tests share one session-scoped context and a small
cache of activity records / traces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chip.testchip import TestChip
from repro.config import SimConfig
from repro.core.array import ProgrammableSensorArray
from repro.workloads.campaign import MeasurementCampaign
from repro.workloads.scenarios import scenario_by_name

#: Key used by every test chip.
TEST_KEY = bytes(range(16))

#: Committed detector timelines (see ``test_detector_golden.py``).
DETECTOR_GOLDEN = Path(__file__).parent / "data" / "detector_golden.json"


@pytest.fixture(scope="session")
def config() -> SimConfig:
    """The paper's default simulation configuration."""
    return SimConfig()


@pytest.fixture(scope="session")
def chip(config: SimConfig) -> TestChip:
    """One shared test chip."""
    return TestChip(TEST_KEY, config)


@pytest.fixture(scope="session")
def psa(chip: TestChip) -> ProgrammableSensorArray:
    """One shared sensor array (coupling matrix built once)."""
    return ProgrammableSensorArray(chip)


@pytest.fixture(scope="session")
def campaign(chip: TestChip, psa: ProgrammableSensorArray) -> MeasurementCampaign:
    """One shared campaign driver."""
    return MeasurementCampaign(chip, psa)


@pytest.fixture(scope="session")
def records(campaign: MeasurementCampaign):
    """Pre-simulated activity records for the common scenarios."""
    cache = {}
    for name in ("idle", "baseline", "T1", "T2", "T3", "T4", "T2_ref"):
        scenario = scenario_by_name(name)
        cache[name] = [campaign.record(scenario, 500 + i) for i in range(2)]
    return cache


@pytest.fixture(scope="session")
def sensor10_traces(psa, records):
    """Sensor-10 traces per scenario (index 0 record)."""
    return {
        name: psa.measure(recs[0], 10, trace_index=900)
        for name, recs in records.items()
    }


@pytest.fixture(scope="session")
def detector_golden() -> dict:
    """The committed detector golden (timelines, pins, fixtures)."""
    return json.loads(DETECTOR_GOLDEN.read_text())
