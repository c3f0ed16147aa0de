"""Workload generation and campaigns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError, WorkloadError
from repro.workloads.campaign import StreamSegment
from repro.workloads.lfsr import GaloisLfsr, PlaintextGenerator
from repro.workloads.scenarios import (
    SCENARIOS,
    reference_for,
    scenario_by_name,
)


def test_lfsr_deterministic_and_nontrivial():
    a = GaloisLfsr(seed=0x1234)
    b = GaloisLfsr(seed=0x1234)
    blocks_a = [a.next_block() for _ in range(4)]
    blocks_b = [b.next_block() for _ in range(4)]
    assert blocks_a == blocks_b
    assert len(set(blocks_a)) == 4  # no short cycles


@pytest.mark.parametrize("seed", [1, 0x1234, 0xACE1_2024, 0xFFFF_FFFF])
def test_lfsr_block_is_sixteen_bytes(seed):
    """``next_block`` is ``next_byte`` 16 times, state included."""
    block_lfsr, byte_lfsr = GaloisLfsr(seed), GaloisLfsr(seed)
    for _ in range(48):
        expected = bytes(byte_lfsr.next_byte() for _ in range(16))
        assert block_lfsr.next_block() == expected
        assert block_lfsr.state == byte_lfsr.state


def test_lfsr_bit_balance():
    lfsr = GaloisLfsr()
    bits = [lfsr.step() for _ in range(4096)]
    assert 0.45 < np.mean(bits) < 0.55


def test_lfsr_rejects_zero_seed():
    with pytest.raises(WorkloadError):
        GaloisLfsr(seed=0)


def test_random_blocks_never_trigger_t2():
    generator = PlaintextGenerator()
    for block in generator.random_blocks(200):
        assert block[:2] != b"\xaa\xaa"


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_t2_trigger_fraction(n_blocks):
    generator = PlaintextGenerator()
    blocks = generator.t2_trigger_blocks(n_blocks, match_fraction=0.5)
    matches = sum(1 for b in blocks if b[:2] == b"\xaa\xaa")
    assert matches == n_blocks // 2


def test_t2_full_match_fraction():
    generator = PlaintextGenerator()
    blocks = generator.t2_trigger_blocks(10, match_fraction=1.0)
    assert all(b[:2] == b"\xaa\xaa" for b in blocks)


def test_scenarios_cover_paper_conditions():
    assert {"idle", "baseline", "T1", "T2", "T3", "T4"} <= set(SCENARIOS)
    assert scenario_by_name("idle").idle
    assert scenario_by_name("T3").active == frozenset({"T3"})
    with pytest.raises(WorkloadError):
        scenario_by_name("T9")


def test_t2_reference_uses_matched_workload():
    """T2 compares against the same plaintext distribution."""
    assert reference_for("T2").name == "T2_ref"
    assert reference_for("T2").active == frozenset()
    assert reference_for("T1").name == "baseline"


def test_scenario_plaintexts_respect_policy():
    t2 = scenario_by_name("T2").plaintexts(10, seed=1)
    assert any(block[:2] == b"\xaa\xaa" for block in t2)
    base = scenario_by_name("baseline").plaintexts(10, seed=1)
    assert all(block[:2] != b"\xaa\xaa" for block in base)


def test_campaign_records_fresh_plaintexts(campaign):
    scenario = scenario_by_name("baseline")
    a = campaign.record(scenario, 0)
    b = campaign.record(scenario, 1)
    assert not np.allclose(a.main, b.main)


def test_campaign_collect(campaign):
    batch = campaign.collect_stream([StreamSegment("baseline", 2)], sensors=[0, 10])
    assert batch.n_traces == 2
    assert batch.labels == ("psa_sensor_0", "psa_sensor_10")
    assert batch.trace(1, 0).scenario == "baseline"
    with pytest.raises(MeasurementError):
        campaign.collect_stream([StreamSegment("baseline", 1)], sensors=[16])


def test_campaign_validates_inputs(campaign):
    with pytest.raises(WorkloadError):
        campaign.collect_stream([], sensors=[10])
    with pytest.raises(WorkloadError):
        StreamSegment("baseline", 0, 0)


def test_campaign_collect_derives_sensors_from_psa(chip):
    """A 4-sensor array collects exactly 4 sensors — no phantom 16."""
    from repro.core.array import ProgrammableSensorArray
    from repro.workloads.campaign import MeasurementCampaign

    small_psa = ProgrammableSensorArray(chip, n_sensors=4)
    small_campaign = MeasurementCampaign(chip, small_psa)
    batch = small_campaign.collect_stream([StreamSegment("baseline", 2)])
    assert batch.labels == tuple(f"psa_sensor_{i}" for i in range(4))
    assert batch.samples.shape[:2] == (4, 2)
    with pytest.raises(Exception):
        small_campaign.collect_stream([StreamSegment("baseline", 1)], sensors=[7])

    # Downstream consumers derive the count too (no hardcoded 16).
    from repro.core.analysis.localizer import Localizer
    from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
    from repro.workloads.scenarios import scenario_by_name

    base = [small_campaign.record(scenario_by_name("baseline"), 0)]
    active = [small_campaign.record(scenario_by_name("T1"), 500)]
    score = Localizer(small_psa, SpectrumAnalyzer()).score_map(base, active)
    assert score.shape == (4,)


def test_campaign_collect_stream_concatenates_segments(campaign):
    cache = {}
    batch = campaign.collect_stream(
        [
            StreamSegment("baseline", 2, 0),
            StreamSegment("T1", 2, 500),
        ],
        sensors=[10],
        record_cache=cache,
    )
    assert batch.n_traces == 4
    assert batch.scenarios == ("baseline", "baseline", "T1", "T1")
    assert batch.trace_indices == (0, 1, 500, 501)
    assert set(cache) == {
        ("baseline", 0), ("baseline", 1), ("T1", 500), ("T1", 501),
    }
    # Cache hit: the same stream re-renders without re-simulating.
    again = campaign.collect_stream(
        [StreamSegment("baseline", 2, 0), StreamSegment("T1", 2, 500)],
        sensors=[10],
        record_cache=cache,
    )
    assert np.array_equal(again.samples, batch.samples)
