"""Assembled test-chip behaviour."""

import numpy as np
import pytest

from repro.chip.testchip import TestChip as AesTestChip
from repro.config import SimConfig
from repro.errors import WorkloadError

PLAINTEXTS = [bytes(range(16)), bytes(range(16, 32))]


def test_idle_record_is_quiet(chip):
    idle = chip.run_trace(PLAINTEXTS, idle=True)
    busy = chip.run_trace(PLAINTEXTS, active=set())
    assert idle.combined().sum() < 0.01 * busy.combined().sum()
    # Idle has no Trojan activity at all (clock gated).
    assert idle.trojan.sum() == 0.0


def test_trojan_activity_isolated_to_trojan_matrix(chip):
    baseline = chip.run_trace(PLAINTEXTS, active=set())
    with_t4 = chip.run_trace(PLAINTEXTS, active={"T4"})
    # Main activity identical; the delta lives in the trojan planes
    # (T4 is a rising-phase power virus).
    assert np.allclose(baseline.main, with_t4.main)
    assert (
        (with_t4.trojan + with_t4.trojan_rising).sum()
        > 100 * (baseline.trojan + baseline.trojan_rising).sum()
    )


def test_trojan_activity_in_correct_regions(chip):
    record = chip.run_trace(PLAINTEXTS, active={"T3"})
    delta = record.trojan.sum(axis=1)
    baseline = chip.run_trace(PLAINTEXTS, active=set()).trojan.sum(axis=1)
    added = delta - baseline
    t3_weights = chip.floorplan.module_weights("T3")
    # At least 90 % of the added toggles land on T3's regions.
    assert added[t3_weights > 0].sum() > 0.9 * added.sum()


def test_t2_needs_matching_plaintext(chip):
    matching = [b"\xaa\xaa" + bytes(14)]
    random = [b"\x01\x02" + bytes(14)]
    armed = chip.run_trace(matching, active={"T2"})
    unarmed = chip.run_trace(random, active={"T2"})
    assert armed.trojan.sum() > 10 * unarmed.trojan.sum()


def test_scenario_labels(chip):
    assert chip.run_trace(PLAINTEXTS, idle=True).scenario == "idle"
    assert chip.run_trace(PLAINTEXTS).scenario == "baseline"
    assert chip.run_trace(PLAINTEXTS, active={"T1"}).scenario == "T1"


def test_unknown_trojan_rejected(chip):
    with pytest.raises(WorkloadError):
        chip.run_trace(PLAINTEXTS, active={"T7"})


def test_activity_is_data_dependent(chip):
    a = chip.run_trace([bytes(16)], active=set())
    b = chip.run_trace([b"\xff" * 16], active=set())
    assert not np.allclose(a.main, b.main)


def test_records_are_deterministic(chip):
    a = chip.run_trace(PLAINTEXTS, active={"T1"})
    b = chip.run_trace(PLAINTEXTS, active={"T1"})
    assert np.array_equal(a.main, b.main)
    assert np.array_equal(a.trojan, b.trojan)


def test_make_trojans_configuration(chip):
    trojans = chip.make_trojans({"T1", "T3"})
    by_name = {t.name: t for t in trojans}
    assert by_name["T1"].enabled and by_name["T3"].enabled
    assert not by_name["T2"].enabled and not by_name["T4"].enabled
    # T1 is parked at its terminal count so the burst starts at once.
    assert by_name["T1"].start_count == 0x1FFFFF


def test_key_must_be_16_bytes():
    with pytest.raises(WorkloadError):
        AesTestChip(b"short", SimConfig())


def test_variant_records_deterministic_across_fresh_chips():
    """Same seed => bit-identical always-on records on fresh chips."""
    key = bytes(range(16))
    for name in ("T1A", "T2A", "TP"):
        a = AesTestChip(key, SimConfig()).run_trace(
            PLAINTEXTS, active={name}
        )
        b = AesTestChip(key, SimConfig()).run_trace(
            PLAINTEXTS, active={name}
        )
        assert np.array_equal(a.main, b.main)
        assert np.array_equal(a.trojan, b.trojan)
        assert a.trojan.any()  # the implant is emitting


def test_variant_activity_lands_on_parent_site(chip):
    """A variant's toggles land in its parent implant's region (the
    ``site`` attribute maps T1A->T1 weights etc.)."""
    quiet = chip.run_trace(PLAINTEXTS, active=set())
    for name, site in (("T1A", "T1"), ("T2A", "T2"), ("TP", "T4")):
        record = chip.run_trace(PLAINTEXTS, active={name})
        extra = record.trojan - quiet.trojan
        assert extra.any()
        by_name = {t.name: t for t in chip.make_trojans({name})}
        assert by_name[name].site == site
