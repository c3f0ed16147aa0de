"""Golden activity digests: the simulator's output, pinned bit-for-bit.

``tests/data/activity_golden.json`` holds SHA-256 digests of every
activity-record factor (weights and toggles), of the dense
``main``/``trojan``/``trojan_rising`` matrices and of the plaintext
stream, for every measurement scenario under two config seeds and two
trace indices, plus raw LFSR plaintext-policy streams.  Any change to
the AES model, the Trojan payloads, the LFSR or the dense accumulation
that moves a single bit fails here.

Regenerate (only for an intended model change) with::

    PYTHONPATH=src python tests/test_activity_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chip import power, testchip
from repro.config import SimConfig
from repro.store.store import RecordCodec
from repro.workloads.campaign import MeasurementCampaign
from repro.workloads.lfsr import PlaintextGenerator
from repro.workloads.scenarios import scenario_by_name

GOLDEN_PATH = Path(__file__).parent / "data" / "activity_golden.json"

KEY = bytes(range(16))
SCENARIOS = ("idle", "baseline", "T1", "T2", "T3", "T4", "T1A", "T2A", "TP")
SEEDS = (20240122, 987654321)
TRACE_INDICES = (0, 5)
LFSR_SEEDS = (1, 0xACE1_2024, 0x7FFF_FFFF)
GROUPS = ("main", "trojan", "trojan_rising")


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _campaign(seed: int) -> MeasurementCampaign:
    chip = testchip.TestChip(KEY, SimConfig(seed=seed))
    # Record simulation never touches the sensor array; a stand-in
    # skips the coupling-matrix build.
    return MeasurementCampaign(chip, SimpleNamespace(chip=chip))


def factor_digests(record) -> dict:
    """Per-group ``[name, sha(weights), sha(toggles)]`` lists."""
    return {
        group: [
            [name, _sha(np.asarray(weights, float)), _sha(np.asarray(toggles, float))]
            for name, weights, toggles in (record.factors or {}).get(group, ())
        ]
        for group in GROUPS
    }


def dense_digests(record) -> dict:
    """SHA-256 of each dense toggle matrix."""
    return {group: _sha(getattr(record, group)) for group in GROUPS}


def _plaintexts(campaign: MeasurementCampaign, name: str, index: int):
    """The plaintext stream :meth:`MeasurementCampaign.record` feeds."""
    captured = []
    run_trace = campaign.chip.run_trace

    def spy(plaintexts, **kwargs):
        captured.append(b"".join(bytes(block) for block in plaintexts))
        return run_trace(plaintexts, **kwargs)

    campaign.chip.run_trace = spy
    try:
        record = campaign.record(scenario_by_name(name), index)
    finally:
        del campaign.chip.run_trace
    return record, captured[0]


def lfsr_digests() -> dict:
    out = {}
    for seed in LFSR_SEEDS:
        random = PlaintextGenerator(seed).random_blocks(200)
        out[f"random/{seed}"] = _sha(b"".join(random))
        for fraction in (0.5, 0.3):
            blocks = PlaintextGenerator(seed).t2_trigger_blocks(200, fraction)
            out[f"t2/{fraction}/{seed}"] = _sha(b"".join(blocks))
    return out


def compute_golden() -> dict:
    records = {}
    for seed in SEEDS:
        campaign = _campaign(seed)
        for name in SCENARIOS:
            for index in TRACE_INDICES:
                record, stream = _plaintexts(campaign, name, index)
                records[f"{name}/{seed}/{index}"] = {
                    "plaintexts": _sha(stream),
                    "factors": factor_digests(record),
                    "dense": dense_digests(record),
                }
    return {"records": records, "lfsr": lfsr_digests()}


# -- tests ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def campaigns():
    return {seed: _campaign(seed) for seed in SEEDS}


CASES = [
    (name, seed, index)
    for seed in SEEDS
    for name in SCENARIOS
    for index in TRACE_INDICES
]


def test_golden_covers_every_case(golden):
    assert sorted(golden["records"]) == sorted(
        f"{name}/{seed}/{index}" for name, seed, index in CASES
    )


@pytest.mark.parametrize("name,seed,index", CASES)
def test_record_matches_golden(golden, campaigns, name, seed, index):
    expected = golden["records"][f"{name}/{seed}/{index}"]
    record, stream = _plaintexts(campaigns[seed], name, index)
    assert _sha(stream) == expected["plaintexts"]
    assert factor_digests(record) == expected["factors"]
    assert dense_digests(record) == expected["dense"]


@pytest.mark.parametrize("name", ["baseline", "T2", "T4", "TP"])
def test_codec_and_pickle_round_trips_match_golden(golden, campaigns, name):
    seed, index = SEEDS[0], TRACE_INDICES[1]
    expected = golden["records"][f"{name}/{seed}/{index}"]
    campaign = campaigns[seed]
    record = campaign.record(scenario_by_name(name), index)
    codec = RecordCodec(campaign.chip)
    arrays, meta = codec.encode(record)
    decoded = codec.decode(json.loads(json.dumps(meta)), arrays)
    unpickled = pickle.loads(pickle.dumps(record))
    for copy in (decoded, unpickled):
        assert copy.scenario == record.scenario
        assert copy.meta == record.meta
        assert factor_digests(copy) == expected["factors"]
        assert dense_digests(copy) == expected["dense"]


@pytest.mark.parametrize("name", ["idle", "baseline", "T1", "T4"])
def test_fleet_path_never_builds_dense_matrices(golden, campaigns, name):
    """Simulation, store codec and pickling carry factors only; the
    dense matrices appear on first access, equal to the golden ones."""
    seed, index = SEEDS[1], TRACE_INDICES[0]
    expected = golden["records"][f"{name}/{seed}/{index}"]["dense"]
    campaign = campaigns[seed]
    record = campaign.record(scenario_by_name(name), index)
    codec = RecordCodec(campaign.chip)
    arrays, meta = codec.encode(record)
    assert not any(key in arrays for key in GROUPS)
    copies = [record, codec.decode(meta, arrays), pickle.loads(pickle.dumps(record))]
    for copy in copies:
        assert copy._dense == {}
    for copy in copies:
        assert _sha(copy.main) == expected["main"]
        assert set(copy._dense) == {"main"}
    assert dense_digests(copies[1]) == expected


T4_CASES = [case for case in CASES if case[0] == "T4"]


@pytest.mark.parametrize("name,seed,index", T4_CASES)
def test_t4_droop_matches_dense_sum(campaigns, monkeypatch, name, seed, index):
    """T4's supply droop reads per-module totals; it equals the region
    sum of the dense main matrix to rounding."""
    seen = []
    normalized = testchip._normalized_activity

    def spy(main_factors):
        seen.append((main_factors, normalized(main_factors)))
        return seen[-1][1]

    monkeypatch.setattr(testchip, "_normalized_activity", spy)
    record = campaigns[seed].record(scenario_by_name(name), index)
    assert len(seen) == 1
    main_factors, aes_norm = seen[0]
    dense_total = power.dense_activity(main_factors, record._shape).sum(axis=0)
    reference = dense_total / dense_total.max()
    assert aes_norm.shape == (record.config.n_cycles,)
    np.testing.assert_allclose(aes_norm, reference, rtol=1e-13, atol=0)


def test_t4_record_builds_no_dense_matrix(campaigns, monkeypatch):
    calls = []
    dense_activity = power.dense_activity

    def counting(factors, shape):
        calls.append(shape)
        return dense_activity(factors, shape)

    for module in (power, testchip):
        if hasattr(module, "dense_activity"):
            monkeypatch.setattr(module, "dense_activity", counting)
    record = campaigns[SEEDS[0]].record(scenario_by_name("T4"), TRACE_INDICES[0])
    assert "trojan_rising" in record.factors
    assert calls == []
    record.trojan_rising  # the counter sees a dense build when one happens
    assert calls == [record._shape]


def test_lfsr_streams_match_golden(golden):
    assert lfsr_digests() == golden["lfsr"]


def test_perturbed_toggle_changes_digest(golden, campaigns):
    """The digests can fail: one toggle nudged by one ulp is caught."""
    seed, index = SEEDS[0], TRACE_INDICES[0]
    expected = golden["records"][f"T1/{seed}/{index}"]
    record = campaigns[seed].record(scenario_by_name("T1"), index)
    name, weights, toggles = record.factors["trojan"][0]
    nudged = np.array(toggles, dtype=float)
    nudged[17] = np.nextafter(nudged[17], np.inf)
    record.factors["trojan"][0] = (name, weights, nudged)
    assert factor_digests(record) != expected["factors"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_activity_golden.py --write")
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
