"""Artifact-store behavior: keying, invalidation, robustness.

The store's contract has three legs, each pinned here:

* **keying** — identical provenance maps to identical content
  addresses (hit); *any* chip/workload/Trojan/engine-parameter
  perturbation changes the address (miss, never a wrong payload);
* **integrity** — corrupted or partial entries are evicted, not
  served; payload round-trips are bit-identical;
* **robustness** — concurrent writers (a fleet) cannot corrupt the
  store, and the LRU cap evicts oldest-first with reads refreshing
  recency.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chip.floorplan import floorplan_with_trojans_at
from repro.chip.testchip import TestChip as AesTestChip
from repro.errors import StoreError
from repro.instruments.adc import AdcSpec
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.runtime import ActivationSchedule, LiveSource, build_preset
from repro.store import (
    ArrayCodec,
    ArtifactStore,
    RecordCodec,
    adc_fingerprint,
    analyzer_fingerprint,
    campaign_fingerprint,
    chip_fingerprint,
    digest,
)
from repro.store.keys import CODE_VERSION, KEY_SCHEMA
from repro.workloads.scenarios import scenario_by_name


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


# -- keying ---------------------------------------------------------------------


def test_same_chip_same_address(chip):
    assert digest(chip_fingerprint(chip)) == digest(chip_fingerprint(chip))


def test_identical_rebuild_same_address(chip, config):
    twin = AesTestChip(bytes(range(16)), config)
    assert digest(chip_fingerprint(twin)) == digest(chip_fingerprint(chip))


@pytest.mark.parametrize(
    "item",
    [
        ("baseline", 11),
        ("baseline", 4, 0, (0, 1, 2), True),
        2.5,
        -0.0,
        np.int64(7),
        np.float32(0.1),
        b"\x00\xffkey",
        None,
        {"z": [1, (2.0, np.float64(3.5))], "a": {"nested": b"\x01"}},
    ],
)
def test_mapping_address_is_digest_of_material(store, chip, item):
    """The per-view hash prefix gives exactly the full-material digest."""
    mapping = store.records(chip)
    assert mapping.address(item) == digest(
        {
            "schema": KEY_SCHEMA,
            "code": CODE_VERSION,
            "kind": "record",
            "context": {"chip": chip_fingerprint(chip)},
            "item": item,
        }
    )


def test_mapping_address_is_pinned(store, config, monkeypatch):
    """Addresses move only with ``KEY_SCHEMA`` (or the code version,
    fixed here), so an existing store keeps hitting.  These are the
    ``KEY_SCHEMA = 2`` addresses."""
    import repro.store.store as store_module

    assert KEY_SCHEMA == 2

    monkeypatch.setattr(store_module, "CODE_VERSION", "0.0.0-fixed")
    records = store.records(AesTestChip(bytes(range(16)), config))
    assert records.address(("T1", 3)) == (
        "4f93670f5c16d9d6e98ff09dab9f2a21b58efdcac0babf3119e6e6f146ea8826"
    )
    spans = store.mapping(
        "span-features", {"v": 1.5, "b": b"\x00\xff"}, ArrayCodec()
    )
    assert spans.address(("baseline", 4, 0, (0, 1, 2), True)) == (
        "f3c9bbb3a3a025dc81886e9e07286fe6610c6854dfef9899956b2aeb84cb8611"
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"seed": 1},
        {"vdd": 1.0},
        {"oversample": 8},
        {"n_cycles": 264},
        {"f_clock": 66e6},
        {"temperature_c": 85.0},
    ],
)
def test_engine_param_perturbation_misses(chip, config, changes):
    perturbed = AesTestChip(bytes(range(16)), config.with_(**changes))
    assert digest(chip_fingerprint(perturbed)) != digest(
        chip_fingerprint(chip)
    )


def test_key_and_floorplan_perturbations_miss(chip, config):
    other_key = AesTestChip(bytes(range(1, 17)), config)
    assert digest(chip_fingerprint(other_key)) != digest(
        chip_fingerprint(chip)
    )
    moved = AesTestChip(
        bytes(range(16)), config, floorplan=floorplan_with_trojans_at(6)
    )
    assert digest(chip_fingerprint(moved)) != digest(chip_fingerprint(chip))


def test_frontend_perturbations_miss(campaign):
    base = digest(
        {
            "campaign": campaign_fingerprint(campaign),
            "analyzer": analyzer_fingerprint(SpectrumAnalyzer()),
            "adc": adc_fingerprint(AdcSpec(n_bits=12, full_scale=10.0)),
        }
    )
    narrower = digest(
        {
            "campaign": campaign_fingerprint(campaign),
            "analyzer": analyzer_fingerprint(SpectrumAnalyzer(n_points=500)),
            "adc": adc_fingerprint(AdcSpec(n_bits=12, full_scale=10.0)),
        }
    )
    coarser = digest(
        {
            "campaign": campaign_fingerprint(campaign),
            "analyzer": analyzer_fingerprint(SpectrumAnalyzer()),
            "adc": adc_fingerprint(AdcSpec(n_bits=8, full_scale=10.0)),
        }
    )
    assert len({base, narrower, coarser}) == 3


def test_workload_and_trojan_keys_distinct(store, chip):
    mapping = store.records(chip)
    addresses = {
        mapping.address(item)
        for item in [
            ("baseline", 0),
            ("baseline", 1),
            ("T1", 0),
            ("T4", 0),
            ("T2_ref", 0),
        ]
    }
    assert len(addresses) == 5


def test_mapping_hit_after_reopen(store, campaign, chip, tmp_path):
    record = campaign.record(scenario_by_name("T1"), 3)
    store.records(chip)[("T1", 3)] = record
    reopened = ArtifactStore(store.root).records(chip)
    loaded = reopened[("T1", 3)]
    assert np.array_equal(loaded.main, record.main)
    assert np.array_equal(loaded.trojan, record.trojan)
    assert np.array_equal(loaded.trojan_rising, record.trojan_rising)
    assert loaded.scenario == record.scenario
    assert loaded.meta == record.meta
    assert set(loaded.factors) == set(record.factors)
    for group, parts in record.factors.items():
        for (name, w, t), (name2, w2, t2) in zip(parts, loaded.factors[group]):
            assert name == name2
            assert np.array_equal(w, w2)
            assert np.array_equal(t, t2)


def test_mapping_memoizes_identity(store, campaign, chip):
    record = campaign.record(scenario_by_name("baseline"), 11)
    mapping = ArtifactStore(store.root).records(chip)
    mapping[("baseline", 11)] = record
    fresh = ArtifactStore(store.root).records(chip)
    assert fresh[("baseline", 11)] is fresh[("baseline", 11)]


def test_array_mapping_roundtrip(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec(True))
    data = np.arange(12.0).reshape(3, 4)
    mapping[("baseline", 4, 0, (0, 1, 2), True)] = data
    back = ArtifactStore(store.root).mapping(
        "span-features", {"v": 1}, ArrayCodec(True)
    )[("baseline", 4, 0, (0, 1, 2), True)]
    assert np.array_equal(back, data)
    assert not back.flags.writeable


def test_context_partitions_namespaces(store):
    a = store.mapping("span-features", {"v": 1}, ArrayCodec())
    b = store.mapping("span-features", {"v": 2}, ArrayCodec())
    a[("x",)] = np.ones(3)
    assert b.get(("x",)) is None


# -- integrity ------------------------------------------------------------------


def _single_object_path(store: ArtifactStore):
    paths = [
        path
        for path in (store.root / "objects").rglob("*.npz")
        if not path.name.startswith(".tmp-")
    ]
    assert len(paths) == 1
    return paths[0]


def _garbage_bytes(store, mapping):
    _single_object_path(store).write_bytes(b"not a zip archive at all")


def _bogus_format(store, mapping):
    # A valid object the codec rejects: it is a miss, never a hit.
    address = mapping.address(("x",))
    store.put("span-features", address, {"data": np.ones(4)}, {"format": "bogus"})


@pytest.mark.parametrize(
    "corrupt", [_garbage_bytes, _bogus_format], ids=["garbage-bytes", "bogus-format"]
)
def test_corrupted_entry_evicted_not_served(store, corrupt):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    mapping[("x",)] = np.ones(4)
    path = _single_object_path(store)
    corrupt(store, mapping)
    fresh = ArtifactStore(store.root)
    assert fresh.mapping("span-features", {"v": 1}, ArrayCodec()).get(
        ("x",)
    ) is None
    assert not path.exists()
    assert fresh.hits == 0
    assert fresh.misses == 1
    assert fresh.corrupt_evictions == 1


def test_partial_entry_evicted_not_served(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    mapping[("x",)] = np.arange(4096.0)
    path = _single_object_path(store)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    fresh = ArtifactStore(store.root)
    assert fresh.mapping("span-features", {"v": 1}, ArrayCodec()).get(
        ("x",)
    ) is None
    assert not path.exists()


def test_kind_mismatch_is_evicted(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    mapping[("x",)] = np.ones(4)
    address = mapping.address(("x",))
    # Same bytes presented under another kind must not be served.
    source = store._path("span-features", address)
    target = store._path("record", address)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(source.read_bytes())
    fresh = ArtifactStore(store.root)
    assert fresh.get("record", address) is None
    assert not target.exists()


def test_schema_marker_mismatch_clears(store, tmp_path):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    mapping[("x",)] = np.ones(4)
    (store.root / "store.json").write_text(json.dumps({"schema": -1}))
    fresh = ArtifactStore(store.root)
    assert fresh.stats().entries == 0
    # The wipe rewrites the marker, so entries written afterwards
    # survive the *next* open instead of being wiped again.
    fresh.mapping("span-features", {"v": 1}, ArrayCodec())[("y",)] = (
        np.ones(4)
    )
    assert ArtifactStore(store.root).stats().entries == 1


@pytest.mark.parametrize("blob", ["null", "[]", "not json {"])
def test_degenerate_marker_is_recovered(store, blob):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    mapping[("x",)] = np.ones(4)
    (store.root / "store.json").write_text(blob)
    fresh = ArtifactStore(store.root)  # must not raise
    assert fresh.stats().entries == 0
    assert json.loads((store.root / "store.json").read_text()) == {
        "schema": 2
    }


def test_code_version_is_part_of_every_address(store, monkeypatch):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    before = mapping.address(("x",))
    import repro.store.store as store_module

    monkeypatch.setattr(store_module, "CODE_VERSION", "999.0.0")
    after = store.mapping(
        "span-features", {"v": 1}, ArrayCodec()
    ).address(("x",))
    assert before != after


def test_reserved_array_name_rejected(store):
    with pytest.raises(StoreError):
        store.put("k", "0" * 64, {"__meta__": np.ones(1)}, {})


# -- record format --------------------------------------------------------------

#: Records of one chip: Trojan-quiet, falling- and rising-edge payloads and
#: an always-on variant hosted in T4's rect.
RECORD_ITEMS = [(name, index) for name in ("baseline", "T1", "T4", "TP") for index in (0, 1)]


def _stored_records(store, campaign, chip):
    """Persist RECORD_ITEMS, then decode them through a fresh handle."""
    view = store.records(chip)
    for name, index in RECORD_ITEMS:
        view[(name, index)] = campaign.record(scenario_by_name(name), index)
    fresh = ArtifactStore(store.root).records(chip)
    return [fresh[item] for item in RECORD_ITEMS]


def test_record_entry_holds_only_its_toggles(store, campaign, chip):
    record = campaign.record(scenario_by_name("T4"), 2)
    view = store.records(chip)
    view[("T4", 2)] = record
    _, arrays = store.get("record", view.address(("T4", 2)))
    assert list(arrays) == ["toggles"]
    n_factors = sum(len(parts) for parts in record.factors.values())
    assert arrays["toggles"].shape == (n_factors, chip.config.n_cycles)


def test_decoded_records_share_the_chips_weights(store, campaign, chip):
    for record in _stored_records(store, campaign, chip):
        for parts in record.factors.values():
            for name, weights, _ in parts:
                assert weights is chip.factor_weights(name)


def test_record_codec_rejects_foreign_weights(chip, campaign):
    record = campaign.record(scenario_by_name("baseline"), 0)
    name, weights, toggles = record.factors["main"][0]
    record.factors["main"][0] = (name, weights[::-1].copy(), toggles)
    with pytest.raises(StoreError):
        RecordCodec(chip).encode(record)


def test_record_entry_is_a_deflated_npz(store, campaign, chip):
    record = campaign.record(scenario_by_name("T4"), 1)
    view = store.records(chip)
    view[("T4", 1)] = record
    path = store._path("record", view.address(("T4", 1)))
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
    assert sorted(info.filename for info in members) == ["__meta__.npy", "toggles.npy"]
    assert {info.compress_type for info in members} == {zipfile.ZIP_DEFLATED}
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        arrays = {"toggles": archive["toggles"]}
    decoded = RecordCodec(chip).decode(header["meta"], arrays)
    for group, parts in record.factors.items():
        got = decoded.factors[group]
        assert [name for name, _, _ in got] == [name for name, _, _ in parts]
        for (_, _, toggles), (_, _, want) in zip(got, parts):
            assert np.array_equal(toggles, want)


def test_soak_record_entries_stay_small(store, campaign):
    """A soak session's records deflate to at most 8 KB each on average
    (they are ~69 KB stored uncompressed)."""
    preset = build_preset("soak")
    schedule = ActivationSchedule.step(
        preset.trojan, n_baseline=preset.n_baseline, n_active=preset.n_active
    )
    n_records = LiveSource(campaign, schedule, store=store).warm_records()
    count, size = store.stats().by_kind["record"]
    assert count == n_records == preset.n_baseline + preset.n_active
    assert size / count <= 8 * 1024


def _drop_a_cycle(meta, arrays):
    arrays["toggles"] = arrays["toggles"][:, :-1]


def _unknown_factor(meta, arrays):
    meta["parts"]["main"][0] = "no_such_module"


def _missing_parts(meta, arrays):
    del meta["parts"]


@pytest.mark.parametrize(
    "tamper",
    [_drop_a_cycle, _unknown_factor, _missing_parts],
    ids=["toggles-shape", "unknown-factor", "missing-parts"],
)
def test_undecodable_record_is_resimulated_not_served(store, campaign, tamper):
    schedule = ActivationSchedule.step("T4", n_baseline=3, n_active=2)

    def render(source):
        return np.concatenate([chunk.samples for chunk in source.chunks()], axis=1)

    cold = render(LiveSource(campaign, schedule))
    n_records = LiveSource(campaign, schedule, store=store).warm_records()
    item = ("T4", schedule.segments[-1].index_offset)
    address = store.records(campaign.chip).address(item)
    meta, arrays = store.get("record", address)
    tamper(meta, arrays)
    store.put("record", address, arrays, meta)

    fresh = ArtifactStore(store.root)
    assert np.array_equal(render(LiveSource(campaign, schedule, store=fresh)), cold)
    assert fresh.hits == n_records - 1
    assert fresh.misses == 1
    assert fresh.corrupt_evictions == 1
    # The re-simulated record replaced the evicted entry.
    assert fresh.writes == 1
    assert ArtifactStore(store.root).records(campaign.chip).get(item) is not None


# -- LRU / gc -------------------------------------------------------------------


def test_gc_evicts_oldest_first(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    for index in range(4):
        mapping[(index,)] = np.full(256, float(index))
        path = store._path("span-features", mapping.address((index,)))
        os.utime(path, (1000.0 + index, 1000.0 + index))
    keep = sum(
        store._path("span-features", mapping.address((index,))).stat().st_size
        for index in (2, 3)
    )
    store.gc(keep)
    fresh = ArtifactStore(store.root).mapping(
        "span-features", {"v": 1}, ArrayCodec()
    )
    assert fresh.get((0,)) is None
    assert fresh.get((1,)) is None
    assert fresh.get((2,)) is not None
    assert fresh.get((3,)) is not None


def test_read_refreshes_recency(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    for index in range(3):
        mapping[(index,)] = np.full(256, float(index))
        path = store._path("span-features", mapping.address((index,)))
        os.utime(path, (1000.0 + index, 1000.0 + index))
    # A fresh handle reads entry 0, making it the most recent.
    reader = ArtifactStore(store.root)
    assert reader.mapping("span-features", {"v": 1}, ArrayCodec()).get(
        (0,)
    ) is not None
    keep = store._path(
        "span-features", mapping.address((0,))
    ).stat().st_size
    reader.gc(keep)
    survivor = ArtifactStore(store.root).mapping(
        "span-features", {"v": 1}, ArrayCodec()
    )
    assert survivor.get((0,)) is not None
    assert survivor.get((1,)) is None


def test_put_triggers_opportunistic_gc(tmp_path):
    small = ArtifactStore(tmp_path / "small", max_bytes=1)
    mapping = small.mapping("span-features", {"v": 1}, ArrayCodec())
    for index in range(3):
        mapping[(index,)] = np.full(64, float(index))
    assert small.stats().entries <= 1


def _total_bytes(store: ArtifactStore) -> int:
    return ArtifactStore(store.root).stats().total_bytes


# -- concurrency ----------------------------------------------------------------


def test_concurrent_writers_do_not_corrupt(store):
    def mapping_factory():
        return ArtifactStore(store.root).mapping(
            "span-features", {"v": 1}, ArrayCodec()
        )

    def worker(worker_id: int) -> None:
        mapping = mapping_factory()
        for round_index in range(10):
            # Half the keys collide across workers (same content —
            # determinism makes racing writes byte-identical), half
            # are private.
            shared = ("shared", round_index)
            private = ("private", worker_id, round_index)
            mapping[shared] = np.full(128, float(round_index))
            mapping[private] = np.full(128, float(worker_id))
            loaded = mapping_factory().get(shared)
            assert loaded is None or np.array_equal(
                loaded, np.full(128, float(round_index))
            )

    with ThreadPoolExecutor(max_workers=8) as pool:
        for future in [pool.submit(worker, i) for i in range(8)]:
            future.result()

    # Every surviving entry must load cleanly.
    verifier = ArtifactStore(store.root)
    mapping = verifier.mapping("span-features", {"v": 1}, ArrayCodec())
    for round_index in range(10):
        value = mapping.get(("shared", round_index))
        assert value is not None
        assert np.array_equal(value, np.full(128, float(round_index)))
    assert verifier.corrupt_evictions == 0


def test_concurrent_marker_writes_on_fresh_root(tmp_path):
    """Threads stamping the schema marker of a marker-less root at once
    must neither collide on a temp file nor leave one behind."""
    store = ArtifactStore(tmp_path / "fresh")
    assert not store.root.exists()
    barrier = threading.Barrier(8, timeout=30)

    def stamp() -> None:
        barrier.wait()
        for _ in range(25):
            store._write_marker()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(stamp) for _ in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert [path.name for path in store.root.iterdir()] == ["store.json"]
    assert json.loads((store.root / "store.json").read_text())["schema"]


def test_concurrent_gc_and_reads(store):
    mapping = store.mapping("span-features", {"v": 1}, ArrayCodec())
    for index in range(20):
        mapping[(index,)] = np.full(64, float(index))

    def reader() -> None:
        fresh = ArtifactStore(store.root).mapping(
            "span-features", {"v": 1}, ArrayCodec()
        )
        for index in range(20):
            value = fresh.get((index,))
            if value is not None:
                assert np.array_equal(value, np.full(64, float(index)))

    def collector() -> None:
        ArtifactStore(store.root).gc(0)

    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [pool.submit(reader) for _ in range(4)]
        futures += [pool.submit(collector) for _ in range(2)]
        for future in futures:
            future.result()
