"""One record memo: every consumer simulates a record only on a miss.

A live monitor (chunks, ``warm_records``, ``localization_records``,
the IDENTIFY re-capture), a detection sweep and a localization sweep
all take their records from :meth:`MeasurementCampaign.stream_records`.
Against a store, a cold run simulates each distinct ``(scenario,
index)`` once (per chip: a localization sweep builds one chip per
implant position) and misses the disk once for it; a warm run
simulates nothing and hits the disk once per key; either way each
record asked for is one memo read.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.config import SimConfig
from repro.runtime import build_fleet, build_preset
from repro.store import ArtifactStore
from repro.store.store import StoreMapping
from repro.sweep import DetectionSweep, LocalizationSweep, build_grid
from repro.sweep.localize import build_localize_grid
from repro.workloads.campaign import MeasurementCampaign


@pytest.fixture
def ledger(monkeypatch):
    """Count simulations, records asked for, memo reads and disk reads."""
    counts = {}
    record, stream_records = MeasurementCampaign.record, MeasurementCampaign.stream_records
    getitem, store_get = StoreMapping.__getitem__, ArtifactStore.get

    def counted_record(self, scenario, index):
        counts["sims"][id(self), scenario.name, index] += 1
        return record(self, scenario, index)

    def counted_stream_records(self, segments, memo=None):
        counts["asked"] += [(id(self), s.scenario, i) for s in segments for i in s.indices]
        return stream_records(self, segments, memo)

    def counted_getitem(self, item):
        counts["reads"] += self.kind == "record"
        return getitem(self, item)

    def counted_get(self, kind, key, decode=None):
        value = store_get(self, kind, key, decode)
        counts["disk"]["miss" if value is None else "hit"] += kind == "record"
        return value

    monkeypatch.setattr(MeasurementCampaign, "record", counted_record)
    monkeypatch.setattr(MeasurementCampaign, "stream_records", counted_stream_records)
    monkeypatch.setattr(StoreMapping, "__getitem__", counted_getitem)
    monkeypatch.setattr(ArtifactStore, "get", counted_get)
    return counts


def _cold_then_warm(tmp_path, ledger, run):
    """Run ``run(store)`` on an empty store, then on a reopened one."""
    for warm in (False, True):
        ledger.update(sims=Counter(), asked=[], reads=0, disk=Counter())
        run(ArtifactStore(tmp_path / "store"))
        keys = set(ledger["asked"])
        assert keys and ledger["reads"] == len(ledger["asked"])
        assert ledger["sims"] == (Counter() if warm else Counter(keys))
        assert +ledger["disk"] == Counter({"hit" if warm else "miss": len(keys)})


def test_live_session_reads_each_record_once(tmp_path, ledger):
    def run(store):
        [monitor] = build_fleet("smoke", store=store).monitors
        monitor.source.warm_records()
        monitor.source.localization_records(build_preset("smoke").localize_records)
        assert monitor.pipeline.run(monitor.source).localization is not None

    _cold_then_warm(tmp_path, ledger, run)


def test_detection_sweep_reads_each_record_once(tmp_path, ledger, campaign):
    grid = build_grid("smoke")
    quantized = dataclasses.replace(
        grid, cells=tuple(dataclasses.replace(c, quantize=True) for c in grid.cells)
    )
    runs = iter((grid, quantized))  # new span features, the same records
    _cold_then_warm(
        tmp_path, ledger, lambda store: DetectionSweep(campaign, store=store).run(next(runs))
    )


def test_localization_sweep_reads_each_record_once(tmp_path, ledger):
    grid = build_localize_grid("localize-smoke")
    _cold_then_warm(
        tmp_path, ledger, lambda store: LocalizationSweep(SimConfig(), store=store).run(grid)
    )
