"""The fleet scheduler: concurrent monitors, on-demand rendering, CLI."""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest

from repro.cli import main
from repro.errors import AnalysisError
from repro.runtime import (
    EventBus,
    FleetScheduler,
    LiveSource,
    build_chip_monitor,
    build_fleet,
    build_preset,
)
from repro.runtime.presets import MONITOR_PRESETS


@pytest.fixture(scope="module")
def fleet_report():
    """One 4-chip smoke fleet run shared by the assertions below."""
    scheduler = build_fleet("smoke", n_chips=4)
    return scheduler.run()


def test_fleet_runs_four_chips_concurrently(fleet_report):
    report = fleet_report
    assert report.n_chips == 4
    # Every archetype is monitored, one per chip.
    assert [c.trojan for c in report.chips] == ["T1", "T2", "T3", "T4"]
    # Round-robin interleave: the first tick touches every chip before
    # any chip gets its second chunk — genuinely concurrent progress.
    chip_ids = [c.chip_id for c in report.chips]
    assert list(report.interleave[:4]) == chip_ids
    assert set(report.interleave) == set(chip_ids)
    # Each chunk is rendered on its member's turn and processed at
    # once: one rendered chunk held, no producer ever throttled.
    assert report.max_queue_len == 1
    assert report.backpressure_events == 0


def test_fleet_detects_identifies_localizes(fleet_report):
    report = fleet_report
    assert report.all_detected
    assert report.mean_mttd_s < 10e-3
    assert report.mean_traces_to_detect < 10
    for chip in report.chips:
        assert chip.report.identification.label == chip.trojan
        assert chip.report.localization.sensor_index == chip.host_sensor
        # Quadrant-center estimate lands within ~half a sensor pitch.
        assert chip.localization_error_um < 250


def test_fleet_member_bit_identical_to_standalone(fleet_report):
    """Interleaving never changes a member's decisions."""
    preset = build_preset("smoke")
    spec = preset.specs(4)[2]  # chip2: T3
    monitor = build_chip_monitor(
        spec, pipeline_config=preset.pipeline_config()
    )
    standalone = monitor.pipeline.run(monitor.source)
    fleet_side = fleet_report.chips[2].report
    assert np.array_equal(standalone.features_db, fleet_side.features_db)
    assert standalone.alarms == fleet_side.alarms
    assert standalone.mttd == fleet_side.mttd
    assert (
        standalone.identification.label == fleet_side.identification.label
    )
    assert (
        standalone.localization.position
        == fleet_side.localization.position
    )


def test_shared_bus_keeps_per_session_event_counts():
    """A fleet-shared bus must not inflate per-chip event counters."""
    bus = EventBus()
    report = build_fleet("smoke", n_chips=2, bus=bus).run()
    for chip in report.chips:
        counts = chip.report.event_counts
        assert counts["WindowProcessed"] == chip.report.n_windows
    total = sum(
        sum(c.report.event_counts.values()) for c in report.chips
    )
    # Every event on the bus is a pipeline decision of some member.
    assert total == sum(bus.counts.values())


def test_fleet_never_queues_or_stalls():
    """Round-robin, one chunk per member per tick, nothing queued.

    The smoke preset scripts 3 chunks per member (the 6-window baseline
    splits 4+2, chunks never span a segment, then the active span), so
    the interleave is three full rounds in member order, with no typed
    ``Backpressure`` event on the bus.
    """
    bus = EventBus()
    report = build_fleet("smoke", n_chips=2, bus=bus).run()
    assert report.interleave == ("chip0", "chip1") * 3
    assert report.max_queue_len == 1
    assert report.backpressure_events == 0
    assert "Backpressure" not in bus.counts
    assert report.all_detected
    assert report.to_dict()["backpressure_events"] == 0


def test_fleet_holds_one_rendered_chunk_at_a_time(monkeypatch):
    """Peak memory of one chunk, not of every member's next chunks.

    Every chunk the members' sources make is tracked by weakref, with
    the array it carries.  When a chunk is made, every earlier one must
    be gone already: the scheduler drops a member's chunk before the
    next member renders.  A depth-2 render-ahead queue holds 8 chunks of a
    4-chip fleet after its first tick.
    """
    made = []
    alive = []
    chunk_from = LiveSource.chunk_from

    def tracked(batch, position):
        chunk = chunk_from(batch, position)
        data = chunk.samples if chunk.spectra is None else chunk.spectra.values
        made.append((weakref.ref(chunk), weakref.ref(data)))
        alive.append(
            sum(
                chunk_ref() is not None or samples_ref() is not None
                for chunk_ref, samples_ref in made
            )
        )
        return chunk

    monkeypatch.setattr(LiveSource, "chunk_from", staticmethod(tracked))
    report = build_fleet("smoke", n_chips=4).run()
    assert len(made) == len(report.interleave) == 12
    assert max(alive) == 1


def test_fleet_report_serializes(fleet_report):
    payload = fleet_report.to_dict()
    encoded = json.loads(json.dumps(payload))
    assert encoded["n_chips"] == 4
    assert len(encoded["chips"]) == 4
    assert encoded["all_detected"] is True
    table = fleet_report.format()
    for chip in fleet_report.chips:
        assert chip.chip_id in table


def test_fleet_guards():
    with pytest.raises(AnalysisError):
        FleetScheduler([])
    preset = build_preset("smoke")
    monitor = build_chip_monitor(preset.specs(1)[0])
    with pytest.raises(AnalysisError):
        FleetScheduler([monitor, monitor])  # duplicate chip id
    with pytest.raises(AnalysisError):
        build_preset("bogus")
    with pytest.raises(AnalysisError):
        preset.specs(0)


def test_presets_registry():
    assert {"smoke", "paper", "soak"} <= set(MONITOR_PRESETS)
    smoke = MONITOR_PRESETS["smoke"]
    assert smoke.n_baseline + smoke.n_active == 10
    # Single-chip sessions keep the preset Trojan; fleets cycle.
    assert smoke.specs(1)[0].trojan == smoke.trojan
    trojans = [spec.trojan for spec in smoke.specs(5)]
    assert trojans == ["T1", "T2", "T3", "T4", "T1"]
    seeds = [spec.seed for spec in smoke.specs(3)]
    assert len(set(seeds)) == 3


def test_cli_monitor_smoke(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    payload = tmp_path / "fleet.json"
    code = main(
        [
            "monitor",
            "--preset",
            "smoke",
            "--fleet",
            "2",
            # Keep the test hermetic: never touch the user's real
            # artifact store.
            "--store-dir",
            str(tmp_path / "store"),
            "--events",
            str(events),
            "--monitor-json",
            str(payload),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet: 2 chips" in out
    report = json.loads(payload.read_text())
    assert report["n_chips"] == 2
    assert report["all_detected"] is True
    lines = [
        json.loads(line)
        for line in events.read_text().splitlines()
        if line.strip()
    ]
    assert {entry["chip"] for entry in lines} == {"chip0", "chip1"}
    assert any(entry["type"] == "TrojanLocalized" for entry in lines)
