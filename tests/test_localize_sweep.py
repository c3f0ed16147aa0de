"""Batched localization stack + the localization sweep family.

Covers the three tentpole contracts of the localization rework:

* a :class:`~repro.em.coupling.CouplingStack` render is bit-identical
  to rendering each programmed coil on its own;
* every window score of the batched
  :class:`~repro.core.analysis.scanner.AdaptiveScanner` and of the
  batched quadrant refinement equals that coil scored on its own;
* the ``localize`` grid family evaluates {Trojan × implant position ×
  workload} cells into the shared ``SweepReport``.
"""

import json
import threading

import numpy as np
import pytest

from repro.chip.floorplan import (
    DEFAULT_TROJAN_SENSOR,
    default_floorplan,
    floorplan_with_trojans_at,
    sensor_rect,
)
from repro.core.analysis.localizer import QUADRANTS, Localizer
from repro.core.analysis.scanner import AdaptiveScanner
from repro.core.analysis.spectral import added_sideband_scores
from repro.core.coil import synthesize_rect_coil
from repro.core.sensors import quadrant_coil
from repro.em.coupling import CouplingStack
from repro.errors import AnalysisError, ConfigError, MeasurementError
from repro.sweep import (
    EXPECTED_QUADRANTS,
    LOCALIZE_GRIDS,
    LocalizationSweep,
    LocalizeCell,
    LocalizeGrid,
    SweepReport,
    build_localize_grid,
)
from repro.sweep.report import LocalizeCellResult


# -- stacked coil rendering ----------------------------------------------------


def test_measure_coils_batch_bit_identical_to_single(psa, records):
    coils = [
        synthesize_rect_coil("stack_a", 0, 0, 18, 1),
        synthesize_rect_coil("stack_b", 12, 12, 10, 1),
        quadrant_coil(10, "ne"),
    ]
    recs = [records["baseline"][0], records["T4"][0]]
    batch = psa.measure_coils_batch(coils, recs, trace_indices=[11, 3011])
    assert batch.samples.shape[:2] == (3, 2)
    assert batch.labels == ("stack_a", "stack_b", "psa_sensor_10_ne")
    for k, coil in enumerate(coils):
        for j, (record, index) in enumerate(zip(recs, (11, 3011))):
            single = psa.measure_coils_batch([coil], [record], [index])
            assert np.array_equal(batch.samples[k, j], single.samples[0, 0])


def test_measure_coils_batch_validates(psa, records):
    coil = synthesize_rect_coil("stack_dup", 0, 0, 10, 1)
    with pytest.raises(MeasurementError):
        psa.measure_coils_batch([], [records["baseline"][0]])
    with pytest.raises(MeasurementError):
        psa.measure_coils_batch([coil, coil], [records["baseline"][0]])


def test_stacked_render_identical_across_thread_counts(psa, records):
    """Two threads rendering one coil stack at once each get the single
    call's bytes."""
    coils = [
        synthesize_rect_coil("stack_pb_a", 0, 0, 12, 1),
        synthesize_rect_coil("stack_pb_b", 8, 8, 12, 1),
    ]
    recs = [records["T1"][0], records["T1"][1]]
    one = psa.measure_coils_batch(coils, recs)
    at_once = [None, None]

    def render(k):
        at_once[k] = psa.measure_coils_batch(coils, recs)

    workers = [threading.Thread(target=render, args=(k,)) for k in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    for batch in at_once:
        assert np.array_equal(one.samples, batch.samples)


def test_coupling_stack_validates():
    with pytest.raises(ConfigError):
        CouplingStack([])


def test_coupling_stack_rejects_duplicate_receivers(psa):
    coil = synthesize_rect_coil("stack_same", 4, 4, 8, 1)
    part = psa._coupling_for(coil)
    with pytest.raises(ConfigError):
        CouplingStack([part, part])


# -- batched scanner / refinement equivalence ---------------------------------


def _one_coil_score(psa, analyzer, coil, base, active, active_offset):
    [score] = added_sideband_scores(
        psa, analyzer, [coil], base, active, active_offset=active_offset
    )
    return float(score)


def test_batched_scan_bit_identical_to_sequential(psa, records):
    """Each level's batched scores equal one-coil scoring calls."""
    base, active = records["baseline"], records["T4"]
    scanner = AdaptiveScanner(psa)
    result = scanner.scan(base, active)
    for level in result.levels:
        for window in level:
            coil = scanner._window_coil(window.col0, window.row0, window.size)
            assert window.score == _one_coil_score(
                psa, scanner.analyzer, coil, base, active, 3000
            )
    assert result.path == [
        max(level, key=lambda window: window.score) for level in result.levels
    ]


def test_batched_refine_bit_identical_to_sequential(psa, records):
    """Each batched quadrant score equals a one-coil scoring call."""
    base, active = records["baseline"], records["T1"]
    localizer = Localizer(psa)
    batched = localizer._refine(10, base, active)
    assert list(batched) == list(QUADRANTS)
    for which, score in batched.items():
        assert score == _one_coil_score(
            psa, localizer.analyzer, quadrant_coil(10, which), base, active, 2000
        )


# -- implant-position floorplans ----------------------------------------------


def test_default_floorplan_is_position_10():
    default = default_floorplan()
    relocated = floorplan_with_trojans_at(DEFAULT_TROJAN_SENSOR)
    for trojan in ("T1", "T2", "T3", "T4"):
        assert default.placements[trojan] == relocated.placements[trojan]


def test_relocated_cluster_stays_inside_host():
    for position in (0, 5, 6, 9, 15):
        floorplan = floorplan_with_trojans_at(position)
        host = sensor_rect(position)
        for trojan in ("T1", "T2", "T3", "T4"):
            x, y = floorplan.placements[trojan][0].center
            assert host.x0 <= x <= host.x1 and host.y0 <= y <= host.y1, (position, trojan)


# -- grid family ---------------------------------------------------------------


def test_localize_cell_defaults_and_labels():
    cell = LocalizeCell(trojan="T2")
    assert cell.reference == "T2_ref"
    assert cell.position == DEFAULT_TROJAN_SENSOR
    assert cell.label == "T2@s10|T2_ref@0"
    assert cell.expected_quadrant == EXPECTED_QUADRANTS["T2"]


def test_localize_cell_validation():
    with pytest.raises(AnalysisError):
        LocalizeCell(trojan="T9")
    with pytest.raises(AnalysisError):
        LocalizeCell(trojan="T1", position=16)
    with pytest.raises(AnalysisError):
        LocalizeCell(trojan="T1", n_records=0)
    with pytest.raises(AnalysisError):
        LocalizeCell(trojan="T1", n_repeats=0)


def test_localize_grid_product_covers_axes():
    grid = LocalizeGrid.product(
        "family",
        trojans=("T1", "T4"),
        positions=(6, 10, 15),
        references=(("auto", 0), ("auto", 5000)),
    )
    assert len(grid.cells) == 12
    assert list(dict.fromkeys(cell.position for cell in grid.cells)) == [6, 10, 15]
    labels = [cell.label for cell in grid.cells]
    assert len(set(labels)) == 12


def test_localize_grid_rejects_duplicates_and_empty():
    with pytest.raises(AnalysisError):
        LocalizeGrid(name="empty", cells=())
    cell = LocalizeCell(trojan="T1")
    with pytest.raises(AnalysisError):
        LocalizeGrid(name="dup", cells=(cell, cell))


def test_named_presets_build():
    for name in LOCALIZE_GRIDS:
        grid = build_localize_grid(name)
        assert len(grid.cells) >= 2
    with pytest.raises(AnalysisError):
        build_localize_grid("bogus")
    # The headline preset covers >= 3 positions x >= 2 Trojan types.
    grid = build_localize_grid("localize")
    assert len({cell.position for cell in grid.cells}) >= 3
    assert len({cell.trojan for cell in grid.cells}) >= 2


# -- orchestrator ---------------------------------------------------------------


@pytest.fixture(scope="module")
def localize_report(campaign):
    grid = LocalizeGrid(
        name="test",
        cells=(
            LocalizeCell(trojan="T4", n_records=2, scan=True),
            LocalizeCell(trojan="T1", position=15, n_records=2),
        ),
        keep_details=True,
    )
    sweep = LocalizationSweep(campaign.chip.config, campaign=campaign)
    return sweep.run(grid)


def test_sweep_localizes_every_cell(localize_report):
    assert isinstance(localize_report, SweepReport)
    assert localize_report.all_detected
    for cell in localize_report.cells:
        assert isinstance(cell, LocalizeCellResult)
        assert cell.hit_rate == 1.0
        assert cell.success
        assert cell.mean_error_um < 150.0
        assert cell.mean_margin_db > 0.0
        for outcome in cell.outcomes:
            assert outcome.sensor_index == cell.host_sensor
            assert outcome.quadrant == cell.expected_quadrant


def test_sweep_counts_measurement_windows(localize_report):
    scanned, fixed = localize_report.cells
    # Fixed flow: 16-sensor score map + 4 quadrant coils.
    assert fixed.outcomes[0].windows == 20
    assert fixed.outcomes[0].scan_windows is None
    # Scan-enabled flow adds the quadtree windows on top.
    assert scanned.outcomes[0].scan_windows > 0
    assert scanned.outcomes[0].windows == 20 + scanned.outcomes[0].scan_windows
    assert scanned.outcomes[0].scan_error_um < 300.0


def test_sweep_keeps_details(localize_report):
    for cell in localize_report.cells:
        assert cell.details is not None
        assert len(cell.details) == cell.n_repeats
        assert cell.details[0].sensor_index == cell.host_sensor


def test_report_round_trips_json(localize_report):
    payload = json.loads(localize_report.to_json())
    assert payload["grid"] == "test"
    assert payload["all_detected"] is True
    # No detection cells -> no latency was measured, never a vacuous
    # "budget met".
    assert payload["all_within_budget"] is None
    for cell in payload["cells"]:
        assert cell["kind"] == "localize"
        assert cell["hit_rate"] == 1.0
        assert cell["mean_error_um"] > 0.0


def test_sweep_rejects_mismatched_campaign(chip):
    from repro.chip.testchip import TestChip
    from repro.core.array import ProgrammableSensorArray
    from repro.workloads.campaign import MeasurementCampaign

    relocated = TestChip(
        bytes(range(16)),
        chip.config,
        floorplan=floorplan_with_trojans_at(6),
    )
    campaign = MeasurementCampaign(relocated, ProgrammableSensorArray(relocated))
    with pytest.raises(AnalysisError):
        LocalizationSweep(chip.config, campaign=campaign)


def test_sweep_inherits_campaign_key(campaign):
    sweep = LocalizationSweep(campaign.chip.config, campaign=campaign)
    assert sweep.key == campaign.chip.key


def test_report_formats_localize_table(localize_report):
    text = localize_report.format()
    assert "Localization sweep" in text
    assert "hit-rate" in text
    assert "T1@s15|baseline@0" in text
