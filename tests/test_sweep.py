"""Sweep orchestration and the vectorized Welford detector core."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.analysis.detector import DetectorConfig
from repro.detectors.welford import RollingMoments, WelfordDetector
from repro.errors import AnalysisError
from repro.sweep import (
    DetectionSweep,
    SweepCell,
    SweepGrid,
    build_grid,
    mttd_grid,
    table1_grid,
)


def _step_streams(rng, n_streams, n_base, n_active, step=25.0):
    base = rng.normal(-40.0, 0.4, (n_streams, n_base))
    active = rng.normal(-40.0 + step, 0.4, (n_streams, n_active))
    return np.concatenate([base, active], axis=1)


# -- rolling Welford moments ---------------------------------------------------


def test_rolling_moments_match_numpy_window():
    rng = np.random.default_rng(3)
    values = rng.normal(5.0, 2.0, 300)
    window = 16
    moments = RollingMoments(1, window)
    for index, value in enumerate(values):
        moments.push(np.array([value]), np.array([True]))
        tail = values[max(0, index - window + 1) : index + 1]
        assert moments.count[0] == tail.size
        assert moments.mean[0] == pytest.approx(tail.mean(), abs=1e-10)
        if tail.size > 1:
            assert moments.std()[0] == pytest.approx(
                tail.std(ddof=1), abs=1e-10
            )


def test_rolling_moments_masked_push():
    moments = RollingMoments(2, 8)
    for value in (1.0, 2.0, 3.0):
        moments.push(
            np.array([value, value]), np.array([True, False])
        )
    assert moments.count[0] == 3 and moments.count[1] == 0
    assert moments.mean[0] == pytest.approx(2.0)


# -- bank vs sequential detector -----------------------------------------------


@st.composite
def _welford_configs(draw):
    warmup = draw(st.integers(min_value=2, max_value=6))
    return DetectorConfig(
        warmup=warmup,
        # Windows this short evict well inside an 80-trace stream.
        baseline_window=draw(st.integers(min_value=warmup, max_value=10)),
        z_threshold=draw(st.sampled_from([1.0, 2.5, 4.5])),
        consecutive=draw(st.integers(min_value=1, max_value=3)),
        two_sided=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(
    features=hnp.arrays(
        np.float64,
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=0, max_value=80),
        ),
        elements=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
    config=_welford_configs(),
)
def test_bank_bit_identical_to_sequential_fold(features, config):
    """Every stream of a multi-stream fold IS its own 1-stream fold."""
    timeline = WelfordDetector(features.shape[0], config).process(features)
    for stream in range(features.shape[0]):
        alone = WelfordDetector(1, config).process(features[stream : stream + 1])
        np.testing.assert_array_equal(timeline.z[stream], alone.z[0])
        np.testing.assert_array_equal(timeline.armed[stream], alone.armed[0])
        np.testing.assert_array_equal(timeline.alarms[stream], alone.alarms[0])


def test_bank_rejects_bad_shapes_and_nonfinite():
    bank = WelfordDetector(2, DetectorConfig(warmup=2))
    with pytest.raises(AnalysisError):
        bank.update(np.zeros(3))
    with pytest.raises(AnalysisError):
        bank.update(np.array([0.0, np.nan]))
    with pytest.raises(AnalysisError):
        bank.process(np.zeros((3, 4)))


def test_bank_first_alarm_across_streams():
    rng = np.random.default_rng(5)
    config = DetectorConfig(warmup=4)
    features = np.vstack(
        [
            _step_streams(rng, 1, 10, 4, step=0.0)[0],
            _step_streams(rng, 1, 8, 6, step=40.0)[0],
        ]
    )
    timeline = WelfordDetector(2, config).process(features)
    firsts = timeline.first_alarms()
    assert firsts[0] is None
    assert firsts[1] is not None and firsts[1] >= 8
    assert timeline.first_alarm() == firsts[1]


# -- grid definitions ----------------------------------------------------------


def test_cell_auto_reference_and_segments():
    cell = SweepCell(trojan="T2", n_baseline=4, n_active=3, detector=DetectorConfig(warmup=2))
    assert cell.reference == "T2_ref"
    segments = cell.segments
    assert [s.scenario for s in segments] == ["T2_ref", "T2"]
    assert segments[0].indices == [0, 1, 2, 3]
    assert segments[1].indices == [500, 501, 502]
    assert cell.trigger_index == 4


def test_cell_validation():
    with pytest.raises(AnalysisError):
        SweepCell(trojan="T1", sensors=())
    with pytest.raises(AnalysisError):
        SweepCell(trojan="T1", n_baseline=1)
    with pytest.raises(AnalysisError):
        SweepCell(
            trojan="T1",
            n_baseline=2,
            n_active=2,
            detector=DetectorConfig(warmup=8),
        )


def test_named_grids():
    table1 = build_grid("table1")
    assert table1.n_cells == 4
    assert all(not cell.quantize for cell in table1.cells)
    mttd = build_grid("mttd")
    assert all(cell.quantize for cell in mttd.cells)
    bench = build_grid("bench4x4")
    assert bench.n_cells == 16
    assert len({cell.trojan for cell in bench.cells}) == 4
    with pytest.raises(AnalysisError):
        build_grid("nope")


def test_grid_product_shape_and_unique_labels():
    grid = SweepGrid.product(
        "p",
        trojans=("T1", "T3"),
        references=(("baseline", 0), ("idle", 0)),
        sensor_subsets=((10,), (5, 10)),
        detectors=(DetectorConfig(warmup=2), DetectorConfig(warmup=3)),
        n_baseline=4,
        n_active=2,
    )
    assert grid.n_cells == 2 * 2 * 2 * 2
    labels = [cell.label for cell in grid.cells]
    assert len(set(labels)) == grid.n_cells  # every cell addressable
    assert "T1|baseline@0|s10|d0" in labels
    assert "T3|idle@0|s5-10|d1" in labels


def test_grid_rejects_duplicate_labels():
    cell = SweepCell(trojan="T1", detector=DetectorConfig(warmup=2))
    with pytest.raises(AnalysisError):
        SweepGrid(name="dup", cells=(cell, cell))


# -- orchestrator (rendered end-to-end on the shared fixtures) -----------------


@pytest.fixture(scope="module")
def sweep_report(campaign):
    grid = SweepGrid(
        name="unit",
        cells=(
            SweepCell(
                trojan="T1",
                detector=DetectorConfig(warmup=4),
                n_baseline=6,
                n_active=3,
            ),
        ),
    )
    return DetectionSweep(campaign).run(grid)


def test_sweep_detects_t1(sweep_report):
    cell = sweep_report.cells[0]
    assert cell.mttd.detected and not cell.mttd.false_alarm
    assert cell.alarm_index is not None and cell.alarm_index >= 6
    assert cell.within_budget
    best = cell.best
    assert best.roc_auc == 1.0
    assert best.detection_rate == 1.0
    assert best.n_required < 10
    assert cell.features_db.shape == (1, 9)


def test_sweep_report_rendering(sweep_report):
    text = sweep_report.format()
    assert "T1|baseline@0" in text
    assert "ROC-AUC" in text
    payload = json.loads(sweep_report.to_json())
    assert payload["grid"] == "unit"
    assert payload["cells"][0]["within_budget"] is True
    assert payload["cells"][0]["outcomes"][0]["sensor"] == 10
    assert sweep_report.cell("T1|baseline@0") is sweep_report.cells[0]
    with pytest.raises(AnalysisError):
        sweep_report.cell("missing")


def test_record_cache_shared_across_cells(campaign):
    """Cells sharing a baseline span re-use simulated records."""
    grid = SweepGrid(
        name="cache",
        cells=tuple(
            SweepCell(
                trojan=trojan,
                detector=DetectorConfig(warmup=4),
                n_baseline=6,
                n_active=2,
            )
            for trojan in ("T1", "T4")
        ),
        keep_features=False,
    )
    sweep = DetectionSweep(campaign)
    sweep.run(grid)
    keys = set(sweep._record_cache)
    # 6 shared baseline records + 2 active records per Trojan.
    assert len(keys) == 6 + 4
    assert ("baseline", 0) in keys and ("T1", 500) in keys


def test_preset_grids_match_experiment_protocol():
    mttd = mttd_grid(n_baseline=7, n_active=4)
    assert all(cell.n_baseline == 7 and cell.n_active == 4 for cell in mttd.cells)
    assert all(cell.detector.warmup == 5 for cell in mttd.cells)
    table1 = table1_grid(n_traces=6)
    assert all(
        cell.active_offset == 700 and cell.n_baseline == 6
        for cell in table1.cells
    )
