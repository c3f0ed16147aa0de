"""Sweep throughput: the grid orchestrator vs. per-trace experiment loops.

Evaluates the 4-Trojan × 4-workload ``bench4x4`` grid twice:

* **legacy** — the pre-sweep experiment style: every cell re-simulates
  its own activity records and measures, featurizes and scores one
  trace at a time (the shape of the seed's ``run_mttd`` and per-method
  Table I loops);
* **sweep** — ``repro.sweep.DetectionSweep``: one batched engine render
  per cell, a shared record cache across cells, vectorized
  featurization and the multi-stream rolling-Welford detector;
* **warm-start** — the same sweep backed by a content-addressed
  ``ArtifactStore``: one store-cold run populates the artifacts, then
  a fresh sweep replays them from disk.  The warm report must be
  bit-identical to the cold one, and the timing is reported as its
  own row — warm and cold numbers are never mixed.

Both render paths must agree bit-for-bit on features and alarms; the
sweep must be >= 3x faster.  Results land in ``BENCH_sweep.json``
(see ``bench_report.py``).

Set ``SWEEP_SMOKE=1`` to run a 2-cell smoke variant (CI): equivalence
is still asserted, the speedup floor is not.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np

from bench_report import write_report
from repro.core.analysis.spectral import sideband_feature_db
from repro.detectors import make_detector
from repro.dsp.stats import detection_power, detection_rate, roc_auc
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.store import ArtifactStore
from repro.sweep import DetectionSweep, SweepGrid, benchmark_grid
from repro.workloads.scenarios import scenario_by_name


SMOKE = os.environ.get("SWEEP_SMOKE", "") not in ("", "0")
#: Sweep-over-legacy throughput floor on the full grid.
MIN_SPEEDUP = 3.0


def _bench_grid() -> SweepGrid:
    grid = benchmark_grid()
    if SMOKE:
        return SweepGrid(
            name="bench-smoke", cells=grid.cells[:2], keep_features=False
        )
    return grid


def _legacy_evaluate_cell(ctx, analyzer, cell):
    """The seed's per-trace experiment loop for one cell.

    Fresh records per trace (no cross-cell reuse), one single-capture
    render + one spectrum + one feature per trace, the sequential
    streaming detector, then the population statistics.
    """
    features = []
    detector = make_detector("welford", 1, cell.detector)
    alarm_index = None
    position = 0
    for segment in cell.segments:
        scenario = scenario_by_name(segment.scenario)
        for index in segment.indices:
            record = ctx.campaign.record(scenario, index)
            trace = ctx.psa.measure(record, cell.sensors[0], index)
            feature = sideband_feature_db(
                analyzer.spectrum(trace), ctx.config
            )
            features.append(feature)
            step = detector.update(np.array([feature]))
            if step.alarm[0] and alarm_index is None:
                alarm_index = position
            position += 1
    features = np.asarray(features)
    inactive = features[: cell.n_baseline]
    active = features[cell.n_baseline :]
    power = detection_power(active, inactive)
    return {
        "features": features,
        "alarm_index": alarm_index,
        "roc_auc": roc_auc(active, inactive),
        "detection_rate": detection_rate(active, inactive, cell.z_threshold),
        "n_required": power.n_required,
    }


def test_sweep_throughput(ctx, benchmark):
    grid = _bench_grid()
    analyzer = SpectrumAnalyzer()

    # Warm shared caches (kernel spectra, gain curves) out of the timing.
    warm = ctx.campaign.record(scenario_by_name("baseline"), 0)
    ctx.psa.render([warm], trace_indices=[0], sensors=[10])

    start = time.perf_counter()
    legacy = [_legacy_evaluate_cell(ctx, analyzer, cell) for cell in grid.cells]
    legacy_seconds = time.perf_counter() - start

    sweep = DetectionSweep(ctx.campaign, analyzer=analyzer)
    start = time.perf_counter()
    report = benchmark.pedantic(
        lambda: sweep.run(grid), rounds=1, iterations=1
    )
    sweep_seconds = time.perf_counter() - start

    # Equivalence: the orchestrated path is the same experiment.
    feature_grid = SweepGrid(
        name="check", cells=grid.cells, keep_features=True
    )
    check = DetectionSweep(ctx.campaign, analyzer=analyzer)
    # Deterministic renders: reuse the timed run's memos for the check.
    check._record_cache = sweep._record_cache
    check._feature_cache = sweep._feature_cache
    check_report = check.run(feature_grid)
    for cell_result, legacy_result in zip(check_report.cells, legacy):
        assert np.array_equal(
            cell_result.features_db[0], legacy_result["features"]
        ), cell_result.label
        assert cell_result.alarm_index == legacy_result["alarm_index"]
        best = cell_result.best
        assert best.roc_auc == legacy_result["roc_auc"]
        assert best.detection_rate == legacy_result["detection_rate"]
        assert best.n_required == legacy_result["n_required"]

    # Warm-start: populate a fresh artifact store, then replay the
    # grid through a brand-new sweep bound to the same store.  The
    # warm report must be bit-identical to the cold one.
    with tempfile.TemporaryDirectory(prefix="bench-store-") as store_dir:
        store_cold = ArtifactStore(store_dir)
        start = time.perf_counter()
        cold_report = DetectionSweep(
            ctx.campaign, analyzer=analyzer, store=store_cold
        ).run(grid)
        store_cold_seconds = time.perf_counter() - start

        store_warm = ArtifactStore(store_dir)
        start = time.perf_counter()
        warm_report = DetectionSweep(
            ctx.campaign, analyzer=analyzer, store=store_warm
        ).run(grid)
        warm_seconds = time.perf_counter() - start
    assert warm_report.to_json() == cold_report.to_json()
    assert warm_report.to_json() == report.to_json()
    assert store_warm.hits > 0 and store_warm.misses == 0
    warm_speedup = store_cold_seconds / warm_seconds

    n_stream = grid.cells[0].n_baseline + grid.cells[0].n_active
    total_traces = grid.n_cells * n_stream
    speedup = legacy_seconds / sweep_seconds
    payload = {
        "grid": {
            "name": grid.name,
            "n_cells": grid.n_cells,
            "n_trojans": len({cell.trojan for cell in grid.cells}),
            "n_workloads": len(
                {(cell.reference, cell.baseline_offset) for cell in grid.cells}
            ),
            "traces_per_cell": n_stream,
            "total_traces": total_traces,
        },
        "smoke": SMOKE,
        "legacy_per_trace": {
            "seconds": round(legacy_seconds, 3),
            "cells_per_sec": round(grid.n_cells / legacy_seconds, 2),
        },
        "sweep_orchestrator": {
            "seconds": round(sweep_seconds, 3),
            "cells_per_sec": round(grid.n_cells / sweep_seconds, 2),
        },
        "speedup": round(speedup, 2),
        "store_warm_start": {
            "cold_seconds": round(store_cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "cells_per_sec": round(grid.n_cells / warm_seconds, 2),
            "speedup_vs_cold": round(warm_speedup, 2),
            "bit_identical": True,
        },
        "all_detected": report.all_detected,
        "all_within_budget": report.all_within_budget,
    }
    write_report("BENCH_sweep.json", payload)
    print()
    print(json.dumps(payload, indent=2))

    assert report.all_detected
    assert report.all_within_budget
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"sweep speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
        )
