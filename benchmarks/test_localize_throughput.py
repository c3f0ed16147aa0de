"""Localization throughput: batched engine path vs. per-(coil, record) loops.

Runs the full localization flow for T4 twice:

* **legacy** — the pre-batching shape: the 16-sensor score map
  measures one (sensor, record) capture at a time (``psa.measure`` +
  one spectrum + one band feature each), the quadrant refinement
  renders each quadrant coil record by record (one-coil, one-capture
  ``psa.measure_coils_batch`` loops), and the adaptive scan scores
  every (window, record) capture through its own single-capture
  render (``_LegacyScanner``);
* **batched** — ``Localizer.localize`` (one engine pass for the score
  map, one :class:`~repro.em.coupling.CouplingStack` pass for all four
  quadrant coils) plus the batched scanner (one stacked pass per
  level), each with one vectorized display/feature pass per batch.

Both paths must agree bit-for-bit on the score map, the quadrant
scores and every scan-window score (so sensor choice, refined
quadrant and descent are identical); the batched flow must be >=
1.5x faster (typically ~2.5x on an idle machine; the floor leaves
headroom for loaded CI hosts).  Results land in
``BENCH_localize.json`` (see ``bench_report.py``).

Set ``LOCALIZE_SMOKE=1`` to skip the speedup floor (CI smoke):
equivalence is still asserted.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_report import write_report
from repro.core.analysis.localizer import QUADRANTS, Localizer
from repro.core.analysis.scanner import AdaptiveScanner
from repro.core.analysis.spectral import sideband_amplitude
from repro.core.sensors import quadrant_coil
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.workloads.scenarios import reference_for, scenario_by_name


SMOKE = os.environ.get("LOCALIZE_SMOKE", "") not in ("", "0")
#: Batched-over-legacy throughput floor on the full flow (typically
#: ~2.5x idle; the floor leaves headroom for loaded hosts).
MIN_SPEEDUP = 1.5

N_RECORDS = 3
TROJAN = "T4"


def _amp(ctx, analyzer, trace) -> float:
    return sideband_amplitude(analyzer.spectrum(trace), ctx.config)


def _legacy_score_map(ctx, analyzer, base, active) -> np.ndarray:
    """The seed's per-(sensor, record) score-map loop.

    Same trace indices as ``Localizer.score_map`` (baseline offset 0,
    active offset 1000), one single-capture render per feature.
    """
    scores = np.zeros(ctx.psa.n_sensors)
    for sensor in range(ctx.psa.n_sensors):
        base_amps = [
            _amp(ctx, analyzer, ctx.psa.measure(record, sensor, idx))
            for idx, record in enumerate(base)
        ]
        active_amps = [
            _amp(ctx, analyzer, ctx.psa.measure(record, sensor, 1000 + idx))
            for idx, record in enumerate(active)
        ]
        scores[sensor] = np.mean(active_amps) - np.mean(base_amps)
    return scores


def _legacy_coil_score(ctx, analyzer, coil, base, active, active_offset):
    """Added amplitude through one coil, one single-capture render per record."""

    def amp(record, index):
        batch = ctx.psa.measure_coils_batch([coil], [record], [index])
        return _amp(ctx, analyzer, batch.trace(0, 0))

    base_amps = [amp(record, idx) for idx, record in enumerate(base)]
    active_amps = [
        amp(record, active_offset + idx) for idx, record in enumerate(active)
    ]
    return float(np.mean(active_amps) - np.mean(base_amps))


def _legacy_refine(ctx, analyzer, sensor_index, base, active):
    """The seed's per-(coil, record) quadrant refinement loop."""
    return {
        which: _legacy_coil_score(
            ctx, analyzer, quadrant_coil(sensor_index, which), base, active, 2000
        )
        for which in QUADRANTS
    }


class _LegacyScanner(AdaptiveScanner):
    """The pre-batching descent: every (window, record) capture through
    its own single-capture render (same trace indices as the scanner)."""

    def __init__(self, ctx, analyzer):
        super().__init__(ctx.psa, analyzer=analyzer)
        self.ctx = ctx

    def _score_windows(self, coils, base, active):
        return [
            _legacy_coil_score(self.ctx, self.analyzer, coil, base, active, 3000)
            for coil in coils
        ]


def test_localize_throughput(ctx, benchmark):
    analyzer = SpectrumAnalyzer()
    base = [
        ctx.campaign.record(reference_for(TROJAN), i) for i in range(N_RECORDS)
    ]
    active = [
        ctx.campaign.record(scenario_by_name(TROJAN), 500 + i)
        for i in range(N_RECORDS)
    ]

    # Warm every window's coupling geometry (a one-time, path-independent
    # cost) plus the shared kernel/gain caches out of both timings.
    localizer = Localizer(ctx.psa, analyzer=analyzer)
    warm = localizer.localize(base, active, refine=True)
    AdaptiveScanner(ctx.psa, analyzer=analyzer).scan(base, active)

    start = time.perf_counter()
    legacy_scores = _legacy_score_map(ctx, analyzer, base, active)
    legacy_hot = int(np.argmax(legacy_scores))
    legacy_quadrants = _legacy_refine(ctx, analyzer, legacy_hot, base, active)
    legacy_scan = _LegacyScanner(ctx, analyzer).scan(base, active)
    legacy_seconds = time.perf_counter() - start

    def _batched():
        result = localizer.localize(base, active, refine=True)
        scan = AdaptiveScanner(ctx.psa, analyzer=analyzer).scan(base, active)
        return result, scan

    start = time.perf_counter()
    result, scan = benchmark.pedantic(_batched, rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    # Equivalence: the batched flow is the same experiment, bit for bit.
    assert np.array_equal(result.scores, legacy_scores)
    assert result.sensor_index == legacy_hot
    assert result.quadrant_scores == legacy_quadrants
    assert scan.position == legacy_scan.position
    assert scan.path == legacy_scan.path
    assert scan.levels == legacy_scan.levels

    n_windows = (
        ctx.psa.n_sensors + len(QUADRANTS) + scan.n_measurement_windows
    )
    speedup = legacy_seconds / batched_seconds
    payload = {
        "flow": {
            "trojan": TROJAN,
            "records_per_population": N_RECORDS,
            "score_map_sensors": ctx.psa.n_sensors,
            "quadrant_coils": len(QUADRANTS),
            "scan_windows": scan.n_measurement_windows,
            "scan_levels": len(scan.levels),
            "total_windows": n_windows,
            "captures": 2 * N_RECORDS * n_windows,
        },
        "smoke": SMOKE,
        "legacy_per_coil": {"seconds": round(legacy_seconds, 3)},
        "batched_engine": {"seconds": round(batched_seconds, 3)},
        "speedup": round(speedup, 2),
        "hot_sensor": result.sensor_index,
        "refined_quadrant": result.quadrant,
        "scan_error_um": round(
            1e6
            * float(
                np.hypot(
                    scan.position[0]
                    - ctx.chip.floorplan.placements[TROJAN][0].center[0],
                    scan.position[1]
                    - ctx.chip.floorplan.placements[TROJAN][0].center[1],
                )
            ),
            1,
        ),
    }
    write_report("BENCH_localize.json", payload)
    print()
    print(json.dumps(payload, indent=2))

    assert result.sensor_index == warm.sensor_index == 10
    assert result.quadrant == "se"
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"batched localization speedup {speedup:.2f}x below "
            f"{MIN_SPEEDUP}x"
        )
