"""Localization throughput: the column path vs a full-render reference.

Runs the full localization flow for T4 two ways, over the same records
and trace indices:

* **reference** — the flow on full renders, kept here in the test: the
  16-sensor score map renders both populations in full
  (``psa.render``), the quadrant refinement and every adaptive-scan
  level render their coils in full (``psa.measure_coils_batch``
  samples), and each capture goes through the full display
  (``analyzer.display_matrix``) and ``sideband_amplitudes``;
* **columns** — ``Localizer.localize`` plus ``AdaptiveScanner.scan``
  as the package runs them: every capture is rendered only at the
  rFFT columns the sideband features read, with no irFFT and no
  forward transform.

The two must agree to rounding (score map, quadrant scores and every
scan-window score within ``rtol`` 1e-9) and exactly on every
decision (hot sensor, refined quadrant, scan path).  ``speedup`` is
the reference flow's time over the column flow's, the fastest of each
over alternating rounds in one run, so the gate does not move with
the host; outside smoke it must reach ``MIN_SPEEDUP``.  Results land
in ``BENCH_localize.json`` (see ``bench_report.py``).

Set ``LOCALIZE_SMOKE=1`` to skip the speedup floor (CI smoke): the
equivalence checks still run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_report import write_report
from repro.core.analysis.localizer import QUADRANTS, Localizer
from repro.core.analysis.scanner import AdaptiveScanner
from repro.core.analysis.spectral import sideband_amplitudes
from repro.core.sensors import quadrant_coil
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.workloads.scenarios import reference_for, scenario_by_name


SMOKE = os.environ.get("LOCALIZE_SMOKE", "") not in ("", "0")
#: Column-over-reference throughput floor on the full flow.
MIN_SPEEDUP = 1.4
#: Alternating reference/column rounds; the fastest of each is kept.
ROUNDS = 5
#: Relative tolerance of every score against the reference.
RTOL = 1e-9

N_RECORDS = 3
TROJAN = "T4"


def _full_amplitudes(ctx, analyzer, batch) -> np.ndarray:
    """Sideband amplitude per capture of a full render, ``(rows, traces)``."""
    grid, display = analyzer.display_matrix(
        batch.samples.reshape(-1, batch.n_samples), batch.fs
    )
    return sideband_amplitudes(grid, display, ctx.config).reshape(
        batch.n_receivers, -1
    )


def _added(amps_base, amps_active) -> np.ndarray:
    return amps_active.mean(axis=1) - amps_base.mean(axis=1)


def _reference_score_map(ctx, analyzer, base, active) -> np.ndarray:
    """The score map on full renders (``Localizer``'s trace indices)."""
    base_batch = ctx.psa.render(base, trace_indices=range(len(base)))
    active_batch = ctx.psa.render(
        active, trace_indices=[1000 + i for i in range(len(active))]
    )
    return _added(
        _full_amplitudes(ctx, analyzer, base_batch),
        _full_amplitudes(ctx, analyzer, active_batch),
    )


def _reference_coil_scores(ctx, analyzer, coils, base, active, offset):
    """Added amplitude per coil on one full render of both populations."""
    n_base = len(base)
    batch = ctx.psa.measure_coils_batch(
        coils,
        list(base) + list(active),
        trace_indices=list(range(n_base))
        + [offset + i for i in range(len(active))],
    )
    amps = _full_amplitudes(ctx, analyzer, batch)
    return _added(amps[:, :n_base], amps[:, n_base:])


class _ReferenceScanner(AdaptiveScanner):
    """The adaptive descent scored on full renders (offset as the scanner's)."""

    def __init__(self, ctx, analyzer):
        super().__init__(ctx.psa, analyzer=analyzer)
        self.ctx = ctx

    def _score_windows(self, coils, base, active):
        scores = _reference_coil_scores(
            self.ctx, self.analyzer, coils, base, active, 3000
        )
        return [float(score) for score in scores]


def _windows(levels):
    """Each level's windows as lattice ``(col0, row0, size)`` origins."""
    return [[(w.col0, w.row0, w.size) for w in level] for level in levels]


def _reference_flow(ctx, analyzer, base, active):
    scores = _reference_score_map(ctx, analyzer, base, active)
    hot = int(np.argmax(scores))
    coils = [quadrant_coil(hot, which) for which in QUADRANTS]
    quadrants = _reference_coil_scores(ctx, analyzer, coils, base, active, 2000)
    scan = _ReferenceScanner(ctx, analyzer).scan(base, active)
    return scores, hot, dict(zip(QUADRANTS, quadrants)), scan


def test_localize_throughput(ctx, benchmark):
    analyzer = SpectrumAnalyzer()
    base = [
        ctx.campaign.record(reference_for(TROJAN), i) for i in range(N_RECORDS)
    ]
    active = [
        ctx.campaign.record(scenario_by_name(TROJAN), 500 + i)
        for i in range(N_RECORDS)
    ]
    localizer = Localizer(ctx.psa, analyzer=analyzer)

    def _columns():
        result = localizer.localize(base, active, refine=True)
        scan = AdaptiveScanner(ctx.psa, analyzer=analyzer).scan(base, active)
        return result, scan

    # Warm every window's coupling geometry (a one-time, path-independent
    # cost) plus the shared kernel/gain caches out of both timings.
    _columns()
    _reference_flow(ctx, analyzer, base, active)

    # Alternate the two flows, best of ROUNDS each: host speed drifts
    # over seconds, and the ratio is taken within one run.
    reference_times, column_times = [], []

    def alternate():
        start = time.perf_counter()
        reference = _reference_flow(ctx, analyzer, base, active)
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        columns = _columns()
        column_times.append(time.perf_counter() - start)
        return reference, columns

    reference, (result, scan) = benchmark.pedantic(
        alternate, rounds=ROUNDS, iterations=1
    )
    ref_scores, ref_hot, ref_quadrants, ref_scan = reference
    reference_seconds = min(reference_times)
    column_seconds = min(column_times)

    # Equivalence: the same experiment up to the rounding of the
    # irFFT -> rFFT round trip, and the same decisions.
    np.testing.assert_allclose(result.scores, ref_scores, rtol=RTOL, atol=0)
    assert result.sensor_index == ref_hot
    assert list(result.quadrant_scores) == list(ref_quadrants)
    np.testing.assert_allclose(
        list(result.quadrant_scores.values()),
        list(ref_quadrants.values()),
        rtol=RTOL,
        atol=0,
    )
    assert result.quadrant == max(ref_quadrants, key=ref_quadrants.get)
    assert _windows([scan.path]) == _windows([ref_scan.path])
    assert scan.position == ref_scan.position
    assert _windows(scan.levels) == _windows(ref_scan.levels)
    np.testing.assert_allclose(
        [w.score for level in scan.levels for w in level],
        [w.score for level in ref_scan.levels for w in level],
        rtol=RTOL,
        atol=0,
    )

    n_windows = (
        ctx.psa.n_sensors + len(QUADRANTS) + scan.n_measurement_windows
    )
    speedup = reference_seconds / column_seconds
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
        "rounds": ROUNDS,
        "full_render_reference": {"seconds": round(reference_seconds, 3)},
        "column_path": {"seconds": round(column_seconds, 3)},
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

    assert result.sensor_index == 10
    assert result.quadrant == "se"
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"column localization speedup {speedup:.2f}x below "
            f"{MIN_SPEEDUP}x"
        )
