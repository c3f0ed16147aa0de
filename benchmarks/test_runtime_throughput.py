"""Run-time monitoring throughput: streaming pipeline vs legacy loop.

Monitors the same scripted always-on session — **every sensor of the
array**, the paper's deployment — three ways:

* **legacy** — the seed example's shape scaled to the array: for each
  sensor, one single-capture render, one auto-ranged ADC pass, one
  spectrum, one feature and one detector update per window (the
  per-trace RASC monitor over ``psa.measure`` output);
* **streaming** — ``repro.runtime``: a ``LiveSource`` renders every
  sensor's chunk in one batched engine pass (the per-record EMF
  synthesis is shared across all sensors instead of recomputed per
  single-sensor capture) and the ``EscalationPipeline`` featurizes
  each chunk in one vectorized pass over a multi-stream ``welford``
  detector;
* **fleet** — four concurrent chip monitors through the
  ``FleetScheduler`` (aggregate windows/sec of the service path).

The monitored chip's workload activity is *pre-simulated once and
shared by every path* (``LiveSource.warm_records``): in deployment the
chip's activity is physical reality, and MTTD counts capture plus
on-board processing — so windows/sec here measures the monitor, not
the test bench's activity simulator.

Legacy and streaming must agree bit-for-bit on features and alarms;
the streaming pipeline must beat the legacy loop on windows/sec (>=
2x on the full stream).  Results land in ``BENCH_runtime.json`` at the
repo root so the performance trajectory is tracked from PR to PR.

Set ``RUNTIME_SMOKE=1`` for a short CI variant: equivalence and the
beat-the-legacy-loop check still run, the 2x floor is not enforced.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.analysis.detector import DetectorConfig
from repro.core.analysis.spectral import sideband_feature_db
from repro.detectors import make_detector
from repro.instruments.adc import quantize_batch
from repro.instruments.rasc import AUTO_RANGE_HEADROOM, RASC_ADC
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.runtime import (
    ActivationSchedule,
    ChipSpec,
    EscalationPipeline,
    FleetScheduler,
    LiveSource,
    PipelineConfig,
    build_chip_monitor,
)
from repro.workloads.scenarios import scenario_by_name

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

SMOKE = os.environ.get("RUNTIME_SMOKE", "") not in ("", "0")
#: Streaming-over-legacy throughput floor on the full stream.
MIN_SPEEDUP = 2.0

N_BASELINE = 8 if SMOKE else 24
N_ACTIVE = 4 if SMOKE else 8
CHUNK = 4 if SMOKE else 16
WARMUP = 6
FLEET_CHIPS = 4
#: Fleet timing trials; the fastest is reported (box-noise resistant).
FLEET_ROUNDS = 1 if SMOKE else 5

MONITOR_TUNING = PipelineConfig(
    detector=DetectorConfig(warmup=WARMUP),
    identify=False,  # throughput of the MONITOR stage itself
    localize=False,
)


def _legacy_monitor_loop(ctx, analyzer, schedule, records, sensors):
    """The seed example's shape: everything one trace at a time.

    One per-trace monitor per sensor (the paper's RASC board watching
    each stream), each paying its own single-capture render, ADC pass
    and spectrum per window.  Returns ``(features, alarms)`` per
    sensor: the feature timeline and the alarming window indices.
    """
    monitors = []
    for sensor in sensors:
        detector = make_detector(
            "welford", 1, DetectorConfig(warmup=WARMUP)
        )
        features, alarms = [], []
        for segment in schedule.segments:
            for index in segment.indices:
                record = records[(segment.scenario, index)]
                trace = ctx.psa.measure(record, sensor, index)
                samples = quantize_batch(
                    trace.samples[None, :],
                    RASC_ADC,
                    headroom=AUTO_RANGE_HEADROOM,
                )[0]
                feature = sideband_feature_db(
                    analyzer.spectrum(replace(trace, samples=samples)),
                    ctx.config,
                )
                if detector.update(np.array([feature])).alarm.any():
                    alarms.append(len(features))
                features.append(feature)
        monitors.append((features, alarms))
    return monitors


def test_runtime_throughput(ctx, benchmark):
    analyzer = SpectrumAnalyzer()
    schedule = ActivationSchedule.step(
        "T4", n_baseline=N_BASELINE, n_active=N_ACTIVE
    )
    n_windows = schedule.n_windows
    sensors = tuple(range(ctx.psa.n_sensors))

    # Warm shared caches (kernel spectra, gain curves) and pre-simulate
    # the chip's workload activity once for every path: in deployment
    # the activity is the chip's, not the monitor's.
    warm = ctx.campaign.record(scenario_by_name("baseline"), 0)
    ctx.psa.render([warm], trace_indices=[0], sensors=[10])
    records: dict = {}
    source = LiveSource(
        ctx.campaign,
        schedule,
        sensors=sensors,
        chunk=CHUNK,
        record_cache=records,
    )
    source.warm_records()

    start = time.perf_counter()
    legacy = _legacy_monitor_loop(ctx, analyzer, schedule, records, sensors)
    legacy_seconds = time.perf_counter() - start

    pipeline = EscalationPipeline(
        ctx.config,
        n_streams=len(sensors),
        pipeline=MONITOR_TUNING,
        analyzer=analyzer,
    )
    start = time.perf_counter()
    report = benchmark.pedantic(
        lambda: pipeline.run(source), rounds=1, iterations=1
    )
    streaming_seconds = time.perf_counter() - start

    # Equivalence: the streamed pipeline is the same monitor bank.
    for position, (legacy_features, _) in enumerate(legacy):
        assert np.array_equal(
            report.features_db[position],
            np.asarray(legacy_features),
        ), f"sensor {sensors[position]} features diverge"
        assert report.features_db.shape[1] == len(legacy_features)
    legacy_alarm_union = sorted(
        {index for _, alarms in legacy for index in alarms}
    )
    assert list(report.alarms) == legacy_alarm_union
    assert report.detected

    # Fleet: the same session on N chips, interleaved (records
    # pre-simulated per member, same as the single-chip paths).  The
    # scheduler tick is timed best-of-N (matching the engine bench's
    # batched row): each trial re-runs the full session, and the
    # fastest trial is the figure of merit on a shared, noisy box.
    def _fleet_run(n_chips):
        specs = [
            ChipSpec(
                chip_id=f"chip{i}",
                trojan=("T1", "T2", "T3", "T4")[i % 4],
                seed=ctx.config.seed + i,
                n_baseline=N_BASELINE,
                n_active=N_ACTIVE,
                chunk=CHUNK,
            )
            for i in range(n_chips)
        ]
        monitors = [
            build_chip_monitor(
                spec, config=ctx.config, pipeline_config=MONITOR_TUNING
            )
            for spec in specs
        ]
        for monitor in monitors:
            monitor.source.warm_records()
        return FleetScheduler(monitors).run()

    def _best_fleet(n_chips):
        reports = [_fleet_run(n_chips) for _ in range(FLEET_ROUNDS)]
        for trial in reports:
            assert trial.all_detected
        return min(reports, key=lambda trial: trial.wall_seconds)

    fleet_report = _best_fleet(FLEET_CHIPS)
    single_report = _best_fleet(1)
    # On one worker thread the scheduler interleaves chips rather than
    # parallelizing them, so the ideal aggregate windows/sec at four
    # chips equals the single-chip figure; the ratio measures pure
    # scheduling overhead (1.0 = free interleaving).
    scaling_efficiency = (
        fleet_report.windows_per_sec / single_report.windows_per_sec
    )

    legacy_wps = n_windows / legacy_seconds
    streaming_wps = n_windows / streaming_seconds
    speedup = streaming_wps / legacy_wps
    payload = {
        "stream": {
            "n_baseline": N_BASELINE,
            "n_active": N_ACTIVE,
            "n_windows": n_windows,
            "n_sensors": len(sensors),
            "chunk": CHUNK,
            "trojan": "T4",
            "records_presimulated": True,
        },
        "smoke": SMOKE,
        "legacy_per_trace": {
            "seconds": round(legacy_seconds, 3),
            "windows_per_sec": round(legacy_wps, 2),
        },
        "streaming_pipeline": {
            "seconds": round(streaming_seconds, 3),
            "windows_per_sec": round(streaming_wps, 2),
        },
        "fleet": {
            "n_chips": fleet_report.n_chips,
            "total_windows": fleet_report.total_windows,
            "rounds": FLEET_ROUNDS,
            "seconds": round(fleet_report.wall_seconds, 3),
            "windows_per_sec": round(fleet_report.windows_per_sec, 2),
            "max_queue_len": fleet_report.max_queue_len,
        },
        "fleet_single": {
            "n_chips": single_report.n_chips,
            "total_windows": single_report.total_windows,
            "rounds": FLEET_ROUNDS,
            "seconds": round(single_report.wall_seconds, 3),
            "windows_per_sec": round(single_report.windows_per_sec, 2),
        },
        "fleet_scaling": {
            "chips": [single_report.n_chips, fleet_report.n_chips],
            "scaling_efficiency": round(scaling_efficiency, 3),
        },
        "speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload, indent=2))

    # The streaming pipeline must beat the legacy per-trace loop.
    assert speedup > 1.0, (
        f"streaming pipeline ({streaming_wps:.1f} win/s) slower than the "
        f"legacy loop ({legacy_wps:.1f} win/s)"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"streaming speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
        )
