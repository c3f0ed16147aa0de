"""Run-time monitoring throughput: the column render vs the full render.

Monitors the same scripted session — **every sensor of the array**,
the paper's deployment — three ways:

* **full render** — the monitor as it would run on samples: a
  ``LiveSource`` not bound to the pipeline renders every window in
  full (EMF, noise, irFFT), and the ``EscalationPipeline`` passes each
  chunk through the RASC ADC and the batched display spectra;
* **streaming** — ``repro.runtime`` as deployed: the pipeline binds
  its ``LiveSource``, which then renders each window's spectrum at
  the rFFT columns the multi-stream ``welford`` detector reads, with
  no irFFT, ADC or forward transform;
* **fleet** — four concurrent chip monitors through the
  ``FleetScheduler`` (aggregate windows/sec of the service path).

The monitored chip's workload activity is *pre-simulated once and
shared by every path* (``LiveSource.warm_records``): in deployment the
chip's activity is physical reality, and MTTD counts capture plus
on-board processing — so windows/sec here measures the monitor, not
the test bench's activity simulator.

The streaming features must equal the full render's featurized
without the ADC up to rounding, and stay within 0.1 dB of the ADC
path with the same alarms.  ``speedup`` is the streaming rate over
the full-render rate of the same session in the same run, so the gate
does not move with the host; on the full stream it must reach
``MIN_SPEEDUP``.  Results land in ``BENCH_runtime.json`` (see
``bench_report.py``).

Set ``RUNTIME_SMOKE=1`` for a short CI variant: the equivalence checks
still run and streaming must still beat the full render; the
``MIN_SPEEDUP`` floor is not enforced.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_report import write_report
from repro.core.analysis.detector import DetectorConfig
from repro.detectors import make_detector
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
from repro.runtime.pipeline import chunk_features
from repro.workloads.scenarios import scenario_by_name

SMOKE = os.environ.get("RUNTIME_SMOKE", "") not in ("", "0")
#: Streaming-over-full-render throughput floor on the full stream.
MIN_SPEEDUP = 1.3

N_BASELINE = 8 if SMOKE else 24
N_ACTIVE = 4 if SMOKE else 8
CHUNK = 4 if SMOKE else 16
WARMUP = 6
FLEET_CHIPS = 4
#: Alternating full-render/streaming session pairs; the fastest of
#: each path is reported.
SESSION_ROUNDS = 5
#: Fleet timing trials; the fastest is reported (box-noise resistant).
FLEET_ROUNDS = 1 if SMOKE else 5

MONITOR_TUNING = PipelineConfig(
    detector=DetectorConfig(warmup=WARMUP),
    identify=False,  # throughput of the MONITOR stage itself
    localize=False,
)


def _full_render_session(pipeline, source):
    """The session through full renders: chunks of samples, ADC on.

    ``source`` is never bound, so it yields samples and the pipeline
    featurizes them through the ADC and the forward transform.
    """
    for chunk in source.chunks():
        pipeline.process_chunk(chunk)
        del chunk
    return pipeline.report(trigger_index=source.trigger_index)


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
    source, full_source = (
        LiveSource(
            ctx.campaign,
            schedule,
            sensors=sensors,
            chunk=CHUNK,
            record_cache=records,
        )
        for _ in range(2)
    )
    source.warm_records()

    def new_pipeline():
        return EscalationPipeline(
            ctx.config,
            n_streams=len(sensors),
            pipeline=MONITOR_TUNING,
            analyzer=analyzer,
        )

    # Alternate the two paths, best of SESSION_ROUNDS each: host speed
    # drifts over seconds, and the ratio is taken within one run.
    full_times, streaming_times = [], []

    def alternate():
        start = time.perf_counter()
        full = _full_render_session(new_pipeline(), full_source)
        full_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        streamed = new_pipeline().run(source)
        streaming_times.append(time.perf_counter() - start)
        return full, streamed

    full_report, report = benchmark.pedantic(
        alternate, rounds=SESSION_ROUNDS, iterations=1
    )
    full_seconds = min(full_times)
    streaming_seconds = min(streaming_times)

    # Equivalence: the column render is the full render's spectrum, so
    # the features are the full render's without the ADC up to
    # rounding, and the ADC moves them too little to move an alarm.
    detector = make_detector("welford", len(sensors), MONITOR_TUNING.detector)
    raw = np.concatenate(
        [
            chunk_features(chunk, analyzer, ctx.config, detector)
            for chunk in full_source.chunks()
        ],
        axis=1,
    )
    np.testing.assert_allclose(report.features_db, raw, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        report.features_db, full_report.features_db, rtol=0, atol=0.1
    )
    assert report.alarms == full_report.alarms
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

    full_wps = n_windows / full_seconds
    streaming_wps = n_windows / streaming_seconds
    speedup = streaming_wps / full_wps
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
        "rounds": SESSION_ROUNDS,
        "full_render": {
            "seconds": round(full_seconds, 3),
            "windows_per_sec": round(full_wps, 2),
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
    write_report("BENCH_runtime.json", payload)
    print()
    print(json.dumps(payload, indent=2))

    # Streaming must beat the full render of the same session.
    assert speedup > 1.0, (
        f"streaming pipeline ({streaming_wps:.1f} win/s) slower than the "
        f"full render ({full_wps:.1f} win/s)"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"streaming speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
        )
