"""Engine throughput: batched rendering vs. the legacy per-trace loop.

Times a 16-sensor x 256-trace campaign through (a) the seed's
per-trace render sequence (EMF convolution + noise + amplifier, one
sensor-trace at a time) and (b) one batched engine render, then times
the ``shared`` backend session sharding the full 16-sensor x
1024-trace workload across two workers with output identical to
``serial`` (worker count and host core count are recorded with the
row; parallel-beats-serial is only asserted on multi-core hosts).  Results are written to ``BENCH_engine.json`` at the repo root
so the performance trajectory is tracked from PR to PR.

Set ``ENGINE_SMOKE=1`` to run a reduced CI variant: every equivalence
check still runs, the speedup floor is not enforced.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.em.coupling import emf_waveforms
from repro.em.noise import NoiseModel
from repro.engine import MeasurementEngine, SharedMemoryBackend
from repro.rng import stream
from repro.workloads.scenarios import scenario_by_name

SMOKE = os.environ.get("ENGINE_SMOKE", "") not in ("", "0")

#: Campaign shape of the headline comparison.
N_SENSORS = 16
N_TRACES = 48 if SMOKE else 256
#: Distinct activity records cycled through the campaign (record
#: synthesis is not part of the rendering path being measured).
N_UNIQUE_RECORDS = 8 if SMOKE else 32
#: Trace count of the worker-backend scaling checks (full array).
N_PROCESS_TRACES = 64 if SMOKE else 1024

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _legacy_render_all(psa, record, trace_index):
    """The seed's per-trace path: one EMF synthesis per call, then a
    per-sensor noise + amplify sequence (kept here as the reference
    implementation the engine replaced)."""
    config = psa.config
    emf = emf_waveforms(psa.coupling, record)
    traces = []
    for index in range(N_SENSORS):
        coil = psa.sensor_coils[index]
        receiver = coil.to_receiver(config.vdd, config.temperature_c)
        noise_model = NoiseModel(
            resistance=receiver.r_series,
            temperature_c=config.temperature_c,
            ambient_area=receiver.ambient_gain,
        )
        tag = f"{record.scenario}/{coil.name}/{trace_index}"
        sensor_noise = noise_model.sample(
            config.n_samples, config.fs, stream(config.seed, f"noise/{tag}")
        )
        traces.append(
            psa.amplifier.amplify(
                emf[index] + sensor_noise,
                config.fs,
                rng=stream(config.seed, f"amp/{tag}"),
                source_impedance=receiver.r_series,
            )
        )
    return traces


def test_engine_throughput(ctx, benchmark):
    psa = ctx.psa
    campaign = ctx.campaign
    scenario = scenario_by_name("baseline")
    unique = [campaign.record(scenario, i) for i in range(N_UNIQUE_RECORDS)]
    records = [unique[i % N_UNIQUE_RECORDS] for i in range(N_TRACES)]
    indices = list(range(N_TRACES))
    # The seed had no low-rank activity factors — its per-trace loop
    # paid the dense region matmul inside emf_waveforms — so the legacy
    # reference renders from factor-stripped records.
    legacy_unique = [replace(record, factors=None) for record in unique]
    legacy_records = [
        legacy_unique[i % N_UNIQUE_RECORDS] for i in range(N_TRACES)
    ]

    # Warm both paths (kernel spectra, gain curves, allocator arenas).
    _legacy_render_all(psa, legacy_records[0], 0)
    psa.render(records, trace_indices=indices)

    start = time.perf_counter()
    for index in indices:
        _legacy_render_all(psa, legacy_records[index], index)
    legacy_seconds = time.perf_counter() - start

    # The batched render is short enough that scheduler noise on a
    # shared host can double a single measurement; take the best of
    # three (the long legacy loop self-averages over 256 iterations).
    batch = benchmark.pedantic(
        lambda: psa.render(records, trace_indices=indices),
        rounds=1,
        iterations=1,
    )
    batched_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        psa.render(records, trace_indices=indices)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    total_traces = N_SENSORS * N_TRACES
    legacy_tps = total_traces / legacy_seconds
    batched_tps = total_traces / batched_seconds
    speedup = batched_tps / legacy_tps

    # Pool backend: the *full 16-sensor workload* at N_PROCESS_TRACES
    # traces — the scale the fused dispatch plan feeds it — sharded
    # over the worker pool, bit-for-bit identical to the serial
    # backend.  The backend is a long-lived session: one warm-up
    # render spins the pool / grows the shared arena, then the
    # steady-state passes are timed (that is the regime every later
    # dispatch through the session runs in).
    backend_records = [
        unique[i % N_UNIQUE_RECORDS] for i in range(N_PROCESS_TRACES)
    ]
    backend_indices = list(range(N_PROCESS_TRACES))
    workers = 2
    cpu_count = os.cpu_count() or 1

    def _timed_render(engine):
        start = time.perf_counter()
        batch = engine.render(
            psa.coupling, backend_records, trace_indices=backend_indices
        )
        return batch, time.perf_counter() - start

    # A load spike on a shared host can slow either side's single
    # render; alternating the two and comparing best-of-3 keeps the
    # shared-beats-serial check about the backends, not the host.
    shared_engine = MeasurementEngine(
        ctx.config,
        amplifier=psa.amplifier,
        backend=SharedMemoryBackend(workers),
    )
    serial_full_seconds = shared_full_seconds = float("inf")
    try:
        # Warm-up: spins the pool and grows the shared arena.
        shared_engine.render(
            psa.coupling, backend_records, trace_indices=backend_indices
        )
        for _ in range(3):
            serial_ref, seconds = _timed_render(psa.engine)
            serial_full_seconds = min(serial_full_seconds, seconds)
            shared, seconds = _timed_render(shared_engine)
            shared_full_seconds = min(shared_full_seconds, seconds)
    finally:
        shared_engine.close()
    shared_identical = bool(
        np.array_equal(serial_ref.samples, shared.samples)
    )

    report = {
        "workload": {
            "n_sensors": N_SENSORS,
            "n_traces": N_TRACES,
            "n_unique_records": N_UNIQUE_RECORDS,
            "scenario": "baseline",
        },
        "smoke": SMOKE,
        "legacy_per_trace": {
            "seconds": round(legacy_seconds, 3),
            "traces_per_sec": round(legacy_tps, 1),
        },
        "batched_engine": {
            "seconds": round(batched_seconds, 3),
            "traces_per_sec": round(batched_tps, 1),
        },
        "speedup": round(speedup, 2),
        "shared_backend": {
            "n_traces": N_PROCESS_TRACES,
            "n_sensors": N_SENSORS,
            "workers": workers,
            "cpu_count": cpu_count,
            "serial_seconds": round(serial_full_seconds, 3),
            "shared_seconds": round(shared_full_seconds, 3),
            "speedup_vs_serial": round(
                serial_full_seconds / shared_full_seconds, 3
            ),
            "identical_to_serial": shared_identical,
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps(report, indent=2))

    assert batch.samples.shape == (N_SENSORS, N_TRACES, psa.config.n_samples)
    assert shared_identical
    if not SMOKE:
        assert speedup >= 5.0, f"batched speedup {speedup:.2f}x below 5x"
        # The zero-copy backend only has spare cores to win with on a
        # multi-core host; single-core boxes record the ratio (the CI
        # gate tracks it against a baseline from the same host class)
        # but cannot require parallel > serial.
        if cpu_count >= 2:
            assert shared_full_seconds < serial_full_seconds, (
                f"shared backend ({shared_full_seconds:.2f}s) lost to "
                f"serial ({serial_full_seconds:.2f}s) on a "
                f"{cpu_count}-core host"
            )
