"""Engine throughput: the batched render against its own irFFT floor.

Times one batched engine render of a 16-sensor x 256-trace campaign
and, in the same run, the render's irreducible irFFT step alone:
``np.fft.irfft`` over the same 16 x 256 spectra in the engine's
``IRFFT_ROWS``-row blocks.  ``floor_ratio = floor / render`` is a
same-host ratio, so it tracks the engine's code rather than the
machine: anything that slows the render outside the irFFT lowers it.
Then times the ``shared`` backend session sharding the full
16-sensor x 1024-trace workload across two workers with output
identical to ``serial`` (worker count and host core count are
recorded with the row; parallel-beats-serial is only asserted on
multi-core hosts).  Results are written to ``BENCH_engine.json`` at
the repo root so the performance trajectory is tracked from PR to PR.

Set ``ENGINE_SMOKE=1`` to run a reduced CI variant: every equivalence
check still runs, the parallel-beats-serial check is not enforced.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engine import MeasurementEngine, SharedMemoryBackend
from repro.engine.engine import IRFFT_ROWS
from repro.workloads.scenarios import scenario_by_name

SMOKE = os.environ.get("ENGINE_SMOKE", "") not in ("", "0")

#: Campaign shape of the headline render.
N_SENSORS = 16
N_TRACES = 48 if SMOKE else 256
#: Distinct activity records cycled through the campaign (record
#: synthesis is not part of the rendering path being measured).
N_UNIQUE_RECORDS = 8 if SMOKE else 32
#: Trace count of the worker-backend scaling checks (full array).
N_PROCESS_TRACES = 64 if SMOKE else 1024

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _irfft_floor(n_samples):
    """A callable running the render's irFFTs alone: N_SENSORS x
    N_TRACES spectra converted in blocks of ``IRFFT_ROWS`` rows, into
    one output array, exactly as the serial engine blocks them."""
    chunk = max(1, IRFFT_ROWS // N_SENSORS)
    rng = np.random.default_rng(0)
    shape = (N_SENSORS, chunk, n_samples // 2 + 1)
    scratch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = np.empty((N_SENSORS, N_TRACES, n_samples))

    def run():
        for lo in range(0, N_TRACES, chunk):
            hi = min(lo + chunk, N_TRACES)
            np.fft.irfft(scratch[:, : hi - lo], n=n_samples, axis=-1, out=out[:, lo:hi])

    return run


def test_engine_throughput(ctx, benchmark):
    psa = ctx.psa
    campaign = ctx.campaign
    scenario = scenario_by_name("baseline")
    unique = [campaign.record(scenario, i) for i in range(N_UNIQUE_RECORDS)]
    records = [unique[i % N_UNIQUE_RECORDS] for i in range(N_TRACES)]
    indices = list(range(N_TRACES))
    floor = _irfft_floor(psa.config.n_samples)

    # Warm both (kernel spectra, gain curves, allocator arenas).
    batch = benchmark.pedantic(
        lambda: psa.render(records, trace_indices=indices),
        rounds=1,
        iterations=1,
    )
    floor()

    # A load spike on a shared host can slow a single measurement;
    # alternating the two and taking the best of three keeps the
    # ratio about the code, not the host.
    batched_seconds = floor_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        psa.render(records, trace_indices=indices)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        floor()
        floor_seconds = min(floor_seconds, time.perf_counter() - start)

    total_traces = N_SENSORS * N_TRACES
    batched_tps = total_traces / batched_seconds
    floor_ratio = floor_seconds / batched_seconds

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
        "batched_engine": {
            "seconds": round(batched_seconds, 3),
            "traces_per_sec": round(batched_tps, 1),
        },
        "irfft_floor": {"seconds": round(floor_seconds, 3)},
        "floor_ratio": round(floor_ratio, 3),
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
    # The render runs every irFFT the floor runs, and more.
    assert floor_ratio < 1.0, f"irFFT floor ratio {floor_ratio:.3f} not below 1"
    if not SMOKE:
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
