"""Execution lifecycle: the render pool, inline renders, and caches.

Renders split across a process-wide thread pool (:mod:`repro.parallel`)
that starts on first use and lives for the process; a render too small
to split never reaches it; engine ``close()`` only drops memos, so the
next render rebuilds them and renders the same bits; nothing in the
render path touches ``/dev/shm``.
"""

import gc
import os
import threading

import numpy as np
import pytest

from repro import parallel
from repro.engine import MeasurementEngine, kernel_spectrum_stats
from repro.workloads.campaign import StreamSegment


def _shm_names():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


# -- pool persistence --------------------------------------------------------


def test_pool_reused_across_dispatches(monkeypatch, psa, campaign):
    monkeypatch.setattr(parallel, "THREADS", 2)
    recs = campaign.stream_records([StreamSegment("baseline", 4)])
    psa.render(recs, trace_indices=[1, 2, 3, 4], sensors=[10])
    pool = parallel._pool
    threads = set(pool._threads)
    assert threads and threading.current_thread() not in threads
    psa.render(recs, trace_indices=[5, 6, 7, 8], sensors=[10])
    assert parallel._pool is pool
    assert set(pool._threads) == threads


def test_close_then_transparent_restart(config, psa, campaign):
    engine = MeasurementEngine(config, amplifier=psa.amplifier)
    recs = campaign.stream_records([StreamSegment("baseline", 2)])
    before = engine.render(
        psa.coupling, recs, trace_indices=[1, 2], receiver_indices=[10]
    )
    engine.close()
    after = engine.render(
        psa.coupling, recs, trace_indices=[1, 2], receiver_indices=[10]
    )
    assert np.array_equal(before.samples, after.samples)
    assert engine.plan_cache_stats()["size"] == 1


def test_single_payload_runs_inline(monkeypatch, psa, campaign):
    """A one-capture render never reaches the pool."""
    monkeypatch.setattr(parallel, "THREADS", 3)
    monkeypatch.setattr(parallel, "_pool", None)
    recs = campaign.stream_records([StreamSegment("baseline", 1)])
    batch = psa.render(recs, trace_indices=[7], sensors=[10])
    assert parallel._pool is None
    monkeypatch.setattr(parallel, "THREADS", 1)
    reference = psa.render(recs, trace_indices=[7], sensors=[10])
    assert np.array_equal(batch.samples, reference.samples)


def test_no_leaked_segments_after_close(config, psa, campaign):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    gc.collect()
    before = _shm_names()
    engine = MeasurementEngine(config, amplifier=psa.amplifier)
    recs = campaign.stream_records([StreamSegment("baseline", 4)])
    batches = [
        engine.render(
            psa.coupling, recs, trace_indices=[1, 2, 3, 4],
            receiver_indices=[10],
        )
        for _ in range(2)
    ]
    assert _shm_names() - before == set()
    del batches
    engine.close()
    assert _shm_names() - before == set()


# -- dispatch-level caches ---------------------------------------------------


def test_capture_plan_cache_hits(config, psa, campaign):
    engine = MeasurementEngine(config, amplifier=psa.amplifier)
    recs = campaign.stream_records([StreamSegment("baseline", 2)])
    engine.render(
        psa.coupling, recs, trace_indices=[1, 2], receiver_indices=[10, 2]
    )
    after_first = engine.plan_cache_stats()
    assert after_first["size"] == 2
    engine.render(
        psa.coupling, recs, trace_indices=[3, 4], receiver_indices=[10, 2]
    )
    after_second = engine.plan_cache_stats()
    assert after_second["misses"] == after_first["misses"]
    assert after_second["hits"] > after_first["hits"]
    engine.close()
    assert engine.plan_cache_stats()["size"] == 0


def test_kernel_spectrum_cache_hits(psa, campaign):
    recs = campaign.stream_records([StreamSegment("baseline", 1)])
    psa.render(recs, trace_indices=[1], sensors=[10])
    before = kernel_spectrum_stats()
    psa.render(recs, trace_indices=[2], sensors=[10])
    after = kernel_spectrum_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


def test_resample_plan_cache_hits():
    from repro.dsp.transforms import resample_plan_stats, resample_spectra

    rng = np.random.default_rng(7)
    freqs = np.linspace(0.0, 264e6, 4225)
    amps = rng.random((3, freqs.size))
    grid, first = resample_spectra(freqs, amps)
    before = resample_plan_stats()
    grid2, second = resample_spectra(freqs, amps)
    after = resample_plan_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 1
    assert np.array_equal(grid, grid2)
    assert np.array_equal(first, second)
