"""Execution lifecycle: engine memos and caches.

Engine ``close()`` only drops memos, so the next render rebuilds them
and renders the same bits; nothing in the render path touches
``/dev/shm``.
"""

import gc
import os

import numpy as np
import pytest

from repro.engine import MeasurementEngine, kernel_spectrum_stats
from repro.workloads.campaign import StreamSegment


def _shm_names():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


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
