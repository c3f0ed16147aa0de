"""Backend session lifecycle: persistent pools, arenas, and caches.

The pool backend is a long-lived session — workers survive across
dispatches, ``close()`` is restart-transparent, the shared-memory
input arena is reused (and grown) in place, and nothing leaks into
``/dev/shm`` once results are dropped and the session is closed.
"""

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import BACKEND_NAMES
from repro.engine import (
    MeasurementEngine,
    SerialBackend,
    SharedMemoryBackend,
    close_backend_sessions,
    kernel_spectrum_stats,
    resolve_backend,
)
from repro.errors import ConfigError

SPAWN_AVAILABLE = "spawn" in multiprocessing.get_all_start_methods()


def _worker_pid(payload):
    """Module-level so spawned workers can unpickle it."""
    return np.full((1, 1, 1), float(os.getpid()))


def _pids(backend, n_shards=2):
    """Worker pids that rendered each shard of one ``run_jobs`` job."""
    [out] = backend.run_jobs(
        _worker_pid, [([None] * n_shards, (1, n_shards, 1), range(n_shards + 1))]
    )
    return [int(pid) for pid in out.ravel()]


def _shm_names():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


# -- pool persistence --------------------------------------------------------


def test_pool_reused_across_dispatches():
    backend = SharedMemoryBackend(max_workers=1)
    try:
        first = _pids(backend)
        second = _pids(backend)
        assert set(first) == set(second)
        assert os.getpid() not in first
    finally:
        backend.close()


def test_close_then_transparent_restart():
    backend = SharedMemoryBackend(max_workers=1)
    try:
        before = _pids(backend)
        backend.close()
        after = _pids(backend)
        assert set(before) != set(after)
    finally:
        backend.close()


def test_single_payload_runs_inline(config, psa, campaign):
    """A one-capture render never reaches the pool."""
    backend = SharedMemoryBackend(max_workers=2)
    engine = MeasurementEngine(config, amplifier=psa.amplifier, backend=backend)
    try:
        recs = campaign.records("baseline", 1)
        batch = engine.render(
            psa.coupling, recs, trace_indices=[7], receiver_indices=[10]
        )
        reference = psa.render(recs, trace_indices=[7], sensors=[10])
        assert np.array_equal(batch.samples, reference.samples)
        assert backend._executor is None
        assert backend.arena_generations == 0
    finally:
        engine.close()


def test_process_backend_name_rejected():
    assert BACKEND_NAMES == ("serial", "shared")
    with pytest.raises(ConfigError, match=r"\('serial', 'shared'\)"):
        resolve_backend("process")


# -- session registry --------------------------------------------------------


def test_named_backends_resolve_to_shared_sessions():
    a = resolve_backend("shared", workers=2)
    b = resolve_backend("shared", workers=2)
    assert a is b
    assert resolve_backend("serial", workers=2) is not a
    assert resolve_backend("shared", workers=4) is not a


def test_resolve_backend_passthrough_and_default():
    backend = SerialBackend()
    assert resolve_backend(backend) is backend
    assert isinstance(resolve_backend(None), SerialBackend)


def test_close_backend_sessions_is_restart_transparent():
    a = resolve_backend("shared", workers=2)
    close_backend_sessions()
    # Sessions stay registered; the next dispatch restarts the pool.
    assert resolve_backend("shared", workers=2) is a
    assert _pids(a)
    close_backend_sessions()


# -- start methods -----------------------------------------------------------


@pytest.mark.parametrize(
    "start_method",
    ["fork"] + (["spawn"] if SPAWN_AVAILABLE else []),
)
@pytest.mark.parametrize("backend_cls", [SharedMemoryBackend])
def test_start_methods_bit_identical(
    config, psa, campaign, backend_cls, start_method
):
    recs = campaign.records("baseline", 4)
    reference = psa.render(recs, trace_indices=[1, 2, 3, 4], sensors=[10])
    backend = backend_cls(max_workers=2, start_method=start_method)
    engine = MeasurementEngine(config, amplifier=psa.amplifier, backend=backend)
    try:
        batch = engine.render(
            psa.coupling, recs, trace_indices=[1, 2, 3, 4],
            receiver_indices=[10],
        )
        assert np.array_equal(batch.samples, reference.samples)
    finally:
        engine.close()


def test_invalid_start_method_rejected():
    with pytest.raises(Exception, match="start method"):
        SharedMemoryBackend(max_workers=2, start_method="teleport")


# -- shared-memory arena -----------------------------------------------------


def test_arena_reused_across_dispatches(config, psa, campaign):
    backend = SharedMemoryBackend(max_workers=2)
    engine = MeasurementEngine(config, amplifier=psa.amplifier, backend=backend)
    try:
        recs = campaign.records("baseline", 4)
        reference = psa.render(recs, trace_indices=[1, 2, 3, 4], sensors=[10])
        for _ in range(3):
            batch = engine.render(
                psa.coupling, recs, trace_indices=[1, 2, 3, 4],
                receiver_indices=[10],
            )
            assert np.array_equal(batch.samples, reference.samples)
        # Same-size dispatches fit the arena allocated on first use.
        assert backend.arena_generations == 1
    finally:
        engine.close()


def test_arena_grows_in_place(config, psa, campaign):
    backend = SharedMemoryBackend(max_workers=2)
    engine = MeasurementEngine(config, amplifier=psa.amplifier, backend=backend)
    try:
        small = campaign.records("baseline", 2)
        engine.render(
            psa.coupling, small, trace_indices=[1, 2], receiver_indices=[10]
        )
        first_capacity = backend.arena_capacity
        assert backend.arena_generations == 1
        # Distinct records defeat payload dedup, forcing a bigger plan.
        big = campaign.records("T1", 12)
        engine.render(
            psa.coupling, big, trace_indices=list(range(12)),
            receiver_indices=[10],
        )
        assert backend.arena_generations == 2
        assert backend.arena_capacity > first_capacity
        # Capacities are powers of two.
        cap = backend.arena_capacity
        assert cap & (cap - 1) == 0
    finally:
        engine.close()


def test_no_leaked_segments_after_close(config, psa, campaign):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    gc.collect()
    before = _shm_names()
    backend = SharedMemoryBackend(max_workers=2)
    engine = MeasurementEngine(config, amplifier=psa.amplifier, backend=backend)
    recs = campaign.records("baseline", 4)
    batches = [
        engine.render(
            psa.coupling, recs, trace_indices=[1, 2, 3, 4],
            receiver_indices=[10],
        )
        for _ in range(2)
    ]
    assert _shm_names() - before  # the arena (at least) is live
    del batches
    gc.collect()
    engine.close()
    assert _shm_names() - before == set()


# -- dispatch-level caches ---------------------------------------------------


def test_capture_plan_cache_hits(config, psa, campaign):
    engine = MeasurementEngine(config, amplifier=psa.amplifier)
    recs = campaign.records("baseline", 2)
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
    recs = campaign.records("baseline", 1)
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
