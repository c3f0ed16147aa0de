"""Renders and featurizes split across threads: same bytes, no deadlock.

A render pass cuts its captures into contiguous trace pieces and a
featurize call its rows into contiguous row blocks, taken in turn by
one thread per core (:mod:`repro.parallel`).  Every capture draws from
its own stream and every transformed row depends on that row alone, so
the bytes must not depend on the thread count or on which thread took
which piece; these tests pin that at 1, 2 and 3 threads whatever the
host's core count.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import parallel
from repro.baselines.common import ReceiverBench
from repro.core.analysis.localizer import QUADRANTS, Localizer
from repro.core.analysis.spectral import sideband_columns
from repro.core.coil import synthesize_rect_coil
from repro.core.sensors import quadrant_coil
from repro.dsp.transforms import display_spectra_at
from repro.em.coupling import kernel_spectrum, kernel_spectrum_stats
from repro.em.probes import langer_lf1_probe
from repro.engine import RenderPlan
from repro.instruments.adc import AdcSpec, quantize_batch
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.serve import MonitorService, ServeConfig

THREAD_COUNTS = (1, 2, 3)


def _at(monkeypatch, threads, fn, *args, **kwargs):
    monkeypatch.setattr(parallel, "THREADS", threads)
    return fn(*args, **kwargs)


def _same_at_every_count(monkeypatch, fn, *args, **kwargs):
    """``fn``'s result bytes at every thread count, checked equal."""
    outputs = [
        _at(monkeypatch, threads, fn, *args, **kwargs)
        for threads in THREAD_COUNTS
    ]
    for threads, out in zip(THREAD_COUNTS[1:], outputs[1:]):
        assert out.tobytes() == outputs[0].tobytes(), f"{threads} threads"
    return outputs[0]


def _samples(render):
    return lambda *args, **kwargs: render(*args, **kwargs).samples


# -- workers and pieces ----------------------------------------------------------


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_workers_one_per_core_none_idle(monkeypatch, threads):
    monkeypatch.setattr(parallel, "THREADS", threads)
    assert [parallel.workers(n) for n in (1, 2, 5)] == [min(threads, n) for n in (1, 2, 5)]
    # Small featurize calls stay on one thread.
    assert parallel.workers(16, 32) == parallel.workers(32, 32) == 1
    assert parallel.workers(33, 32) == min(threads, 2)
    assert parallel.workers(256, 32) == threads


@pytest.mark.parametrize("n, size", [(1, 1), (7, 2), (64, 5), (33, 16)])
def test_pieces_cover_once_across_threads(n, size):
    pieces = parallel.Pieces(n, size)
    taken = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: taken.extend(pieces)) for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    expected = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    assert sorted(taken) == expected


def test_one_core_runs_inline_without_a_pool(monkeypatch, psa, records):
    monkeypatch.setattr(parallel, "THREADS", 1)
    monkeypatch.setattr(parallel, "_pool", None)
    recs = records["T1"] * 3
    psa.render(recs, trace_indices=range(len(recs)))
    assert parallel._pool is None


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
def test_one_cpu_affinity_mask_splits_nothing():
    """A process allowed one CPU counts one thread and never starts a pool."""
    cpu = min(os.sched_getaffinity(0))
    code = (
        f"import os; os.sched_setaffinity(0, {{{cpu}}})\n"
        "import numpy as np\n"
        "from repro import parallel\n"
        "from repro.dsp.transforms import display_spectra_at\n"
        "display_spectra_at(np.ones((256, 1024)), 528e6, np.array([5]))\n"
        "print(parallel.THREADS, parallel._pool is None)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True"]


def test_errors_propagate_after_every_call_ends(monkeypatch):
    monkeypatch.setattr(parallel, "THREADS", 2)
    finished = []

    def fail():
        raise ValueError("call failed")

    def slow():
        threading.Event().wait(0.05)
        finished.append(True)

    with pytest.raises(ValueError, match="call failed"):
        parallel.run([fail, slow])
    assert finished == [True]
    with pytest.raises(ValueError, match="call failed"):
        parallel.run([slow, fail])


def test_kernel_spectrum_counts_every_lookup_under_contention(config):
    """Render threads share the kernel-spectrum cache: no lost counts."""
    n_threads, lookups = 8, 2000
    before = kernel_spectrum_stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [kernel_spectrum(config) for _ in range(lookups)]
            )
            for _ in range(n_threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    after = kernel_spectrum_stats()
    counted = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    assert counted == n_threads * lookups


# -- render bytes ---------------------------------------------------------------


@pytest.mark.parametrize("n_traces", [1, 2, 5, 7])
def test_render_bytes_identical_across_thread_counts(
    monkeypatch, psa, records, n_traces
):
    """Odd splits, records repeating out of order across piece edges."""
    pool = records["T2"] + records["T1"] + records["baseline"]
    recs = [pool[(3 * k) % len(pool)] for k in range(n_traces)]
    indices = [11 + 2 * k for k in range(n_traces)]
    _same_at_every_count(monkeypatch, _samples(psa.render), recs, trace_indices=indices)
    _same_at_every_count(
        monkeypatch, _samples(psa.render), recs, trace_indices=indices, sensors=[10, 3]
    )


@pytest.mark.parametrize("n_traces", [1, 2, 5, 7])
def test_column_render_bytes_identical_across_thread_counts(
    monkeypatch, psa, records, n_traces
):
    """A column render splits like the full render: same bytes."""
    pool = records["T2"] + records["T1"] + records["baseline"]
    recs = [pool[(3 * k) % len(pool)] for k in range(n_traces)]
    indices = [11 + 2 * k for k in range(n_traces)]
    columns = np.array([0, 480, 767, 768, 769, 1530, 4224])

    def spectra(*args, **kwargs):
        return psa.render(*args, columns=columns, **kwargs).spectra.values

    _same_at_every_count(monkeypatch, spectra, recs, trace_indices=indices)
    _same_at_every_count(
        monkeypatch, spectra, recs, trace_indices=indices, sensors=[10, 3]
    )


def test_score_map_plan_bytes_identical_across_thread_counts(
    monkeypatch, psa, records
):
    """A fused score-map plan (both populations at the sideband
    columns, one job) splits like any render: same bytes."""
    localizer = Localizer(psa)

    def fused():
        plan = RenderPlan()
        base, active = localizer.enqueue_score_map(
            plan, records["baseline"], records["T1"] + records["T4"][:1]
        )
        plan.execute()
        return np.concatenate(
            [base.result().spectra.values, active.result().spectra.values], axis=1
        )

    _same_at_every_count(monkeypatch, fused)


def test_quadrant_stack_column_render_bytes_identical(monkeypatch, psa, records):
    """The quadrant refinement's coupling stack at the sideband columns."""
    coils = [quadrant_coil(10, which) for which in QUADRANTS]
    columns = sideband_columns(SpectrumAnalyzer(), psa.config)
    recs = records["baseline"] + records["T4"] + records["T1"][:1]

    def spectra():
        return psa.measure_coils_batch(
            coils, recs, trace_indices=[0, 1, 2000, 2001, 2002], columns=columns
        ).spectra.values

    _same_at_every_count(monkeypatch, spectra)


def test_one_record_reused_for_every_index(monkeypatch, psa, records):
    samples = _same_at_every_count(
        monkeypatch, _samples(psa.render), [records["T3"][0]], trace_indices=range(6)
    )
    assert not np.array_equal(samples[10, 0], samples[10, 5])


def test_coupling_stack_with_falling_phase_parts(monkeypatch, psa, records):
    """Stacked coils over records carrying falling-phase Trojan charge."""
    coils = [
        synthesize_rect_coil("thread_stack_a", 0, 0, 12, 1),
        synthesize_rect_coil("thread_stack_b", 8, 8, 12, 2),
    ]
    recs = records["T1"] + records["T4"] + records["T1"][:1]
    assert all(record.factors.get("trojan") for record in recs)
    _same_at_every_count(
        monkeypatch, _samples(psa.measure_coils_batch), coils, recs,
        trace_indices=[4, 9, 2, 7, 30],
    )


def test_gain_jitter_probe(monkeypatch, chip, records):
    bench = ReceiverBench(chip, langer_lf1_probe())
    assert bench.receiver.gain_jitter > 0.0
    recs = records["T2"] * 3
    _same_at_every_count(
        monkeypatch, _samples(bench.measure_batch), recs, trace_indices=range(6)
    )


# -- featurize bytes --------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [31, 32, 33, 256])
def test_featurize_bytes_identical_across_thread_counts(monkeypatch, n_rows):
    rng = np.random.default_rng(n_rows)
    samples = 1e-3 * rng.standard_normal((n_rows, 1024))
    spec = AdcSpec()

    def featurize(prepare):
        grid, out = display_spectra_at(
            samples, 528e6, np.array([3, 180, 181, 700, 1999]), prepare=prepare
        )
        return out

    _same_at_every_count(monkeypatch, featurize, None)
    _same_at_every_count(monkeypatch, featurize, lambda block: quantize_batch(block, spec))


# -- no deadlock ------------------------------------------------------------------


def _render_and_featurize(psa, records):
    batch = psa.render(records["T1"] * 3, trace_indices=range(6))
    rows = batch.samples.reshape(-1, batch.samples.shape[-1])
    _, out = display_spectra_at(rows, batch.fs, np.array([5, 500]))
    return batch.samples, out


def test_calls_from_a_pool_thread_run_inline(monkeypatch, psa, records):
    monkeypatch.setattr(parallel, "THREADS", 2)
    reference = _render_and_featurize(psa, records)
    inside = []

    def nested():
        inside.append(parallel.workers(64))
        return _render_and_featurize(psa, records)

    future = parallel._executor().submit(nested)
    samples, out = future.result(timeout=120)
    assert inside == [1]
    assert samples.tobytes() == reference[0].tobytes()
    assert out.tobytes() == reference[1].tobytes()


def test_calls_from_serve_executor_threads_finish(monkeypatch, psa, records):
    """Every serve analysis thread splitting at once shares the pool:
    a caller whose pool task waits behind others renders its pieces
    itself."""
    monkeypatch.setattr(parallel, "THREADS", 3)
    reference = _render_and_featurize(psa, records)
    service = MonitorService(ServeConfig(analysis_workers=3))
    try:
        futures = [
            service.executor.submit(_render_and_featurize, psa, records)
            for _ in range(3)
        ]
        for future in futures:
            samples, out = future.result(timeout=120)
            assert samples.tobytes() == reference[0].tobytes()
            assert out.tobytes() == reference[1].tobytes()
    finally:
        service.executor.shutdown(wait=True)


#: What a forked child renders (set before the fork, inherited by it).
_FORKED_RENDER = None


def _digest_of_forked_render():
    psa, recs = _FORKED_RENDER
    samples = psa.render(recs, trace_indices=range(len(recs))).samples
    return hashlib.sha256(samples.tobytes()).hexdigest()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_starts_its_own_pool(monkeypatch, psa, records):
    """A child forked after a split does not wait on its parent's threads."""
    global _FORKED_RENDER
    monkeypatch.setattr(parallel, "THREADS", 2)
    recs = records["T1"] * 2
    _FORKED_RENDER = (psa, recs)
    samples = psa.render(recs, trace_indices=range(len(recs))).samples
    assert parallel._pool is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(_digest_of_forked_render).get(timeout=120)
    assert child == hashlib.sha256(samples.tobytes()).hexdigest()
