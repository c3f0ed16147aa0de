"""Renders and featurizes on their calling thread, from any thread.

A render pass and a featurize call run on the thread that makes them
and start no thread of their own.  ``repro serve``'s analysis executor
still calls them from several threads at once, sharing the process's
caches (kernel spectra, capture plans, coupling matrices, display
plans), so these tests pin that 1, 2 or 3 threads calling at once each
get the single call's bytes, and that the shared caches count every
lookup.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

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

#: Threads calling at once.
THREAD_COUNTS = (1, 2, 3)


def _at_once(threads, fn, *args, **kwargs):
    """``fn``'s results from ``threads`` threads started together."""
    if threads == 1:
        return [fn(*args, **kwargs)]
    results = [None] * threads
    start = threading.Barrier(threads)

    def call(k):
        start.wait(timeout=60)
        results[k] = fn(*args, **kwargs)

    workers = [threading.Thread(target=call, args=(k,)) for k in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    return results


def _same_at_every_count(fn, *args, **kwargs):
    """``fn``'s result bytes from every count of threads at once, checked
    equal to the single call's."""
    reference = fn(*args, **kwargs)
    for threads in THREAD_COUNTS:
        for out in _at_once(threads, fn, *args, **kwargs):
            assert out.tobytes() == reference.tobytes(), f"{threads} threads"
    return reference


def _samples(render):
    return lambda *args, **kwargs: render(*args, **kwargs).samples


def _thread_names():
    return {thread.name for thread in threading.enumerate()}


def test_calls_start_no_thread(psa, records):
    """A full render, a column render and a blocked featurize call all
    run on their calling thread: no pool, no thread left behind."""
    before = threading.active_count()
    names = _thread_names()
    recs = (records["T1"] + records["baseline"]) * 2
    batch = psa.render(recs, trace_indices=range(8))
    assert batch.samples.shape[:2] == (16, 8)
    psa.render(recs, trace_indices=range(8), columns=np.array([5, 480, 4224]))
    rows = np.tile(batch.samples.reshape(-1, batch.samples.shape[-1]), (2, 1))
    assert rows.shape[0] == 256
    spec = AdcSpec()
    display_spectra_at(
        rows, batch.fs, np.array([5, 500]), prepare=lambda block: quantize_batch(block, spec)
    )
    assert threading.active_count() == before
    assert _thread_names() == names
    assert not any(name.startswith("repro-split") for name in names)


def test_kernel_spectrum_counts_every_lookup_under_contention(config):
    """Serve's analysis threads share the kernel-spectrum cache: no lost
    counts."""
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
def test_render_bytes_identical_across_thread_counts(psa, records, n_traces):
    """Records repeating out of order across irFFT block edges."""
    pool = records["T2"] + records["T1"] + records["baseline"]
    recs = [pool[(3 * k) % len(pool)] for k in range(n_traces)]
    indices = [11 + 2 * k for k in range(n_traces)]
    _same_at_every_count(_samples(psa.render), recs, trace_indices=indices)
    _same_at_every_count(_samples(psa.render), recs, trace_indices=indices, sensors=[10, 3])


@pytest.mark.parametrize("n_traces", [1, 2, 5, 7])
def test_column_render_bytes_identical_across_thread_counts(psa, records, n_traces):
    pool = records["T2"] + records["T1"] + records["baseline"]
    recs = [pool[(3 * k) % len(pool)] for k in range(n_traces)]
    indices = [11 + 2 * k for k in range(n_traces)]
    columns = np.array([0, 480, 767, 768, 769, 1530, 4224])

    def spectra(*args, **kwargs):
        return psa.render(*args, columns=columns, **kwargs).spectra.values

    _same_at_every_count(spectra, recs, trace_indices=indices)
    _same_at_every_count(spectra, recs, trace_indices=indices, sensors=[10, 3])


def test_score_map_plan_bytes_identical_across_thread_counts(psa, records):
    """A fused score-map plan (both populations at the sideband columns,
    one job)."""
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

    _same_at_every_count(fused)


def test_quadrant_stack_column_render_bytes_identical(psa, records):
    """The quadrant refinement's coupling stack at the sideband columns."""
    coils = [quadrant_coil(10, which) for which in QUADRANTS]
    columns = sideband_columns(SpectrumAnalyzer(), psa.config)
    recs = records["baseline"] + records["T4"] + records["T1"][:1]

    def spectra():
        return psa.measure_coils_batch(
            coils, recs, trace_indices=[0, 1, 2000, 2001, 2002], columns=columns
        ).spectra.values

    _same_at_every_count(spectra)


def test_one_record_reused_for_every_index(psa, records):
    samples = _same_at_every_count(
        _samples(psa.render), [records["T3"][0]], trace_indices=range(6)
    )
    assert not np.array_equal(samples[10, 0], samples[10, 5])


def test_coupling_stack_with_falling_phase_parts(psa, records):
    """Stacked coils over records carrying falling-phase Trojan charge."""
    coils = [
        synthesize_rect_coil("thread_stack_a", 0, 0, 12, 1),
        synthesize_rect_coil("thread_stack_b", 8, 8, 12, 2),
    ]
    recs = records["T1"] + records["T4"] + records["T1"][:1]
    assert all(record.factors.get("trojan") for record in recs)
    _same_at_every_count(
        _samples(psa.measure_coils_batch), coils, recs, trace_indices=[4, 9, 2, 7, 30]
    )


def test_gain_jitter_probe(chip, records):
    bench = ReceiverBench(chip, langer_lf1_probe())
    assert bench.receiver.gain_jitter > 0.0
    recs = records["T2"] * 3
    _same_at_every_count(_samples(bench.measure_batch), recs, trace_indices=range(6))


# -- featurize bytes --------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [31, 32, 33, 256])
def test_featurize_bytes_identical_across_thread_counts(n_rows):
    rng = np.random.default_rng(n_rows)
    samples = 1e-3 * rng.standard_normal((n_rows, 1024))
    spec = AdcSpec()

    def featurize(prepare):
        grid, out = display_spectra_at(
            samples, 528e6, np.array([3, 180, 181, 700, 1999]), prepare=prepare
        )
        return out

    _same_at_every_count(featurize, None)
    _same_at_every_count(featurize, lambda block: quantize_batch(block, spec))


# -- serve's analysis executor ----------------------------------------------------


def _render_and_featurize(psa, records):
    batch = psa.render(records["T1"] * 3, trace_indices=range(6))
    rows = batch.samples.reshape(-1, batch.samples.shape[-1])
    _, out = display_spectra_at(rows, batch.fs, np.array([5, 500]))
    return batch.samples, out


def test_calls_from_serve_executor_threads_finish(psa, records):
    """Three serve analysis threads rendering and featurizing at once
    each return the single call's bytes."""
    reference = _render_and_featurize(psa, records)
    service = MonitorService(ServeConfig(analysis_workers=3))
    try:
        start = threading.Barrier(3)

        def call():
            start.wait(timeout=60)
            return _render_and_featurize(psa, records)

        futures = [service.executor.submit(call) for _ in range(3)]
        for future in futures:
            samples, out = future.result(timeout=120)
            assert samples.tobytes() == reference[0].tobytes()
            assert out.tobytes() == reference[1].tobytes()
    finally:
        service.executor.shutdown(wait=True)
