"""What a live monitor holds: one chunk of samples, no record backlog.

A run-time monitor runs for as long as its chip does, so its memory
must not grow with the session.  These tests pin the three parts of
that bound: a standalone pipeline drops each chunk before the next
renders; :class:`~repro.runtime.LiveSource` releases the activity
records it fetched for a chunk once the chunk is consumed (but keeps
what :meth:`~repro.runtime.LiveSource.warm_records` or the caller put
in its memo); and a session's traced peak does not grow with its
length.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

from repro.runtime import ActivationSchedule, LiveSource, build_fleet, build_preset
from repro.store import ArtifactStore
from repro.workloads.scenarios import scenario_by_name


def _track_records(monkeypatch, campaign):
    """Weakref every record the campaign simulates.

    Returns ``(live, peak)``: a function counting the records still
    alive, and a one-item list holding the most alive at any one
    simulation.
    """
    made = []
    peak = [0]
    simulate = campaign.record

    def tracked(scenario, index):
        record = simulate(scenario, index)
        made.append(weakref.ref(record))
        peak[0] = max(peak[0], live())
        return record

    def live():
        return sum(ref() is not None for ref in made)

    monkeypatch.setattr(campaign, "record", tracked)
    return live, peak


def _consume(source):
    """Pull every chunk, holding none of them."""
    n_windows = 0
    for chunk in source.chunks():
        n_windows += chunk.n_windows
        del chunk
    return n_windows


def test_standalone_run_holds_one_rendered_chunk_at_a_time(monkeypatch):
    """``EscalationPipeline.run`` drops a chunk before the next renders."""
    made = []
    alive = []
    chunk_from = LiveSource.chunk_from

    def tracked(batch, position):
        chunk = chunk_from(batch, position)
        data = chunk.samples if chunk.spectra is None else chunk.spectra.values
        made.append((weakref.ref(chunk), weakref.ref(data)))
        alive.append(
            sum(
                chunk_ref() is not None or samples_ref() is not None
                for chunk_ref, samples_ref in made
            )
        )
        return chunk

    monkeypatch.setattr(LiveSource, "chunk_from", staticmethod(tracked))
    monitor = build_fleet("smoke", n_chips=1).monitors[0]
    report = monitor.pipeline.run(monitor.source)
    assert report.n_windows == monitor.source.n_windows
    assert len(made) == 3
    assert max(alive) == 1


def test_longer_session_holds_no_more_records(monkeypatch, campaign):
    """Live records do not grow with the session's length."""
    counts = []
    for scale in (1, 3):
        live, peak = _track_records(monkeypatch, campaign)
        schedule = ActivationSchedule.step(
            "T4", n_baseline=24 * scale, n_active=12 * scale
        )
        source = LiveSource(campaign, schedule, sensors=(10,), chunk=16)
        assert _consume(source) == 36 * scale
        gc.collect()
        counts.append((peak[0], live()))
        monkeypatch.undo()
    (short_peak, short_left), (long_peak, long_left) = counts
    assert long_peak <= short_peak <= 16
    assert long_left <= short_left == 0


def test_warm_records_stay_pinned(campaign):
    schedule = ActivationSchedule.step("T4", n_baseline=3, n_active=2)
    memo: dict = {}
    source = LiveSource(
        campaign, schedule, sensors=(10,), chunk=2, record_cache=memo
    )
    assert source.warm_records() == 5
    pinned = dict(memo)
    _consume(source)
    assert memo.keys() == pinned.keys()
    assert all(memo[key] is record for key, record in pinned.items())


def test_caller_memo_keeps_its_entries_and_sheds_the_rest(campaign):
    schedule = ActivationSchedule.step("T4", n_baseline=3, n_active=2)
    key = (schedule.reference, schedule.segments[0].index_offset)
    record = campaign.record(scenario_by_name(key[0]), key[1])
    memo = {key: record}
    _consume(
        LiveSource(
            campaign, schedule, sensors=(10,), chunk=2, record_cache=memo
        )
    )
    assert memo == {key: record}


def test_released_store_record_rereads_as_a_hit(tmp_path, campaign):
    schedule = ActivationSchedule.step("T4", n_baseline=3, n_active=2)
    store = ArtifactStore(tmp_path / "store")
    memo = store.records(campaign.chip)
    _consume(
        LiveSource(
            campaign, schedule, sensors=(10,), chunk=2, record_cache=memo
        )
    )
    assert store.writes == 5
    item = (schedule.reference, schedule.segments[0].index_offset)
    assert item not in list(memo)  # __iter__ covers memory only
    hits, misses = store.hits, store.misses
    assert memo[item] is not None
    assert (store.hits, store.misses) == (hits + 1, misses)
    assert item in list(memo)


def _soak_peak(scale: int) -> int:
    """Traced peak [B] of a 1-chip ``soak`` session ``scale``x as long."""
    preset = build_preset("soak")
    preset = dataclasses.replace(
        preset, n_baseline=scale * preset.n_baseline, n_active=scale * preset.n_active
    )
    scheduler = build_fleet(preset, n_chips=1)
    gc.collect()
    tracemalloc.start()
    try:
        report = scheduler.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        scheduler.close()
    assert report.all_detected
    return peak


def test_soak_session_peak_does_not_grow_with_its_length():
    """A 3x longer soak session peaks < 2 MB above the 1x session.

    A live chunk holds spectra at a few columns, so the peak (~16.5 MB
    above set-up) is set by activity simulation and the LOCALIZE
    renders, and does not grow with the session: the 3x session reads
    ~0.3 MB more.  A record holds ~72 kB, so a source that stops
    releasing its chunks' records keeps 72 more of them (~5 MB) in
    the 3x session.  A 1x run first fills the first-use caches.
    """
    _soak_peak(1)
    short, long = _soak_peak(1), _soak_peak(3)
    assert long - short < 2e6, (
        f"3x session peak {long / 1e6:.1f} MB against {short / 1e6:.1f} MB"
    )
