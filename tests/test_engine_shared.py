"""The ``shared`` backend: zero-copy transport, bit-identical output."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimConfig
from repro.engine import (
    BACKEND_NAMES,
    MeasurementEngine,
    SharedMemoryBackend,
    resolve_backend,
)
from repro.engine.shm import (
    SharedArrayRef,
    _InputArena,
    _attach,
    _pack_payload,
    _resolve_payload,
)
from repro.errors import ConfigError
from repro.workloads.scenarios import scenario_by_name


def test_backend_registered():
    assert "shared" in BACKEND_NAMES
    backend = resolve_backend("shared", workers=3)
    assert backend.name == "shared"
    assert backend.parallelism == 3
    backend.close()


def test_config_accepts_shared_backend():
    config = SimConfig(engine_backend="shared", engine_workers=2)
    assert config.engine_backend == "shared"
    with pytest.raises(ConfigError):
        SimConfig(engine_backend="bogus")


def test_arena_roundtrip_views():
    arena = _InputArena()
    a = np.arange(7.0)
    b = np.arange(12.0).reshape(3, 4)
    ref_a = arena.add(a)
    ref_b = arena.add(b)
    assert arena.add(a) is ref_a  # identity-deduplicated
    assert arena.n_arrays == 2
    name = arena.materialize()
    try:
        shm = _attach(name)
        try:
            view_a = np.ndarray(
                ref_a.shape, dtype=np.dtype(ref_a.dtype),
                buffer=shm.buf, offset=ref_a.offset,
            )
            view_b = np.ndarray(
                ref_b.shape, dtype=np.dtype(ref_b.dtype),
                buffer=shm.buf, offset=ref_b.offset,
            )
            assert np.array_equal(view_a, a)
            assert np.array_equal(view_b, b)
        finally:
            shm.close()
    finally:
        arena.release()


class _FakeRecord:
    def __init__(self, factors):
        self.factors = factors


def test_pack_resolve_payload_roundtrip():
    w = np.arange(5.0)
    t = np.arange(3.0)
    record = _FakeRecord({"main": [("mod", w, t)]})
    arena = _InputArena()
    payload = _pack_payload((record, [record], "tag"), arena, {})
    packed = payload[0].factors["main"][0]
    assert isinstance(packed[1], SharedArrayRef)
    assert isinstance(packed[2], SharedArrayRef)
    # The packer works on a copy; the caller's record keeps its arrays.
    assert payload[0] is not record
    assert record.factors["main"][0][1] is w
    # Identity-dedup: the record appears twice but was packed once.
    assert payload[1][0] is payload[0]
    assert arena.n_arrays == 2
    name = arena.materialize()
    try:
        shm = _attach(name)
        try:
            resolved = _resolve_payload(payload, shm, {})
            _, rw, rt = resolved[0].factors["main"][0]
            assert np.array_equal(rw, w)
            assert np.array_equal(rt, t)
            assert not rw.flags.writeable
        finally:
            shm.close()
    finally:
        arena.release()


def test_shared_render_bit_identical_to_serial(campaign, psa):
    scenario = scenario_by_name("baseline")
    unique = [campaign.record(scenario, index) for index in range(3)]
    records = [unique[index % 3] for index in range(24)]
    indices = list(range(24))
    serial = psa.engine.render(
        psa.coupling, records, trace_indices=indices, receiver_indices=[10, 5]
    )
    backend = SharedMemoryBackend(2)
    engine = MeasurementEngine(
        psa.config, amplifier=psa.amplifier, backend=backend
    )
    try:
        shared = engine.render(
            psa.coupling,
            records,
            trace_indices=indices,
            receiver_indices=[10, 5],
        )
        assert np.array_equal(serial.samples, shared.samples)
        assert shared.samples.flags.writeable
    finally:
        backend.close()


def test_run_jobs_split_mismatch_rejected():
    backend = SharedMemoryBackend(2)
    try:
        with pytest.raises(ValueError):
            backend.run_jobs(lambda p: p, [([1, 2], (1, 4, 3), [0, 4])])
    finally:
        backend.close()


def test_shared_render_leaves_caller_records_intact(campaign, psa):
    """Packing factors into the arena never rewrites the caller's records.

    The packer swaps every factor array of a shard payload for an
    arena descriptor; it must do so on its own objects, so each
    caller record keeps the very same ``factors`` dict and arrays,
    byte for byte, and renders the same samples again afterwards.
    """
    records = campaign.records("T1", 4)
    assert all(record.factors for record in records)

    def parts_of(record):
        return [part for parts in record.factors.values() for part in parts]

    before = [
        (
            record.factors,
            parts_of(record),
            [(w.tobytes(), t.tobytes()) for _, w, t in parts_of(record)],
        )
        for record in records
    ]
    indices = [1, 2, 3, 4]
    backend = SharedMemoryBackend(2)
    engine = MeasurementEngine(
        psa.config, amplifier=psa.amplifier, backend=backend
    )
    try:
        shared = engine.render(
            psa.coupling, records, trace_indices=indices, receiver_indices=[10]
        )
    finally:
        backend.close()
    for record, (factors, parts, data) in zip(records, before):
        assert record.factors is factors
        now = parts_of(record)
        assert len(now) == len(parts)
        assert all(part is old for part, old in zip(now, parts))
        assert [(w.tobytes(), t.tobytes()) for _, w, t in now] == data
    serial = psa.engine.render(
        psa.coupling, records, trace_indices=indices, receiver_indices=[10]
    )
    assert np.array_equal(serial.samples, shared.samples)
