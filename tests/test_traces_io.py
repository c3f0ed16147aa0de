"""Trace container and archive I/O."""

import ast
import io
import json
import zipfile

import numpy as np
import pytest

from repro.errors import MeasurementError, TraceIOError
from repro.runtime.sources import ReplaySource
from repro.traceio import (
    iter_traces,
    load_traces,
    read_header,
    save_traces,
    trace_count,
)
from repro.traces import Trace


def _trace(label="t", n=256, seed=0):
    rng = np.random.default_rng(seed)
    return Trace(
        samples=rng.normal(size=n),
        fs=528e6,
        label=label,
        scenario="baseline",
        meta={"trace_index": seed},
    )


def test_trace_properties():
    trace = _trace(n=528)
    assert trace.n_samples == 528
    assert trace.duration == pytest.approx(528 / 528e6)
    assert trace.time()[1] == pytest.approx(1 / 528e6)
    assert trace.rms() > 0


def test_trace_validation():
    with pytest.raises(MeasurementError):
        Trace(samples=np.array([1.0]), fs=1e6)
    with pytest.raises(MeasurementError):
        Trace(samples=np.zeros(16), fs=-1.0)


def test_with_label():
    renamed = _trace(label="a").with_label("b")
    assert renamed.label == "b"
    assert renamed.scenario == "baseline"


def test_save_load_roundtrip(tmp_path):
    traces = [_trace(label=f"s{i}", seed=i) for i in range(5)]
    path = save_traces(tmp_path / "archive.npz", traces)
    loaded = load_traces(path)
    assert len(loaded) == 5
    for original, restored in zip(traces, loaded):
        assert np.array_equal(original.samples, restored.samples)
        assert restored.label == original.label
        assert restored.scenario == original.scenario
        assert restored.meta == original.meta


def test_save_appends_npz_suffix(tmp_path):
    path = save_traces(tmp_path / "noext", [_trace()])
    assert path.suffix == ".npz"
    assert path.exists()


@pytest.mark.parametrize("batch", [1, 2, 3, 64])
def test_iter_traces_batches(tmp_path, batch):
    traces = [_trace(label=f"s{i}", seed=i) for i in range(7)]
    path = save_traces(tmp_path / "archive.npz", traces)
    chunks = list(iter_traces(path, batch=batch))
    assert all(len(chunk) <= batch for chunk in chunks)
    assert len(chunks) == -(-7 // batch)  # ceil division
    flat = [trace for chunk in chunks for trace in chunk]
    assert len(flat) == 7
    for original, restored in zip(traces, flat):
        assert np.array_equal(original.samples, restored.samples)
        assert restored.label == original.label
        assert restored.meta == original.meta


def test_load_traces_matches_iter(tmp_path):
    traces = [_trace(seed=i) for i in range(5)]
    path = save_traces(tmp_path / "a.npz", traces)
    eager = load_traces(path)
    streamed = [t for chunk in iter_traces(path, batch=2) for t in chunk]
    assert len(eager) == len(streamed)
    for a, b in zip(eager, streamed):
        assert np.array_equal(a.samples, b.samples)


def test_trace_count_header_only(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(4)])
    assert trace_count(path) == 4


def test_iter_traces_validates_batch_eagerly(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace()])
    with pytest.raises(TraceIOError):
        iter_traces(path, batch=0)  # at call time, not first next()


def test_iter_traces_missing_archive_eagerly(tmp_path):
    with pytest.raises(TraceIOError):
        iter_traces(tmp_path / "nope.npz")


def test_empty_archive_rejected(tmp_path):
    with pytest.raises(TraceIOError):
        save_traces(tmp_path / "x.npz", [])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(TraceIOError):
        load_traces(tmp_path / "nothing.npz")


def test_foreign_npz_rejected(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, data=np.ones(4))
    with pytest.raises(TraceIOError):
        load_traces(path)


def test_unserializable_meta_rejected(tmp_path):
    bad = Trace(
        samples=np.zeros(16),
        fs=1e6,
        meta={"bad": object()},
    )
    with pytest.raises(TraceIOError):
        save_traces(tmp_path / "bad.npz", [bad])


def test_real_psa_traces_roundtrip(tmp_path, psa, records):
    batch = psa.render([records["T1"][0]], sensors=range(4))
    traces = [batch.trace(sensor, 0) for sensor in range(4)]
    path = save_traces(tmp_path / "psa.npz", traces)
    loaded = load_traces(path)
    assert loaded[0].label == "psa_sensor_0"
    assert np.array_equal(loaded[3].samples, traces[3].samples)


def test_archives_are_written_stored(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(3)])
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_STORED
        }


def _assert_same_traces(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a.samples, b.samples)
        assert (a.fs, a.label, a.scenario, a.meta) == (b.fs, b.label, b.scenario, b.meta)


def test_archive_bytes_read_like_the_file(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(5)])
    data = path.read_bytes()
    name = tmp_path / "absent.npz"  # names the bytes; never opened
    assert read_header(name, data=data) == read_header(path)
    from_bytes = [t for chunk in iter_traces(name, batch=2, data=data) for t in chunk]
    _assert_same_traces(from_bytes, load_traces(path))


def test_compressed_archive_still_reads(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(4)])
    legacy = tmp_path / "legacy.npz"
    with np.load(path) as stored:
        np.savez_compressed(legacy, **{name: stored[name] for name in stored.files})
    _assert_same_traces(load_traces(legacy), load_traces(path))
    from_bytes = [t for chunk in iter_traces("x.npz", data=legacy.read_bytes()) for t in chunk]
    _assert_same_traces(from_bytes, load_traces(path))


def _rebuilt(data, mutate):
    """``data`` rebuilt with ``mutate(name, raw)`` per member (None drops it)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as source, zipfile.ZipFile(
        buffer, "w"
    ) as target:
        for name in source.namelist():
            raw = mutate(name, source.read(name))
            if raw is not None:
                target.writestr(name, raw)
    return buffer.getvalue()


def _with_header(value):
    """Replace the header member with ``value`` as JSON (fresh CRC)."""
    member = io.BytesIO()
    np.save(member, np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8))
    return lambda name, raw: member.getvalue() if name == "__header__.npy" else raw


_DAMAGE = {
    "half": lambda data: data[: len(data) // 2],
    "tail cut": lambda data: data[:-10],
    "zip magic then junk": lambda data: b"PK\x03\x04" + bytes(range(64)),
    "sample bit flip": lambda data: (
        data[: len(data) // 2] + bytes([data[len(data) // 2] ^ 1]) + data[len(data) // 2 + 1 :]
    ),
    # np.load would read this member as 255 samples and never check
    # its CRC; reading the member whole catches it.
    "shortened npy shape": lambda data: data.replace(b"(256,)", b"(255,)", 1),
    "missing member": lambda data: _rebuilt(
        data, lambda name, raw: None if name == "trace_00001.npy" else raw
    ),
    "member longer than its shape": lambda data: _rebuilt(
        data, lambda name, raw: raw + bytes(8) if name == "trace_00002.npy" else raw
    ),
    "header not an object": lambda data: _rebuilt(data, _with_header([1, 2])),
    "no traces": lambda data: _rebuilt(data, _with_header({"version": 1, "traces": []})),
    "entry without fields": lambda data: _rebuilt(
        data, _with_header({"version": 1, "traces": [{"key": "trace_00000"}]})
    ),
    "mistyped entry": lambda data: _rebuilt(
        data,
        _with_header(
            {
                "version": 1,
                "traces": [
                    {"key": "trace_00000", "fs": [1], "label": "", "scenario": "", "meta": {}}
                ],
            }
        ),
    ),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_damaged_archive_raises_trace_io_error(tmp_path, damage):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(4)])
    body = _DAMAGE[damage](path.read_bytes())
    with pytest.raises(TraceIOError):
        # The header read passes for damage past the header; the full
        # read must still fail.
        read_header("upload.npz", data=body)
        list(iter_traces("upload.npz", data=body))
    damaged = tmp_path / "damaged.npz"
    damaged.write_bytes(body)
    with pytest.raises(TraceIOError):
        load_traces(damaged)


def test_foreign_members_are_valid_npy(foreign_npy_members):
    """Each refused layout is one numpy reads: only the reader is strict."""
    for member in foreign_npy_members.values():
        assert np.load(io.BytesIO(member)).size == 256


def test_strict_layout_rejected(tmp_path, strict_damage):
    """Anything but the layout save_traces writes raises TraceIOError."""
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(4)])
    for case, damage in strict_damage.items():
        body = damage(path.read_bytes())
        read_header("upload.npz", data=body)  # the damage is past the header
        with pytest.raises(TraceIOError, match="not a readable trace archive"):
            list(iter_traces("upload.npz", data=body))
        with pytest.raises(TraceIOError, match="not a readable trace archive"):
            list(ReplaySource("upload.npz", batch=2, data=body).chunks())
        damaged = tmp_path / f"{case}.npz"
        damaged.write_bytes(body)
        with pytest.raises(TraceIOError, match="not a readable trace archive"):
            load_traces(damaged)
        with pytest.raises(TraceIOError, match="not a readable trace archive"):
            list(ReplaySource(damaged, batch=2).chunks())


@pytest.mark.parametrize("index", [float("inf"), float("nan"), "x", [1], None])
def test_replay_refuses_malformed_trace_index(tmp_path, index):
    """A trace_index int() cannot take is a TraceIOError at open time."""
    traces = [_trace(seed=i) for i in range(2)]
    traces[1].meta["trace_index"] = index
    data = save_traces(tmp_path / "a.npz", traces).read_bytes()
    with pytest.raises(TraceIOError, match="malformed trace_index"):
        ReplaySource("upload.npz", data=data)


def test_decode_uses_neither_numpy_nor_ast_header_parsers(tmp_path, monkeypatch):
    """numpy's npy header readers (and ast.literal_eval) are never called.

    Their parser state is what concurrent decodes once raced on.
    """
    traces = [_trace(label=f"s{i % 2}", seed=i) for i in range(6)]
    path = save_traces(tmp_path / "a.npz", traces)
    data = path.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy/ast header parser called")

    import numpy.lib._format_impl as format_impl

    for module in (np.lib.format, format_impl):
        monkeypatch.setattr(module, "read_array_header_1_0", refuse)
        monkeypatch.setattr(module, "read_array_header_2_0", refuse)
    monkeypatch.setattr(ast, "literal_eval", refuse)
    _assert_same_traces(load_traces(path), traces)
    streamed = [t for chunk in iter_traces("upload.npz", batch=4, data=data) for t in chunk]
    _assert_same_traces(streamed, traces)
    (chunk,) = ReplaySource("upload.npz", batch=3, data=data).chunks()
    assert np.array_equal(chunk.samples[1, 2], traces[5].samples)


def test_decoded_samples_are_writable(tmp_path):
    path = save_traces(tmp_path / "a.npz", [_trace(seed=i) for i in range(2)])
    for trace in load_traces(path) + next(iter_traces("x.npz", data=path.read_bytes())):
        trace.samples[0] = 1.0
