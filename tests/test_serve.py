"""End-to-end tests of the ``repro serve`` monitoring service.

The contract under test: a chip streamed through the service — HTTP
replay upload or WebSocket push — produces the *same* session report
and the *same* per-chip event transcript as running the offline
:class:`~repro.runtime.pipeline.EscalationPipeline` on the same
archive, bit for bit.  On top of that, overload must shed loudly
(typed events, counted drops, acked refusals) and recover cleanly.
"""

from __future__ import annotations

import asyncio
import builtins
import gc
import io
import itertools
import json
import os
import re
import socket
import struct
import time
import weakref
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import SimConfig
from repro.runtime.events import (
    Backpressure,
    EventBus,
    Overload,
    Shed,
    read_events,
)
from repro.runtime.fleet import build_chip_monitor
from repro.runtime.pipeline import EscalationPipeline
from repro.runtime.presets import build_preset
from repro.runtime.sources import DEFAULT_MONITOR_SENSOR, ReplaySource, record_stream
from repro.serve import (
    MonitorService,
    ServeConfig,
    ServiceRunner,
    ThroughputMeter,
    WsConnection,
    pack_chunk,
    unpack_chunk,
)
from repro.serve.protocol import (
    CHUNK_MAGIC,
    WS_BINARY,
    WS_TEXT,
    read_ws_frame,
    ws_frame,
)
from repro.traceio import load_traces

PRESET = build_preset("smoke")

#: Typed events the service adds on top of the pipeline's own stream.
_SERVICE_EVENTS = (Backpressure, Shed, Overload)


@pytest.fixture(scope="module")
def smoke_archive(tmp_path_factory):
    """The smoke stream recorded once, replayed by every test."""
    spec = PRESET.specs(1)[0]
    monitor = build_chip_monitor(
        spec, pipeline_config=PRESET.pipeline_config()
    )
    path = tmp_path_factory.mktemp("serve") / "smoke.npz"
    record_stream(monitor.source, path)
    return path


def offline_reference(path, chip):
    """The standalone pipeline's report + event transcript."""
    source = ReplaySource(path, batch=4)
    bus = EventBus()
    events = []
    bus.subscribe(events.append)
    pipeline = EscalationPipeline(
        SimConfig(),
        n_streams=source.n_streams,
        pipeline=PRESET.pipeline_config(),
        localizer=None,
        bus=bus,
        chip=chip,
    )
    report = pipeline.run(source)
    return report, events


def chip_events(log_path, chip):
    """One chip's pipeline events from the service's JSONL audit log."""
    return [
        event
        for event in read_events(log_path)
        if event.chip == chip and not isinstance(event, _SERVICE_EVENTS)
    ]


def wait_until(predicate, timeout=60.0, interval=0.05):
    """Poll until ``predicate()`` is truthy (service-side settling)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met within timeout")


def test_chunk_wire_roundtrip(smoke_archive):
    chunk = next(ReplaySource(smoke_archive, batch=4).chunks())
    packed = pack_chunk(chunk)
    back = unpack_chunk(packed)
    assert back.start == chunk.start
    assert back.fs == chunk.fs
    assert back.scenarios == chunk.scenarios
    assert back.trace_indices == chunk.trace_indices
    assert back.labels == chunk.labels
    assert back.samples.dtype == chunk.samples.dtype
    assert np.array_equal(back.samples, chunk.samples)
    # The framing itself is canonical: repack is byte-exact.
    assert pack_chunk(back) == packed


def _read_frame(data):
    """Decode one wire frame through the server's asyncio reader."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_ws_frame(reader)

    return asyncio.run(read())


#: Payload lengths at and around every length-encoding boundary, plus
#: arbitrary ones up past the 64-bit length form.
_FRAME_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 3, 125, 126, 127, 65535, 65536, 65541]),
    st.integers(0, 70_000),
)


@settings(max_examples=40, deadline=None)
@given(length=_FRAME_LENGTHS, seed=st.integers(0, 2**32 - 1))
def test_masked_ws_frame_roundtrip(length, seed):
    payload = np.random.default_rng(seed).bytes(length)
    frame = ws_frame(payload, mask=True)
    # Masked wire bytes equal a byte-wise XOR against the frame's key.
    header = 2 if length < 126 else 4 if length < 1 << 16 else 10
    key = frame[header : header + 4]
    body = frame[header + 4 :]
    assert frame[1] & 0x80
    assert body == bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    assert _read_frame(frame) == (WS_BINARY, payload)


def test_http_replay_bit_identical_to_offline(smoke_archive, tmp_path):
    log = tmp_path / "events.jsonl"
    with ServiceRunner(
        MonitorService(ServeConfig(events_path=log))
    ) as runner:
        client = runner.client()
        status, report = client.post(
            "/chips/repA/replay?batch=4", smoke_archive.read_bytes()
        )
        assert status == 200
        # The report endpoint serves the same finalized snapshot.
        status, again = client.get("/chips/repA/report")
        assert status == 200
        assert again == report
        status, metrics = client.get("/metrics")
        assert status == 200

    reference, ref_events = offline_reference(smoke_archive, "repA")
    assert report == json.loads(reference.to_json())
    assert report["detected"] is True
    assert chip_events(log, "repA") == ref_events

    assert metrics["n_chips"] == 1
    assert metrics["windows_total"] == ReplaySource(smoke_archive).n_windows
    assert metrics["alarms_total"] >= 1
    assert metrics["sheds_total"] == 0
    assert metrics["overload_active"] is False
    assert metrics["queued_windows"] == 0
    (gauge,) = metrics["chips"]
    assert gauge["chip"] == "repA"
    assert gauge["kind"] == "replay"
    assert gauge["done"] is True
    assert gauge["alarms"] >= 1
    assert gauge["mttd_ms"] == round(report["mttd"]["mttd_s"] * 1e3, 3)


def test_throughput_meter_counts_first_chunk_time():
    """A one-chunk session is rated by that chunk's processing time."""
    meter = ThroughputMeter()
    assert meter.rate() == 0.0
    meter.record(10, start=100.0, now=100.25)
    assert meter.rate() == pytest.approx(40.0)
    # Busy span: earliest start to latest completion, in any order.
    meter.record(30, start=100.5, now=101.0)
    meter.record(10, start=99.75, now=100.0)
    assert meter.total == 50
    assert meter.rate() == pytest.approx(50 / 1.25)


def test_ws_stream_bit_identical_to_offline(smoke_archive, tmp_path):
    log = tmp_path / "events.jsonl"
    source = ReplaySource(smoke_archive, batch=4)
    chunks = list(source.chunks())
    with ServiceRunner(
        MonitorService(ServeConfig(events_path=log))
    ) as runner:
        ws = runner.client().websocket("/chips/wsA/ws")
        ws.send_json(
            {
                "op": "hello",
                "n_streams": source.n_streams,
                "trigger_index": source.trigger_index,
            }
        )
        assert ws.recv_json() == {"op": "hello", "chip": "wsA"}
        for chunk in chunks:
            ws.send(pack_chunk(chunk))
            ack = ws.recv_json()
            assert ack["accepted"] is True
            assert ack["shed_reason"] is None
            assert ack["window_start"] == chunk.start
            assert ack["n_windows"] == chunk.n_windows
        ws.send_json({"op": "metrics"})
        midstream = ws.recv_json()
        assert midstream["op"] == "metrics"
        assert midstream["metrics"]["n_chips"] == 1
        ws.send_json({"op": "end"})
        reply = ws.recv_json()
        assert reply["op"] == "report"
        ws.close()

    reference, ref_events = offline_reference(smoke_archive, "wsA")
    assert reply["report"] == json.loads(reference.to_json())
    assert chip_events(log, "wsA") == ref_events


def test_ws_overload_sheds_and_recovers(smoke_archive, monkeypatch):
    source = ReplaySource(smoke_archive, batch=4)
    chunks = list(source.chunks())
    n_sent = sum(chunk.n_windows for chunk in chunks)
    process_chunk = EscalationPipeline.process_chunk

    def slow_process_chunk(pipeline, chunk):
        time.sleep(0.25)
        process_chunk(pipeline, chunk)

    # The overload drill: analysis slower than the client pushes.
    monkeypatch.setattr(EscalationPipeline, "process_chunk", slow_process_chunk)
    config = ServeConfig(queue_depth=1, high_water_windows=3)
    with ServiceRunner(MonitorService(config)) as runner:
        client = runner.client()
        ws = client.websocket("/chips/load/ws")
        ws.send_json(
            {"op": "hello", "n_streams": source.n_streams}
        )
        ws.recv_json()
        acks = []
        for chunk in chunks:
            ws.send(pack_chunk(chunk))
            acks.append(ws.recv_json())

        # The drill guarantees refused work: every refusal is acked
        # with its reason, nothing stalls silently.
        assert acks[0]["accepted"] is True
        shed = [ack for ack in acks if not ack["accepted"]]
        assert shed
        assert all(
            ack["shed_reason"] in ("overload", "queue-full")
            for ack in shed
        )
        dropped = sum(ack["n_windows"] for ack in shed)

        # Recovery: the backlog drains and overload clears.
        def settled():
            _, metrics = client.get("/metrics")
            done = (
                metrics["queued_windows"] == 0
                and not metrics["overload_active"]
            )
            return metrics if done else None

        metrics = wait_until(settled)
        assert metrics["sheds_total"] == len(shed)
        assert metrics["event_counts"]["Shed"] == len(shed)
        assert metrics["event_counts"]["Backpressure"] == len(shed)
        # Overload was entered and exited — both transitions audited.
        assert metrics["event_counts"].get("Overload", 0) >= 2

        # The client keeps its own numbering; the session rebases
        # past the shed windows, so a fresh chunk is seamless.
        fresh = replace(chunks[0], start=n_sent)
        ws.send(pack_chunk(fresh))
        ack = ws.recv_json()
        assert ack["accepted"] is True
        ws.send_json({"op": "end"})
        report = ws.recv_json()
        assert report["op"] == "report"
        ws.close()

        expected = n_sent - dropped + fresh.n_windows
        assert report["report"]["n_windows"] == expected
        _, listing = client.get("/chips")
        (gauge,) = listing["chips"]
        assert gauge["windows"] == expected
        assert gauge["sheds"] == len(shed)
        assert gauge["dropped_windows"] == dropped
        assert gauge["done"] is True


def test_live_onboarding_detects_and_localizes():
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        status, accepted = client.post(
            "/chips/liveA/live",
            json.dumps({"trojan": "T2"}).encode("utf-8"),
            content_type="application/json",
        )
        assert status == 200
        assert accepted["kind"] == "live"
        assert accepted["trojan"] == "T2"
        assert accepted["windows_scheduled"] == 10
        assert accepted["trigger_index"] == 6

        def finished():
            _, listing = client.get("/chips")
            (gauge,) = listing["chips"]
            return gauge if gauge["done"] else None

        gauge = wait_until(finished, timeout=300.0, interval=0.25)
        assert gauge["windows"] == 10
        status, report = client.get("/chips/liveA/report")
        assert status == 200
        assert report["detected"] is True
        assert report["identification"]["label"] == "T2"
        # A live source can re-measure, so escalation reaches LOCALIZE.
        assert report["localization"] is not None


def test_http_error_paths(smoke_archive):
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        status, body = client.get("/healthz")
        assert status == 200
        assert body["ok"] is True

        status, body = client.get("/chips/nope/report")
        assert status == 404
        assert "unknown chip" in body["error"]

        status, body = client.get("/no/such/route")
        assert status == 404

        status, body = client.post("/chips/bad$id/replay", b"x")
        assert status == 400
        assert "invalid chip id" in body["error"]

        status, body = client.post("/chips/empty/replay", b"")
        assert status == 400
        assert "archive body" in body["error"]

        status, body = client.post("/chips/garbage/replay", b"not an npz")
        assert status == 400
        assert "not a readable trace archive" in body["error"]

        payload = smoke_archive.read_bytes()
        status, body = client.post("/chips/a/replay?batch=abc", payload)
        assert status == 400
        assert "'batch' must be an integer" in body["error"]

        for bad, message in (
            (b"{not json", "not valid JSON"),
            (b"[1,2]", "must be a JSON object"),
            (b'{"seed": "abc"}', "'seed' must be an integer"),
            (b'{"trojan": "baseline"}', "unknown implanted Trojan"),
        ):
            status, body = client.post("/chips/b/live", bad)
            assert status == 400, bad
            assert message in body["error"]

        status, _ = client.post("/chips/dup/replay?batch=4", payload)
        assert status == 200
        status, body = client.post("/chips/dup/replay?batch=4", payload)
        assert status == 409
        assert "already onboarded" in body["error"]
        # The rejected uploads onboarded nothing.
        status, body = client.get("/chips")
        assert [chip["chip"] for chip in body["chips"]] == ["dup"]


def test_replay_uploads_write_nothing_to_disk(smoke_archive, monkeypatch):
    """A replay upload is decoded from its request body, not a file."""
    payload = smoke_archive.read_bytes()
    writes = []
    real_open, real_os_open = io.open, os.open

    def guarded_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            writes.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    def guarded_os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            writes.append(str(path))
        return real_os_open(path, flags, *args, **kwargs)

    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", guarded_open)
            patch.setattr(io, "open", guarded_open)
            patch.setattr(os, "open", guarded_os_open)
            status, _ = client.post("/chips/kept/replay?batch=4", payload)
            assert status == 200
            status, _ = client.post("/chips/junk/replay", b"not an npz")
            assert status == 400
    assert writes == []


def _archive_with(smoke_archive, mutate):
    """The smoke archive's bytes rebuilt member by member.

    ``mutate(name, raw)`` returns a member's new bytes, or None to
    leave the member out; the archive stays stored, with fresh CRCs.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(smoke_archive) as source, zipfile.ZipFile(
        buffer, "w"
    ) as target:
        for name in source.namelist():
            raw = mutate(name, source.read(name))
            if raw is not None:
                target.writestr(name, raw)
    return buffer.getvalue()


def _infinite_trace_index(name, raw):
    """:func:`_archive_with` mutator: the first trace_index is Infinity."""
    if name != "__header__.npy":
        return raw
    header = json.loads(np.load(io.BytesIO(raw)).tobytes())
    header["traces"][0]["meta"]["trace_index"] = float("inf")
    member = io.BytesIO()
    np.save(member, np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8))
    return member.getvalue()


def test_failed_replay_leaves_no_session(smoke_archive, strict_damage):
    """Decode failures past onboarding are 400s that free the chip id."""
    payload = smoke_archive.read_bytes()
    # A flipped sample byte fails its member's CRC mid-stream.
    middle = len(payload) // 2
    flipped = payload[:middle] + bytes([payload[middle] ^ 0x10]) + payload[middle + 1 :]
    header_only = _archive_with(
        smoke_archive,
        lambda name, raw: raw if name == "__header__.npy" else None,
    )
    with zipfile.ZipFile(smoke_archive) as archive:
        last = max(archive.namelist())
    missing_last = _archive_with(
        smoke_archive, lambda name, raw: None if name == last else raw
    )
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        for body, message in (
            (flipped, "Bad CRC-32"),
            (header_only, "no item named"),
            (missing_last, "no item named"),
            *((damage(payload), "") for damage in strict_damage.values()),
        ):
            status, reply = client.post("/chips/retry/replay?batch=4", body)
            assert status == 400, reply
            assert "not a readable trace archive" in reply["error"]
            assert message in reply["error"]
            status, body = client.get("/chips")
            assert body["chips"] == []
        # A header that json reads but ReplaySource cannot (json
        # parses Infinity, which int() overflows on) is refused too.
        status, reply = client.post(
            "/chips/retry/replay?batch=4",
            _archive_with(smoke_archive, _infinite_trace_index),
        )
        assert status == 400, reply
        assert "malformed trace_index" in reply["error"]
        status, body = client.get("/chips")
        assert body["chips"] == []
        status, metrics = client.get("/metrics")
        assert metrics["queued_windows"] == 0
        assert metrics["overload_active"] is False
        # The id is free again: a good archive onboards under it.
        status, report = client.post("/chips/retry/replay?batch=4", payload)
        assert status == 200
        assert report["detected"] is True


def test_multi_stream_replay_fills_contiguous_chunks(tmp_path):
    """A 4-stream archive replays without a stack copy, served bit for bit."""
    spec = replace(
        PRESET.specs(1)[0], sensors=(8, 9, 10, 11), n_baseline=10, n_active=6
    )
    monitor = build_chip_monitor(spec, pipeline_config=PRESET.pipeline_config())
    path = record_stream(monitor.source, tmp_path / "four.npz")
    source = ReplaySource(path, batch=16)
    assert (source.n_streams, source.n_windows) == (4, 16)
    (chunk,) = source.chunks()
    assert chunk.samples.flags.c_contiguous
    flat = chunk.samples.reshape(-1, chunk.samples.shape[-1])
    assert np.shares_memory(flat, chunk.samples)
    traces = load_traces(path)
    for window in range(16):
        for stream in range(4):
            assert np.array_equal(
                chunk.samples[stream, window], traces[4 * window + stream].samples
            )
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        status, report = runner.client().post(
            "/chips/four/replay?batch=4", path.read_bytes()
        )
    assert status == 200
    reference, _ = offline_reference(path, "four")
    assert report == json.loads(reference.to_json())


def test_concurrent_replay_decodes(tmp_path):
    """Eight threads decoding recorded soak archives at once all succeed.

    A smoke check: the header-parser race it guards against never
    reproduced on demand, so it passing proves little on its own.
    """
    preset = build_preset("soak")
    bodies = []
    for spec in preset.specs(2):
        spec = replace(spec, sensors=(DEFAULT_MONITOR_SENSOR,))
        monitor = build_chip_monitor(spec, pipeline_config=preset.pipeline_config())
        path = record_stream(monitor.source, tmp_path / f"{spec.trojan}.npz")
        bodies.append(path.read_bytes())
    expected = [
        [chunk.samples for chunk in ReplaySource("x.npz", data=body).chunks()]
        for body in bodies
    ]

    def decode(worker):
        for body, reference in itertools.islice(
            itertools.cycle(zip(bodies, expected)), worker, worker + 6
        ):
            chunks = ReplaySource(f"w{worker}.npz", data=body).chunks()
            for chunk, samples in zip(chunks, reference, strict=True):
                assert chunk.samples.tobytes() == samples.tobytes()

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(decode, range(8)))


def test_compressed_archive_replays_like_stored(smoke_archive, tmp_path):
    """Archives written compressed (before stored archives) still replay."""
    legacy = tmp_path / "legacy.npz"
    with np.load(smoke_archive) as stored:
        np.savez_compressed(legacy, **{name: stored[name] for name in stored.files})
    with zipfile.ZipFile(legacy) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_DEFLATED
        }
    for old, new in zip(
        ReplaySource(legacy, batch=4).chunks(),
        ReplaySource(smoke_archive, batch=4).chunks(),
        strict=True,
    ):
        assert old.samples.dtype == new.samples.dtype
        assert np.array_equal(old.samples, new.samples)
        assert (old.start, old.fs, old.labels) == (new.start, new.fs, new.labels)
        assert (old.scenarios, old.trace_indices) == (new.scenarios, new.trace_indices)
    legacy_report, legacy_events = offline_reference(legacy, "chip")
    stored_report, stored_events = offline_reference(smoke_archive, "chip")
    assert legacy_report.to_json() == stored_report.to_json()
    assert legacy_events == stored_events


def _flipped(payload, flips):
    body = bytearray(payload)
    for position, bit in flips:
        body[position] ^= 1 << bit
    return bytes(body)


def _damaged_uploads(payload):
    """Truncations, bit flips and arbitrary bytes around one archive."""
    n = len(payload)
    # Flips land anywhere, or in the tail that holds the zip's central
    # directory (elsewhere they mostly hit sample data and its CRC).
    position = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 16384), n - 1))
    return st.one_of(
        st.integers(0, n - 1).map(lambda cut: payload[:cut]),
        st.lists(st.tuples(position, st.integers(0, 7)), min_size=1, max_size=4).map(
            partial(_flipped, payload)
        ),
        st.binary(max_size=512),
        st.binary(max_size=512).map(lambda tail: b"PK\x03\x04" + tail),
    )


def test_replay_decode_fuzz_never_500(smoke_archive):
    """Damaged uploads answer 400 and leave nothing onboarded."""
    payload = smoke_archive.read_bytes()
    ids = itertools.count()
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()

        @settings(max_examples=60, deadline=None)
        @given(body=_damaged_uploads(payload))
        def check(body):
            chip = f"fuzz{next(ids)}"
            status, reply = client.post(f"/chips/{chip}/replay?batch=8", body)
            assert status in (200, 400), reply
            _, listing = client.get("/chips")
            listed = {gauge["chip"] for gauge in listing["chips"]}
            assert (chip in listed) == (status == 200)

        check()
        status, health = client.get("/healthz")
        assert status == 200
        assert health["ok"] is True


def test_ws_bad_text_frames_get_error_replies(smoke_archive):
    """Malformed client frames are answered; the socket stays open."""
    source = ReplaySource(smoke_archive, batch=4)
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        ws = runner.client().websocket("/chips/wsBad/ws")
        for frame, message in (
            (b"{bad", "not valid JSON"),
            (b"[1]", "must be a JSON object"),
            (b'{"op":"hello","n_streams":"x"}', "'n_streams' must be an integer"),
        ):
            ws.send(frame, opcode=WS_TEXT)
            reply = ws.recv_json()
            assert reply["op"] == "error", frame
            assert message in reply["error"]
        # The same socket still opens a session and streams.
        ws.send_json({"op": "hello", "n_streams": source.n_streams})
        assert ws.recv_json() == {"op": "hello", "chip": "wsBad"}
        chunk = next(iter(source.chunks()))
        ws.send(pack_chunk(chunk))
        assert ws.recv_json()["accepted"] is True
        ws.close()


def _ws_hello(client, chip, n_streams=1):
    ws = client.websocket(f"/chips/{chip}/ws")
    ws.send_json({"op": "hello", "n_streams": n_streams})
    return ws, ws.recv_json()


def _read_to_eof(sock):
    """Everything the server sends until it closes the socket.

    A reset counts as a close; a timeout fails the caller.
    """
    raw = b""
    try:
        while block := sock.recv(65536):
            raw += block
    except ConnectionResetError:
        pass
    return raw


def _ws_end_by_eof(ws):
    ws._file.close()
    ws._sock.close()


def _ws_end_by_framing_error(ws):
    # A fragment (FIN bit clear) is a framing error the server refuses.
    ws._sock.sendall(b"\x02\x80" + bytes(4))
    _read_to_eof(ws._sock)
    _ws_end_by_eof(ws)


@pytest.mark.parametrize(
    "end_socket",
    [WsConnection.close, _ws_end_by_eof, _ws_end_by_framing_error],
    ids=["close-frame", "eof", "framing-error"],
)
def test_ws_dropped_socket_frees_its_chip(smoke_archive, end_socket):
    """A socket that ends after hello but before end drops its session."""
    chunk = next(ReplaySource(smoke_archive, batch=4).chunks())
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        ws, reply = _ws_hello(client, "gone", chunk.n_streams)
        assert reply == {"op": "hello", "chip": "gone"}
        ws.send(pack_chunk(chunk))
        assert ws.recv_json()["accepted"] is True
        end_socket(ws)

        def freed():
            _, metrics = client.get("/metrics")
            return metrics["chips"] == [] and metrics["queued_windows"] == 0

        wait_until(freed, timeout=30.0)
        status, listing = client.get("/chips")
        assert (status, listing) == (200, {"chips": []})
        ws, reply = _ws_hello(client, "gone")
        assert reply == {"op": "hello", "chip": "gone"}
        ws.close()


def _repacked(packed, samples=None, **fields):
    """``packed`` with header ``fields`` replaced (and, optionally, its samples)."""
    (size,) = struct.unpack(">I", packed[4:8])
    header = {**json.loads(packed[8 : 8 + size]), **fields}
    blob = json.dumps(header).encode("utf-8")
    body = packed[8 + size :] if samples is None else samples
    return CHUNK_MAGIC + struct.pack(">I", len(blob)) + blob + body


def test_ws_unusable_chunk_answers_error(smoke_archive):
    """A pushed chunk without a usable fs or samples is refused with a
    typed error; the session goes on and takes the next good chunk."""
    chunk = next(ReplaySource(smoke_archive, batch=4).chunks())
    packed = pack_chunk(chunk)
    empty_shape = [chunk.n_streams, chunk.n_windows, 0]
    bad = [
        _repacked(packed, fs=0.0),
        _repacked(packed, fs=-528e6),
        _repacked(packed, fs=float("nan")),
        _repacked(packed, samples=b"", shape=empty_shape),
    ]
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        ws, reply = _ws_hello(client, "badchunk", chunk.n_streams)
        assert reply == {"op": "hello", "chip": "badchunk"}
        for payload in bad:
            ws.send(payload)
            answer = ws.recv_json()
            assert answer["op"] == "error"
            assert "StreamChunk" in answer["error"]
        ws.send(packed)
        assert ws.recv_json()["accepted"] is True
        ws.send_json({"op": "end"})
        reply = ws.recv_json()
        assert reply["op"] == "report"
        assert reply["report"]["n_windows"] == chunk.n_windows
        ws.close()


def test_drained_sessions_pin_no_chunk(smoke_archive, monkeypatch):
    """Finished uploads keep none of the chunks they were decoded into."""
    payload = smoke_archive.read_bytes()
    yielded = []
    chunks = ReplaySource.chunks

    def tracked_chunks(source):
        for chunk in chunks(source):
            yielded.append(weakref.ref(chunk))
            yield chunk

    monkeypatch.setattr(ReplaySource, "chunks", tracked_chunks)
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        for index in range(3):
            status, _ = client.post(f"/chips/pin{index}/replay?batch=4", payload)
            assert status == 200
        gc.collect()
        alive = sum(ref() is not None for ref in yielded)
    assert len(yielded) == 3 * 3
    assert alive == 0


#: Request targets for the framing fuzz: every route except
#: ``/shutdown`` and live onboarding (a valid body starts a render).
_FUZZ_TARGETS = st.sampled_from(
    [
        "/healthz",
        "/metrics",
        "/chips",
        "/chips/fuzzhttp/report",
        "/chips/fuzzhttp/replay",
        "/chips/fuzzhttp/replay?batch=-1",
        "/chips/fuzzhttp/replay?batch=0",
        "/chips/fuzz$bad/replay",
        "/chips/fuzzhttp/ws",
        "/chips/fuzzhttp",
        "http://[::1/",
        "*",
    ]
)

_FUZZ_HEADERS = st.sampled_from(
    ["Host", "Connection", "Upgrade", "Sec-WebSocket-Key", "Content-Type", "X-Junk"]
)


def _http_bytes(line, headers, length, body, cut):
    lines = [line, *headers]
    if length is not None:
        lines.append(f"Content-Length: {length}".encode("utf-8"))
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    return raw if cut is None else raw[:cut]


_HTTP_REQUESTS = st.builds(
    _http_bytes,
    st.one_of(
        st.tuples(
            st.sampled_from(["GET", "POST", "PUT", "get", ""]),
            _FUZZ_TARGETS,
            st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]),
        ).map(lambda parts: " ".join(parts).encode("utf-8")),
        st.binary(max_size=80),
    ),
    st.lists(
        st.one_of(
            st.tuples(_FUZZ_HEADERS, st.text(max_size=24)).map(
                lambda pair: f"{pair[0]}: {pair[1]}".encode("utf-8")
            ),
            st.binary(max_size=48),
        ),
        max_size=4,
    ),
    st.one_of(
        st.none(),
        st.integers(-5, 1 << 40).map(str),
        st.integers(0, 400).map(str),
        st.text(max_size=6),
    ),
    st.binary(max_size=300),
    st.one_of(st.none(), st.integers(0, 400)),
)


def _statuses(raw):
    """The status of every HTTP response in ``raw``, in order."""
    statuses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        match = re.match(rb"HTTP/1\.1 (\d{3}) ", head)
        assert match, raw[:200]
        statuses.append(int(match.group(1)))
        if statuses[-1] == 101:  # websocket frames follow
            break
        length = re.search(rb"Content-Length: (\d+)", head)
        raw = rest[int(length.group(1)) :]
    return statuses


def _send_and_close(port, raw, timeout=10.0):
    """Send ``raw``, half-close, and return what the server answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server may close first
            pass
        return _read_to_eof(sock)


def _assert_nothing_leaked(client, prefix):
    status, health = client.get("/healthz")
    assert (status, health["ok"]) == (200, True)
    _, listing = client.get("/chips")
    assert [g["chip"] for g in listing["chips"] if g["chip"].startswith(prefix)] == []
    _, metrics = client.get("/metrics")
    assert metrics["queued_windows"] == 0


def test_http_framing_fuzz_never_500():
    """Arbitrary or truncated requests get a status below 500, or a close."""
    with ServiceRunner(MonitorService(ServeConfig())) as runner:

        @settings(max_examples=80, deadline=None)
        @given(raw=_HTTP_REQUESTS)
        def check(raw):
            statuses = _statuses(_send_and_close(runner.port, raw))
            assert all(status < 500 for status in statuses), (raw, statuses)

        check()
        # A header line past the stream reader's 64 KiB limit is a 400.
        long_header = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n"
        assert _statuses(_send_and_close(runner.port, long_header)) == [400]
        _assert_nothing_leaked(runner.client(), "fuzz")


def _json_values():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(1 << 70), 1 << 70),
        st.floats(),
        st.text(max_size=6),
        st.lists(st.integers(-2, 40), max_size=4),
    )


def _mutated_chunk(packed):
    """``packed`` with one header field set to an arbitrary JSON value."""
    (size,) = struct.unpack(">I", packed[4:8])
    header = json.loads(packed[8 : 8 + size])

    def mutate(key, value):
        return _repacked(packed, **{key: value})

    return st.builds(mutate, st.sampled_from(sorted(header)), _json_values())


@st.composite
def _ws_frame_bytes(draw, payloads):
    """One client frame with arbitrary flags, opcode, length and mask."""
    payload = draw(payloads)
    key = draw(st.one_of(st.none(), st.binary(min_size=4, max_size=4)))
    declared = draw(
        st.one_of(st.just(len(payload)), st.integers(0, 300), st.integers(0, 2**64 - 1))
    )
    code = 127 if declared >= 1 << 16 else 126 if declared >= 126 else declared
    head = bytes([draw(st.integers(0, 255)), (0x80 if key else 0) | code])
    if code == 126:
        head += struct.pack(">H", declared)
    elif code == 127:
        head += struct.pack(">Q", declared)
    if key:
        head += key
        tiled = np.resize(np.frombuffer(key, np.uint8), len(payload))
        payload = (np.frombuffer(payload, np.uint8) ^ tiled).tobytes()
    frame = head + payload
    return frame[: draw(st.integers(0, len(frame)))] if draw(st.booleans()) else frame


def test_ws_framing_fuzz_frees_session(smoke_archive):
    """Bad frames after a valid hello end in a reply or a close, never a leak."""
    # One window of one stream keeps the packed chunk small.
    chunk = next(ReplaySource(smoke_archive, batch=1).chunks())
    chunk = replace(chunk, samples=chunk.samples[:1], labels=chunk.labels[:1])
    packed = pack_chunk(chunk)
    payloads = st.one_of(
        st.binary(max_size=200),
        st.just(packed),
        st.binary(max_size=200).map(lambda tail: CHUNK_MAGIC + tail),
        _mutated_chunk(packed),
    )
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client(timeout=10.0)

        @settings(max_examples=60, deadline=None)
        @given(frames=st.lists(_ws_frame_bytes(payloads), min_size=1, max_size=3))
        def check(frames):
            # The id is reused: a hello succeeds only if the last
            # example's session was dropped with its socket.
            ws, reply = _ws_hello(client, "fuzzws", chunk.n_streams)
            assert reply == {"op": "hello", "chip": "fuzzws"}
            try:
                ws._sock.sendall(b"".join(frames))
                ws._sock.shutdown(socket.SHUT_WR)
            except OSError:  # the server may close first
                pass
            _read_to_eof(ws._sock)
            _ws_end_by_eof(ws)

        check()
        # RFC 6455 section 5: a server fails the connection on an
        # unmasked client frame, a reserved opcode or a set RSV bit.
        text = b'{"op": "metrics"}'
        for frame in (
            ws_frame(text, opcode=WS_TEXT, mask=False),
            ws_frame(text, opcode=0x3, mask=True),
            ws_frame(text, opcode=0xB, mask=True),
            bytes([ws_frame(text, opcode=WS_TEXT, mask=True)[0] | 0x40])
            + ws_frame(text, opcode=WS_TEXT, mask=True)[1:],
        ):
            ws, reply = _ws_hello(client, "fuzzws", chunk.n_streams)
            assert reply == {"op": "hello", "chip": "fuzzws"}
            ws._sock.sendall(frame)
            assert _read_to_eof(ws._sock) == b""
            _ws_end_by_eof(ws)
        # A header split across TCP segments is still one frame.
        ws, reply = _ws_hello(client, "fuzzws", chunk.n_streams)
        frame = ws_frame(text, opcode=WS_TEXT, mask=True)
        ws._sock.sendall(frame[:1])
        time.sleep(0.2)
        ws._sock.sendall(frame[1:])
        assert ws.recv_json()["op"] == "metrics"
        ws.close()
        _assert_nothing_leaked(client, "fuzz")

def test_onboarding_past_max_chips_is_503(smoke_archive):
    """The chip bound is a capacity refusal (503), not a bad request."""
    payload = smoke_archive.read_bytes()
    with ServiceRunner(MonitorService(ServeConfig(max_chips=1))) as runner:
        client = runner.client()
        # A socket before ``end`` holds the only slot.
        ws, reply = _ws_hello(client, "first")
        assert reply == {"op": "hello", "chip": "first"}
        status, body = client.post("/chips/second/replay?batch=4", payload)
        assert status == 503
        assert "1-chip bound" in body["error"]
        status, body = client.post("/chips/first/replay?batch=4", payload)
        assert status == 409
        ws.send_json({"op": "end"})
        assert ws.recv_json()["op"] == "report"
        status, _ = client.post("/chips/second/replay?batch=4", payload)
        assert status == 200
        ws.close()


def test_finished_sessions_free_their_slot(smoke_archive, monkeypatch):
    """Finished uploads keep their reports but not their slots, pipelines
    or consumer tasks."""
    payload = smoke_archive.read_bytes()
    pipelines = []
    init = EscalationPipeline.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pipelines.append(weakref.ref(self))

    monkeypatch.setattr(EscalationPipeline, "__init__", tracked_init)
    service = MonitorService(ServeConfig(max_chips=1))
    with ServiceRunner(service) as runner:
        client = runner.client()
        reports = {}
        for chip in ("done0", "done1", "done2"):
            status, reports[chip] = client.post(f"/chips/{chip}/replay?batch=4", payload)
            assert status == 200
        for chip, report in reports.items():
            assert client.get(f"/chips/{chip}/report") == (200, report)
        status, listing = client.get("/chips")
        assert [(g["chip"], g["done"]) for g in listing["chips"]] == [
            (chip, True) for chip in reports
        ]
        assert all(g["alarms"] >= 1 for g in listing["chips"])
        sessions = list(service.sessions.values())
        assert service.active_chips == 0
        assert all(s.pipeline is None and s.consumer is None for s in sessions)
        gc.collect()
        assert len(pipelines) == 3
        assert all(ref() is None for ref in pipelines)
        status, body = client.post("/chips/done1/replay?batch=4", payload)
        assert status == 409


def test_ended_ws_session_refuses_chunks(smoke_archive):
    chunk = next(ReplaySource(smoke_archive, batch=4).chunks())
    with ServiceRunner(MonitorService(ServeConfig())) as runner:
        client = runner.client()
        ws, _ = _ws_hello(client, "ended", chunk.n_streams)
        ws.send(pack_chunk(chunk))
        assert ws.recv_json()["accepted"] is True
        ws.send_json({"op": "end"})
        first = ws.recv_json()
        assert first["op"] == "report"
        ws.send(pack_chunk(chunk))
        reply = ws.recv_json()
        assert reply["op"] == "error" and "has ended" in reply["error"]
        ws.send_json({"op": "end"})
        assert ws.recv_json() == first
        ws.close()
        _, metrics = client.get("/metrics")
        assert metrics["render_threads"] >= 1
        (gauge,) = metrics["chips"]
        assert gauge["done"] is True and gauge["windows"] == chunk.n_windows

def test_serve_selftest_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["serve", "--selftest", "--no-store"])
    out = capsys.readouterr().out
    assert code == 0
    assert "serve selftest: OK" in out
