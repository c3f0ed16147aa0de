"""The fleet-scale streaming monitoring service (``repro serve``).

One long-running process watches many chip streams concurrently:

* an **asyncio front-end** (stdlib TCP + the :mod:`.protocol` HTTP/
  WebSocket codec) accepts replay-archive uploads, live onboarding
  requests and chunk-streaming sockets;
* each onboarded chip, whatever its ingress, gets one
  :class:`ChipSession` — its own
  :class:`~repro.runtime.pipeline.EscalationPipeline` behind a
  **bounded** chunk queue, drained by a shared analysis thread pool
  (feature extraction releases the GIL in NumPy's FFT, so sessions
  genuinely overlap);
* the session owns its chip's ingress policy, **flow-controlled or
  shed, never unbounded**: replay uploads and live renders
  (:meth:`ChipSession.feed`) wait at the queue bound, WebSocket
  pushes (:meth:`ChipSession.offer`) are dropped past it (or past the
  service-wide high-water mark of :mod:`.shedding`) with the typed
  :class:`~repro.runtime.events.Backpressure` /
  :class:`~repro.runtime.events.Shed` /
  :class:`~repro.runtime.events.Overload` contract;
* a finished session keeps only its report and final gauge: its
  pipeline and consumer task go, and it no longer counts against
  :attr:`ServeConfig.max_chips`;
* a replay or live session whose stream fails (a damaged archive, a
  rejected chunk), or a WebSocket session whose socket closes before
  ``end``, is dropped, so its chip id can onboard again;
* ``GET /metrics`` and ``GET /chips/<id>/report`` render through the
  shared :mod:`repro.report` surface — the service adds transport,
  not another formatter.

Determinism: a chip session never alters the chunks it admits, so a
clean (unshed) streamed session is **bit-identical** —
same report, same event transcript — to running the offline
pipeline over the same archive, which ``tests/test_serve.py`` pins.

Endpoints
---------
==========  =========================  =====================================
``GET``     ``/healthz``               liveness + uptime
``GET``     ``/metrics``               :class:`~repro.serve.metrics.MetricsSnapshot`
``GET``     ``/chips``                 per-chip gauges
``GET``     ``/chips/<id>/report``     the chip's (interim) MonitorReport
``POST``    ``/chips/<id>/replay``     upload a ``.npz`` archive, stream it
``POST``    ``/chips/<id>/live``       onboard a server-rendered live chip
``WS``      ``/chips/<id>/ws``         push packed chunks, pull acks/report
``POST``    ``/shutdown``              graceful stop (headless deployments)
==========  =========================  =====================================
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from .. import parallel
from ..config import SimConfig
from ..errors import AnalysisError, ReproError
from ..runtime import (
    Backpressure,
    EscalationPipeline,
    EventBus,
    JsonlSink,
    MonitorReport,
    ReplaySource,
    Shed,
    StreamChunk,
    build_chip_monitor,
    build_preset,
)
from ..runtime.sources import DEFAULT_CHUNK_WINDOWS
from ..store import ArtifactStore
from .metrics import ChipGauge, MetricsSnapshot, ThroughputMeter
from .protocol import (
    WS_BINARY,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    HttpRequest,
    ProtocolError,
    json_response,
    read_request,
    read_ws_frame,
    unpack_chunk,
    websocket_handshake_bytes,
    ws_frame,
)
from .shedding import OverloadGuard

logger = logging.getLogger(__name__)

#: Chip ids are URL path segments and name their sessions' sources.
_CHIP_ID = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _json_object(payload: bytes, what: str) -> dict:
    """Decode a client's JSON object (an empty payload is ``{}``).

    Malformed input raises :class:`AnalysisError`, which the HTTP
    dispatcher answers with a 400 and the WebSocket loop with an
    ``{"op": "error"}`` frame.
    """
    try:
        value = json.loads(payload.decode("utf-8") or "{}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise AnalysisError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise AnalysisError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _int_field(fields: dict, key: str, default: Optional[int]) -> Optional[int]:
    """``fields[key]`` as an int (``default`` when absent, None stays None)."""
    value = fields.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise AnalysisError(
            f"{key!r} must be an integer, got {value!r}"
        ) from None


class DuplicateChipError(AnalysisError):
    """Onboarding a chip id that already has a session."""

    status = 409


class ChipLimitError(AnalysisError):
    """Onboarding past :attr:`ServeConfig.max_chips`."""

    status = 503


@dataclass(frozen=True)
class ServeConfig:
    """Tuning of one monitoring service instance.

    Attributes
    ----------
    host, port:
        Bind address (port 0 picks a free port; the bound port is on
        :attr:`MonitorService.port` after start).
    preset:
        Named :class:`~repro.runtime.presets.MonitorPreset` providing
        pipeline tuning (warm-up, chunking) for onboarded chips.
    detector:
        Detection method override (None keeps the preset's).
    queue_depth:
        Bounded chunk queue per chip session: replay uploads and live
        renders wait at it, WebSocket pushes are shed past it.
    high_water_windows:
        Service-wide queued-window bound; past it, pushed work is
        shed until the backlog drains below half the mark.
    analysis_workers:
        Threads in the shared analysis pool.
    max_chips:
        Bound on unfinished sessions (503 past it).  A finished
        session frees its slot and keeps its id and report; one that
        ends unfinished (a failed upload, a socket closed before
        ``end``) frees its id and its slot.
    events_path:
        JSONL audit log of every event the service emits (None
        disables the sink).
    """

    host: str = "127.0.0.1"
    port: int = 0
    preset: str = "smoke"
    detector: Optional[str] = None
    queue_depth: int = 4
    high_water_windows: int = 256
    analysis_workers: int = 4
    max_chips: int = 1024
    events_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise AnalysisError("queue_depth must be >= 1")
        if self.high_water_windows < 1:
            raise AnalysisError("high_water_windows must be >= 1")
        if self.analysis_workers < 1:
            raise AnalysisError("analysis_workers must be >= 1")
        if self.max_chips < 1:
            raise AnalysisError("max_chips must be >= 1")
        build_preset(self.preset)


class _LockedBus(EventBus):
    """An :class:`EventBus` safe for multi-threaded emission.

    Analysis workers emit from pool threads while the event loop
    emits shed/overload events; one lock keeps counts and sink
    writes coherent and transcripts serialized.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()

    def emit(self, event) -> None:
        with self._lock:
            super().emit(event)


class ChipSession:
    """One chip's server-side monitoring session.

    An :class:`~repro.runtime.pipeline.EscalationPipeline` behind a
    bounded ``asyncio.Queue``, drained by one consumer task that hands
    chunks to the service's analysis pool.  The session owns the chip's
    ingress policy: :meth:`feed` waits at the queue bound, :meth:`offer`
    sheds past it, :meth:`drain` finalizes and retires the session to
    its report and final gauge.  Queue-side state lives on
    the event loop thread; pipeline state is touched only under
    :attr:`_plock` from pool threads, and a live chip's pool work also
    holds the service's render lock (it renders through the engine).
    """

    def __init__(
        self,
        service: "MonitorService",
        chip_id: str,
        kind: str,
        n_streams: int,
        trigger_index: Optional[int] = None,
        pipeline: Optional[EscalationPipeline] = None,
    ):
        self.service = service
        self.chip_id = chip_id
        self.kind = kind
        self.trigger_index = trigger_index
        self.pipeline = pipeline or EscalationPipeline(
            service.sim_config,
            n_streams=n_streams,
            pipeline=service.tuning,
            localizer=None,
            bus=service.bus,
            chip=chip_id,
        )
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=service.config.queue_depth)
        self.windows = 0
        self.queued_windows = 0
        self.sheds = 0
        self.dropped_windows = 0
        self.done = asyncio.Event()
        self.report: Optional[MonitorReport] = None
        self.final_gauge: Optional[ChipGauge] = None
        self.error: Optional[str] = None
        self._plock = threading.Lock()
        self._render = service.render_lock if kind == "live" else nullcontext()
        self.consumer = asyncio.create_task(self._consume())

    # -- ingress (event loop thread) --------------------------------------

    def _rebased(self, chunk):
        """Shift a chunk's start down by the windows shed before it."""
        if not self.dropped_windows:
            return chunk
        return replace(chunk, start=chunk.start - self.dropped_windows)

    def _enqueued(self, chunk) -> None:
        self.queued_windows += chunk.n_windows
        self.service.guard.note_enqueued(chunk.n_windows, self.service.uptime())

    def offer(self, chunk) -> Tuple[bool, Optional[str]]:
        """Fire-and-forget ingress (WebSocket push): admit or shed.

        A chunk is shed while the service is overloaded or this
        chip's queue is full; the shed is announced with the typed
        ``Backpressure(action="shed")`` + ``Shed`` pair.
        """
        if self.done.is_set():
            raise AnalysisError(f"chip {self.chip_id} session has ended")
        depth = self.service.config.queue_depth
        queue_len = self.queue.qsize()
        if self.service.guard.active:
            reason = "overload"
        elif queue_len >= depth:
            reason = "queue-full"
        else:
            chunk = self._rebased(chunk)
            self.queue.put_nowait(chunk)
            self._enqueued(chunk)
            return True, None
        self.sheds += 1
        self.dropped_windows += chunk.n_windows
        time_s = self.service.uptime()
        self.service.bus.emit(
            Backpressure(
                chip=self.chip_id,
                window=chunk.start,
                time_s=time_s,
                queue_depth=depth,
                queue_len=queue_len,
                action="shed",
            )
        )
        self.service.bus.emit(
            Shed(
                chip=self.chip_id,
                window=chunk.start,
                time_s=time_s,
                n_windows=chunk.n_windows,
                reason=reason,
            )
        )
        return False, reason

    async def feed(self, chunks: Iterable[StreamChunk]) -> MonitorReport:
        """Flow-controlled ingress (replay upload, live render).

        Pulls each chunk in the analysis pool, waits at the queue
        bound, then drains.  A stream that fails (an archive damaged
        past its header, a rejected chunk) drops the session, so the
        chip id is free again.
        """
        loop = asyncio.get_running_loop()
        iterator = iter(chunks)
        try:
            while True:
                chunk = await loop.run_in_executor(self.service.executor, self._pull, iterator)
                if chunk is None:
                    return await self.drain()
                chunk = self._rebased(chunk)
                await self.queue.put(chunk)
                self._enqueued(chunk)
        except ReproError:
            await self.service._drop_session(self.chip_id)
            raise

    async def drain(self, trigger_index: Optional[int] = None) -> MonitorReport:
        """Finalize: wait out everything queued, snapshot the report.

        The session then retires: it keeps its report and final gauge,
        drops its pipeline and consumer task, and frees its slot under
        the chip bound (its id stays taken, so the report stays
        readable).
        """
        if not self.done.is_set():
            if trigger_index is not None:
                self.trigger_index = trigger_index
            await self.queue.join()
            loop = asyncio.get_running_loop()
            self.report = await loop.run_in_executor(
                self.service.executor, self.snapshot_report
            )
            self.done.set()
            self.service.active_chips -= 1
            self.final_gauge = self.gauge()
            await self.close()
            self.pipeline = None
        if self.error is not None:
            raise AnalysisError(f"chip {self.chip_id} session failed: {self.error}")
        return self.report

    # -- analysis (consumer task + pool threads) --------------------------

    def _pull(self, iterator):
        """The stream's next chunk, None at its end (pool thread)."""
        with self._render:
            return next(iterator, None)

    def _process(self, chunk) -> None:
        """Run one chunk through the pipeline (pool thread)."""
        with self._render, self._plock:
            self.pipeline.process_chunk(chunk)

    def snapshot_report(self) -> MonitorReport:
        """The session report so far (safe against in-flight chunks).

        A read queued before the session retired gets the final report.
        """
        with self._plock:
            # One read: ``drain`` clears the field on the event loop.
            pipeline = self.pipeline
            if pipeline is None:
                return self.report
            return pipeline.report(trigger_index=self.trigger_index)

    def _dequeued(self, chunk) -> None:
        self.queued_windows -= chunk.n_windows
        self.service.guard.note_dequeued(chunk.n_windows, self.service.uptime())

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            chunk = await self.queue.get()
            start = time.monotonic()
            try:
                await loop.run_in_executor(self.service.executor, self._process, chunk)
                self.windows += chunk.n_windows
                self.service.meter.record(chunk.n_windows, start)
            except Exception as exc:  # a bad chunk fails its session, not the consumer
                self.error = str(exc)
                bug = not isinstance(exc, ReproError)
                logger.warning("chip %s: chunk rejected: %s", self.chip_id, exc, exc_info=bug)
            finally:
                self._dequeued(chunk)
                # A parked consumer must not pin its last chunk.
                del chunk
                self.queue.task_done()

    def gauge(self) -> ChipGauge:
        """This session's ``/metrics`` row."""
        if self.final_gauge is not None:
            return self.final_gauge
        report = self.report
        mttd_ms = None
        if report is not None and report.mttd and report.mttd.mttd_s:
            mttd_ms = round(1e3 * report.mttd.mttd_s, 3)
        alarms = self.pipeline.alarms
        return ChipGauge(
            chip=self.chip_id,
            kind=self.kind,
            state=self.pipeline.state.value,
            windows=self.windows,
            queue_len=self.queue.qsize(),
            queued_windows=self.queued_windows,
            sheds=self.sheds,
            dropped_windows=self.dropped_windows,
            alarms=len(alarms),
            first_alarm=alarms[0] if alarms else None,
            mttd_ms=mttd_ms,
            done=self.done.is_set(),
        )

    async def close(self) -> None:
        """Cancel the consumer task and release the chunks still queued.

        Service shutdown, a finished session, a replay whose archive
        failed mid-stream, or a WebSocket that ended before ``end``.  A
        chunk already in the analysis pool runs to its end there.
        """
        if self.consumer is None:
            return
        self.consumer.cancel()
        try:
            await self.consumer
        except asyncio.CancelledError:
            pass
        self.consumer = None
        while not self.queue.empty():
            self._dequeued(self.queue.get_nowait())


class MonitorService:
    """The serve application: sessions, routing, metrics, shedding.

    Parameters
    ----------
    config:
        Service tuning.
    sim_config:
        Simulation config backing onboarded pipelines (feature
        bookkeeping, timing; live chips render through it).
    store:
        Optional :class:`~repro.store.ArtifactStore` — live chips
        warm-start their activity records from it, and its counters
        surface in ``/metrics``.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        sim_config: Optional[SimConfig] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.config = config or ServeConfig()
        self.sim_config = sim_config or SimConfig()
        self.store = store
        self.preset = build_preset(self.config.preset)
        tuning = self.preset.pipeline_config()
        if self.config.detector is not None:
            tuning = replace(tuning, detector_name=self.config.detector)
        self.tuning = tuning
        self.bus: EventBus = _LockedBus()
        self._sink: Optional[JsonlSink] = None
        if self.config.events_path is not None:
            self._sink = JsonlSink(self.config.events_path)
            self.bus.subscribe(self._sink)
        self.meter = ThroughputMeter()
        self.guard = OverloadGuard(self.bus, self.config.high_water_windows)
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.analysis_workers,
            thread_name_prefix="serve-analysis",
        )
        self.render_lock = threading.Lock()
        #: Every onboarded chip, finished ones included, in order.
        self.sessions: Dict[str, ChipSession] = {}
        #: Sessions not yet finished: the ones under the chip bound.
        self.active_chips = 0
        self._producers: set = set()
        self._conn_tasks: set = set()
        self._started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # -- bookkeeping ------------------------------------------------------

    def uptime(self) -> float:
        """Seconds since the service object was created."""
        return time.monotonic() - self._started

    def metrics(self) -> MetricsSnapshot:
        """The ``/metrics`` snapshot, assembled on the loop thread."""
        store = None
        if self.store is not None:
            store = {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "writes": self.store.writes,
            }
        return MetricsSnapshot(
            uptime_s=self.uptime(),
            n_chips=len(self.sessions),
            windows_total=self.meter.total,
            windows_per_sec=self.meter.rate(),
            recent_windows_per_sec=self.meter.recent_rate(),
            alarms_total=self.bus.counts.get("Alarm", 0),
            sheds_total=self.bus.counts.get("Shed", 0),
            backpressure_total=self.bus.counts.get("Backpressure", 0),
            overload_active=self.guard.active,
            queued_windows=self.guard.queued_windows,
            high_water_windows=self.guard.high_water,
            event_counts=dict(self.bus.counts),
            chips=tuple(
                session.gauge() for session in self.sessions.values()
            ),
            render_threads=parallel.THREADS,
            store=store,
        )

    def _check_onboarding(self, chip_id: str) -> None:
        """Reject bad/duplicate chip ids before any expensive work.

        Also the path-safety gate: the id is a URL path segment and
        names the chip's replay source, so it must stay a single plain
        segment.
        """
        if not _CHIP_ID.match(chip_id):
            raise AnalysisError(
                f"invalid chip id {chip_id!r}; expected 1-64 characters "
                "from [A-Za-z0-9._-]"
            )
        if chip_id in self.sessions:
            raise DuplicateChipError(f"chip {chip_id!r} is already onboarded")
        if self.active_chips >= self.config.max_chips:
            raise ChipLimitError(
                f"service is at its {self.config.max_chips}-chip bound"
            )

    def _new_session(self, chip_id: str, **kwargs) -> ChipSession:
        self._check_onboarding(chip_id)
        session = ChipSession(self, chip_id, **kwargs)
        self.sessions[chip_id] = session
        self.active_chips += 1
        return session

    async def _drop_session(self, chip_id: str) -> None:
        """Forget a failed or abandoned session, so that its id can onboard again."""
        session = self.sessions.pop(chip_id)
        if not session.done.is_set():
            self.active_chips -= 1
        await session.close()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (port 0 resolves to the chosen port)."""
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: listener, producers, sessions, pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._producers) + list(self._conn_tasks):
            task.cancel()
        for task in list(self._producers) + list(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._producers.clear()
        self._conn_tasks.clear()
        for session in self.sessions.values():
            await session.close()
        self.executor.shutdown(wait=True)
        if self._sink is not None:
            self._sink.close()

    async def serve_forever(self, on_ready=None) -> None:
        """Run until ``POST /shutdown`` (or cancellation).

        ``on_ready(service)`` is called once the listener is bound —
        the CLI prints the resolved address through it.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._stop_requested.wait()
        finally:
            await self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                    if request is not None and request.wants_websocket:
                        await self._handle_ws(request, reader, writer)
                        break
                except ProtocolError as exc:  # malformed request or handshake
                    writer.write(json_response(400, {"error": str(exc)}, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Service shutdown cancels live connections; ending the
            # handler normally keeps asyncio's stream-protocol done
            # callback from logging the cancellation as an error.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        parts = [p for p in request.path.split("/") if p]
        try:
            if request.method == "GET":
                if parts == ["healthz"]:
                    return json_response(
                        200, {"ok": True, "uptime_s": self.uptime()}
                    )
                if parts == ["metrics"]:
                    return json_response(200, self.metrics().to_dict())
                if parts == ["chips"]:
                    return json_response(
                        200,
                        {
                            "chips": [
                                s.gauge().to_dict()
                                for s in self.sessions.values()
                            ]
                        },
                    )
                if len(parts) == 3 and parts[0] == "chips":
                    return await self._get_chip(parts[1], parts[2])
            elif request.method == "POST":
                if parts == ["shutdown"]:
                    self._stop_requested.set()
                    return json_response(
                        200, {"ok": True}, keep_alive=False
                    )
                if len(parts) == 3 and parts[0] == "chips":
                    if parts[2] == "replay":
                        return await self._post_replay(parts[1], request)
                    if parts[2] == "live":
                        return await self._post_live(parts[1], request)
                return json_response(
                    404, {"error": f"no route for {request.path}"}
                )
            else:
                return json_response(
                    405, {"error": f"method {request.method} not allowed"}
                )
        except ReproError as exc:
            return json_response(getattr(exc, "status", 400), {"error": str(exc)})
        except Exception as exc:  # a handler bug must not kill the socket
            logger.exception("unhandled error serving %s", request.path)
            return json_response(500, {"error": str(exc)})
        return json_response(
            404, {"error": f"no route for {request.path}"}
        )

    async def _get_chip(self, chip_id: str, leaf: str) -> bytes:
        session = self.sessions.get(chip_id)
        if session is None:
            return json_response(
                404, {"error": f"unknown chip {chip_id!r}"}
            )
        if leaf != "report":
            return json_response(404, {"error": f"no route for {leaf!r}"})
        report = session.report
        if not session.done.is_set():
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(self.executor, session.snapshot_report)
        return json_response(200, report.to_dict())

    # -- replay upload (flow-controlled HTTP ingress) ---------------------

    async def _post_replay(
        self, chip_id: str, request: HttpRequest
    ) -> bytes:
        self._check_onboarding(chip_id)
        if not request.body:
            raise AnalysisError("replay upload needs a .npz archive body")
        batch = _int_field(request.query, "batch", DEFAULT_CHUNK_WINDOWS)
        loop = asyncio.get_running_loop()
        # The archive is decoded from the request body in memory; the
        # path only names the source.
        source = await loop.run_in_executor(
            self.executor,
            partial(
                ReplaySource, Path(f"{chip_id}.npz"), batch, data=request.body
            ),
        )
        session = self._new_session(
            chip_id,
            kind="replay",
            n_streams=source.n_streams,
            trigger_index=source.trigger_index,
        )
        report = await session.feed(source.chunks())
        return json_response(200, report.to_dict())

    # -- live onboarding (server-side rendering) --------------------------

    async def _post_live(self, chip_id: str, request: HttpRequest) -> bytes:
        body = _json_object(request.body, "live onboarding body")
        loop = asyncio.get_running_loop()
        base = self.preset.specs(1, base_seed=self.sim_config.seed)[0]
        spec = replace(
            base,
            chip_id=chip_id,
            trojan=str(body.get("trojan", base.trojan)),
            seed=_int_field(body, "seed", base.seed),
        )
        self._check_onboarding(chip_id)

        def build():
            # Live chips share the engine and the store: their set-up
            # and warm-up hold the render lock, like their renders.
            with self.render_lock:
                monitor = build_chip_monitor(
                    spec,
                    config=self.sim_config,
                    pipeline_config=self.tuning,
                    bus=self.bus,
                    store=self.store,
                )
                warm = 0 if self.store is None else monitor.source.warm_records()
            return monitor, warm

        monitor, warm = await loop.run_in_executor(self.executor, build)
        monitor.pipeline.bind(monitor.source)
        session = self._new_session(
            chip_id,
            kind="live",
            n_streams=monitor.source.n_streams,
            trigger_index=monitor.source.trigger_index,
            pipeline=monitor.pipeline,
        )
        feeder = asyncio.create_task(session.feed(monitor.source.chunks()))
        self._producers.add(feeder)
        feeder.add_done_callback(self._feeder_done)
        return json_response(
            200,
            {
                "chip": chip_id,
                "kind": "live",
                "trojan": spec.trojan,
                "windows_scheduled": monitor.source.n_windows,
                "trigger_index": monitor.source.trigger_index,
                "warm_records": warm,
            },
        )

    def _feeder_done(self, feeder: asyncio.Task) -> None:
        self._producers.discard(feeder)
        if not feeder.cancelled() and feeder.exception() is not None:
            logger.warning("live feed failed: %s", feeder.exception())

    # -- websocket streaming (push ingress with shedding) -----------------

    async def _handle_ws(self, request: HttpRequest, reader, writer) -> None:
        parts = [p for p in request.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "chips" or parts[2] != "ws":
            writer.write(
                json_response(
                    404,
                    {"error": f"no websocket route for {request.path}"},
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        chip_id = parts[1]
        writer.write(websocket_handshake_bytes(request))
        await writer.drain()

        async def send_json(payload: object) -> None:
            writer.write(
                ws_frame(
                    json.dumps(payload).encode("utf-8"), opcode=WS_TEXT
                )
            )
            await writer.drain()

        session: Optional[ChipSession] = None
        try:
            while True:
                try:
                    frame = await read_ws_frame(reader)
                except (ProtocolError, asyncio.IncompleteReadError):
                    break
                if frame is None:
                    break
                opcode, payload = frame
                if opcode == WS_CLOSE:
                    writer.write(ws_frame(b"", opcode=WS_CLOSE))
                    await writer.drain()
                    break
                if opcode == WS_PING:
                    writer.write(ws_frame(payload, opcode=WS_PONG))
                    await writer.drain()
                    continue
                try:
                    if opcode == WS_TEXT:
                        message = _json_object(payload, "websocket text frame")
                        op = message.get("op")
                        if op == "hello":
                            if session is not None:
                                raise AnalysisError(
                                    "session already established on this socket"
                                )
                            session = self._new_session(
                                chip_id,
                                kind="ws",
                                n_streams=_int_field(message, "n_streams", 1),
                                trigger_index=_int_field(
                                    message, "trigger_index", None
                                ),
                            )
                            await send_json({"op": "hello", "chip": chip_id})
                        elif op == "end":
                            if session is None:
                                raise AnalysisError("end before hello")
                            report = await session.drain(
                                _int_field(message, "trigger_index", None)
                            )
                            await send_json(
                                {"op": "report", "report": report.to_dict()}
                            )
                        elif op == "metrics":
                            await send_json(
                                {
                                    "op": "metrics",
                                    "metrics": self.metrics().to_dict(),
                                }
                            )
                        else:
                            raise AnalysisError(f"unknown ws op {op!r}")
                    elif opcode == WS_BINARY:
                        if session is None:
                            raise AnalysisError("chunk before hello")
                        chunk = unpack_chunk(payload)
                        accepted, reason = session.offer(chunk)
                        await send_json(
                            {
                                "op": "ack",
                                "window_start": chunk.start,
                                "n_windows": chunk.n_windows,
                                "accepted": accepted,
                                "shed_reason": reason,
                                "queued_windows": session.queued_windows,
                            }
                        )
                except ReproError as exc:
                    await send_json({"op": "error", "error": str(exc)})
        finally:
            # A socket that ends before ``end`` frees its chip id.
            if session is not None and not session.done.is_set():
                await self._drop_session(chip_id)


class ServiceRunner:
    """Run a :class:`MonitorService` on a background thread.

    Context manager used by the tests, the benchmark and
    ``repro serve --selftest``: the service's event loop lives on a
    daemon thread, the ``with`` body drives it through the blocking
    :class:`~repro.serve.protocol.ServeClient`.
    """

    def __init__(self, service: MonitorService):
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surface bind failures to __enter__
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()

    def __enter__(self) -> "ServiceRunner":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise AnalysisError("serve runner failed to start in 60 s")
        if self._error is not None:
            raise AnalysisError(f"serve runner failed: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self._loop
        )
        try:
            future.result(timeout=60)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60)
            self._loop.close()

    @property
    def port(self) -> int:
        """The bound port."""
        return int(self.service.port)

    def client(self, timeout: float = 60.0):
        """A blocking client bound to this instance."""
        from .protocol import ServeClient

        return ServeClient(
            self.service.config.host, self.port, timeout=timeout
        )
