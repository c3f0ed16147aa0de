"""Typed events of the run-time monitoring pipeline.

Every stage of the escalation state machine announces what it did by
emitting an event onto an :class:`EventBus`:

* :class:`WindowProcessed` — one measurement window went through the
  MONITOR stage (feature + detector decision per sensor stream);
* :class:`Alarm` — the debounced detector fired on some stream;
* :class:`TrojanIdentified` — the IDENTIFY stage classified the
  alarming window's zero-span envelope;
* :class:`TrojanLocalized` — the LOCALIZE stage narrowed the Trojan
  to a sensor/quadrant position;
* :class:`StateChanged` — the state machine moved between stages.

Events are frozen dataclasses with a flat :meth:`~MonitorEvent.to_dict`
JSON form, so a :class:`JsonlSink` subscriber turns a monitoring
session into an append-only ``.jsonl`` audit log (mirroring the RASC
deployment model: only processed verdicts leave the board, never raw
traces).
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AnalysisError


class MonitorState(enum.Enum):
    """Stages of the detect→identify→localize escalation machine."""

    MONITOR = "monitor"
    IDENTIFY = "identify"
    LOCALIZE = "localize"


@dataclass(frozen=True)
class MonitorEvent:
    """Base event: where and when something happened.

    Attributes
    ----------
    chip:
        Identity of the monitored chip (fleet member name).
    window:
        Global stream index of the measurement window.
    time_s:
        Wall-clock session time of the window's verdict [s]
        (``(window + 1) * trace_period``).
    """

    chip: str
    window: int
    time_s: float

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serializable form, tagged with the event type."""
        payload: Dict[str, object] = {"type": type(self).__name__}
        payload.update(asdict(self))
        return payload


@dataclass(frozen=True)
class WindowProcessed(MonitorEvent):
    """One window cleared the MONITOR stage.

    Attributes
    ----------
    scenario:
        Workload scenario of the window (live sources know it; replay
        sources carry whatever the archive recorded).
    features_db:
        Sideband feature per monitored stream [dBuV].
    z:
        Detector z-score per stream (None while warming up).
    alarm:
        Whether any stream completed a debounced alarm on this window.
    """

    scenario: str
    features_db: Tuple[float, ...]
    z: Tuple[Optional[float], ...]
    alarm: bool


@dataclass(frozen=True)
class Alarm(MonitorEvent):
    """The debounced golden-model-free detector fired.

    Attributes
    ----------
    sensor:
        Sensor index of the alarming stream.
    feature_db:
        The alarming window's feature on that stream [dBuV].
    z:
        Its z-score against the self-baseline.
    escalating:
        Whether this alarm starts an identify/localize escalation
        (only the first alarm of a session escalates by default).
    """

    sensor: int
    feature_db: float
    z: float
    escalating: bool


@dataclass(frozen=True)
class TrojanIdentified(MonitorEvent):
    """The IDENTIFY stage classified the alarming envelope.

    Attributes
    ----------
    label:
        Predicted Trojan archetype (``"T1"``..``"T4"``).
    f_probe_hz:
        Sideband frequency the zero-span capture was tuned to [Hz].
    autocorr_peak, dominant_freq_hz:
        The envelope features the rule template decided on.
    """

    label: str
    f_probe_hz: float
    autocorr_peak: float
    dominant_freq_hz: float


@dataclass(frozen=True)
class TrojanLocalized(MonitorEvent):
    """The LOCALIZE stage produced a position estimate.

    Attributes
    ----------
    sensor:
        Hot sensor of the score map.
    quadrant:
        Refined quadrant inside the hot sensor (None if unrefined).
    position_m:
        Estimated (x, y) die position [m].
    margin_db:
        Score gap between the hot sensor and the runner-up [dB].
    """

    sensor: int
    quadrant: Optional[str]
    position_m: Tuple[float, float]
    margin_db: float


@dataclass(frozen=True)
class StateChanged(MonitorEvent):
    """The escalation machine transitioned between stages."""

    previous: str
    current: str


@dataclass(frozen=True)
class Backpressure(MonitorEvent):
    """A producer found a chip's bounded chunk queue full.

    The queue-full contract of the serve service's shedding layer:
    dropping a chunk at the bound is always announced as a typed event
    — never a silent loss — so operators can see *which* chips the
    system is throttling.

    Attributes
    ----------
    queue_depth:
        Configured bound (chunks allowed in the queue).
    queue_len:
        Queue occupancy when the producer was refused.
    action:
        What the producer did: ``"shed"`` (the chunk is dropped and a
        :class:`Shed` event follows).  Flow-controlled producers wait
        at the bound instead and emit nothing.
    """

    queue_depth: int
    queue_len: int
    action: str


@dataclass(frozen=True)
class Shed(MonitorEvent):
    """Windows were dropped under overload (serve's shedding layer).

    Attributes
    ----------
    n_windows:
        Monitoring windows lost with the dropped chunk.
    reason:
        Why: ``"queue-full"`` (that chip's bounded queue) or
        ``"overload"`` (the service-wide high-water mark).
    """

    n_windows: int
    reason: str


@dataclass(frozen=True)
class Overload(MonitorEvent):
    """The service crossed (or left) its global queued-work bound.

    Emitted with ``active=True`` when total queued windows rise past
    the high-water mark — new work is shed until drained — and again
    with ``active=False`` on recovery.

    Attributes
    ----------
    queued_windows:
        Total windows queued across every chip at the transition.
    high_water:
        The configured service-wide bound.
    active:
        True entering overload, False on recovery.
    """

    queued_windows: int
    high_water: int
    active: bool


#: Event classes in emission-priority order (schema registry).
EVENT_TYPES: Tuple[type, ...] = (
    WindowProcessed,
    Alarm,
    TrojanIdentified,
    TrojanLocalized,
    StateChanged,
    Backpressure,
    Shed,
    Overload,
)

_EVENT_BY_NAME: Dict[str, type] = {cls.__name__: cls for cls in EVENT_TYPES}


def event_from_dict(payload: Dict[str, object]) -> MonitorEvent:
    """Rebuild an event from its :meth:`MonitorEvent.to_dict` form."""
    kind = payload.get("type")
    cls = _EVENT_BY_NAME.get(str(kind))
    if cls is None:
        raise AnalysisError(f"unknown event type {kind!r}")
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    for key in ("features_db", "z", "position_m"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    return cls(**kwargs)


class EventBus:
    """Synchronous fan-out of monitor events to subscribers.

    Emission is in-line with the pipeline (no buffering): a subscriber
    sees events in exact decision order, which is what makes the JSONL
    log a faithful session transcript.  Subscriber exceptions
    propagate — a failing sink should stop the session, not silently
    drop audit records.
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[[MonitorEvent], None]] = []
        self.counts: Dict[str, int] = {}

    def subscribe(self, handler: Callable[[MonitorEvent], None]) -> None:
        """Register a handler invoked for every emitted event."""
        self._subscribers.append(handler)

    def emit(self, event: MonitorEvent) -> None:
        """Deliver one event to every subscriber, in order."""
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        for handler in self._subscribers:
            handler(event)

    @property
    def n_emitted(self) -> int:
        """Total events emitted over the bus."""
        return sum(self.counts.values())


class JsonlSink:
    """Append-only ``.jsonl`` event log.

    One JSON object per line, in emission order.  Use as a context
    manager (or call :meth:`close`) so the log is flushed even when a
    monitoring session aborts mid-stream.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self.n_written = 0

    def __call__(self, event: MonitorEvent) -> None:
        """Write one event as a JSON line (the subscriber hook)."""
        if self._handle.closed:
            raise AnalysisError(f"event sink {self.path} is closed")
        self._handle.write(json.dumps(event.to_dict()) + "\n")
        self.n_written += 1

    def close(self) -> None:
        """Flush and close the log file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: "str | Path") -> List[MonitorEvent]:
    """Parse a :class:`JsonlSink` log back into typed events."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            events.append(event_from_dict(json.loads(line)))
    return events
