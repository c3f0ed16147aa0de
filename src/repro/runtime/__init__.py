"""``repro.runtime`` — the streaming run-time monitoring subsystem.

The paper's headline flow — golden-model-free **run-time** detection
with identify/localize escalation — as an always-on service path over
the batched measurement engine:

* :mod:`~repro.runtime.sources` — where windows come from: scripted
  live rendering (:class:`LiveSource`, bit-identical to the offline
  batch at any chunk size) or archive replay (:class:`ReplaySource`),
  behind one :class:`TraceStream` protocol.
* :mod:`~repro.runtime.pipeline` — the MONITOR → IDENTIFY → LOCALIZE
  state machine (:class:`EscalationPipeline`) with typed events.
* :mod:`~repro.runtime.events` — the event vocabulary, bus and JSONL
  audit sink.
* :mod:`~repro.runtime.fleet` — N concurrent chip monitors behind one
  cooperative round-robin :class:`FleetScheduler` that renders each
  chunk on its member's turn.
* :mod:`~repro.runtime.presets` — named session scripts for the CLI
  (``repro monitor --preset ... [--fleet N]``).
"""

from .events import (
    Alarm,
    Backpressure,
    EventBus,
    JsonlSink,
    MonitorEvent,
    MonitorState,
    Overload,
    Shed,
    StateChanged,
    TrojanIdentified,
    TrojanLocalized,
    WindowProcessed,
    read_events,
)
from .fleet import (
    ChipMonitor,
    ChipResult,
    ChipSpec,
    FleetReport,
    FleetScheduler,
    build_chip_monitor,
)
from .pipeline import (
    EscalationPipeline,
    MonitorReport,
    PipelineConfig,
    chunk_features,
)
from .presets import MONITOR_PRESETS, MonitorPreset, build_fleet, build_preset
from .sources import (
    ActivationSchedule,
    LiveSource,
    ReplaySource,
    StreamChunk,
    TraceStream,
    record_stream,
)

__all__ = [
    "ActivationSchedule",
    "Alarm",
    "Backpressure",
    "Overload",
    "Shed",
    "ChipMonitor",
    "ChipResult",
    "ChipSpec",
    "EscalationPipeline",
    "EventBus",
    "FleetReport",
    "FleetScheduler",
    "JsonlSink",
    "LiveSource",
    "MONITOR_PRESETS",
    "MonitorEvent",
    "MonitorPreset",
    "MonitorReport",
    "MonitorState",
    "PipelineConfig",
    "ReplaySource",
    "StateChanged",
    "StreamChunk",
    "TraceStream",
    "TrojanIdentified",
    "TrojanLocalized",
    "WindowProcessed",
    "build_chip_monitor",
    "build_fleet",
    "build_preset",
    "chunk_features",
    "read_events",
    "record_stream",
]
