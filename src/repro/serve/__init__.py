"""``repro.serve`` — the fleet-scale streaming monitoring service.

A long-running asyncio front-end over the run-time subsystem: chip
streams arrive over HTTP (replay uploads) or WebSocket (pushed
chunks), each chip runs its own
:class:`~repro.runtime.pipeline.EscalationPipeline` behind a bounded
queue drained by a shared analysis pool, and overload is handled by
a typed backpressure/shed contract (see :mod:`.shedding`).  See
:mod:`.app` for the endpoint table.
"""

from .app import ChipSession, MonitorService, ServeConfig, ServiceRunner
from .metrics import ChipGauge, MetricsSnapshot, ThroughputMeter
from .protocol import ServeClient, WsConnection, pack_chunk, unpack_chunk
from .shedding import ChunkShedder, OverloadGuard

__all__ = [
    "ChipGauge",
    "ChipSession",
    "ChunkShedder",
    "MetricsSnapshot",
    "MonitorService",
    "OverloadGuard",
    "ServeClient",
    "ServeConfig",
    "ServiceRunner",
    "ThroughputMeter",
    "WsConnection",
    "pack_chunk",
    "unpack_chunk",
]
