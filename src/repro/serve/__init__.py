"""``repro.serve`` — the fleet-scale streaming monitoring service.

A long-running asyncio front-end over the run-time subsystem: chip
streams arrive over HTTP (replay uploads, live onboarding) or
WebSocket (pushed chunks).  Every chip, whatever its ingress, runs
through one path: a :class:`~.app.ChipSession` whose own
:class:`~repro.runtime.pipeline.EscalationPipeline` sits behind a
bounded queue drained by a shared analysis pool.  The session feeds
(flow-controlled), sheds (pushed work past the bound, with typed
events; see :mod:`.shedding`) and drains itself; one that ends
unfinished (a failed upload, a socket closed before ``end``) frees
its chip id.  See :mod:`.app` for the endpoint table.
"""

from .app import ChipSession, MonitorService, ServeConfig, ServiceRunner
from .metrics import ChipGauge, MetricsSnapshot, ThroughputMeter
from .protocol import ServeClient, WsConnection, pack_chunk, unpack_chunk
from .shedding import OverloadGuard

__all__ = [
    "ChipGauge",
    "ChipSession",
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
