"""Service-wide overload accounting for the monitoring service.

The serve front-end accepts work faster than analysis can drain it
only up to two bounds, both announced with typed events on the
service's bus, next to the pipeline's own (the in-process
:class:`~repro.runtime.fleet.FleetScheduler` renders on demand and
queues nothing, so this is the only queue-full contract):

* **Per-chip**: each chip's chunk queue is bounded, and its
  :class:`~repro.serve.app.ChipSession` is the one owner of that
  chip's ingress policy.  A flow-controlled producer (HTTP replay
  upload, live render) simply waits; a fire-and-forget producer
  (WebSocket push) has its chunk *shed* — dropped with a
  :class:`~repro.runtime.events.Backpressure` (``action="shed"``)
  plus a :class:`~repro.runtime.events.Shed` event.
* **Service-wide**: the :class:`OverloadGuard` here tracks total
  queued windows across every chip.  Past the high-water mark it
  flips to overload (a :class:`~repro.runtime.events.Overload` event,
  ``active=True``), new push work is shed regardless of per-chip
  space, and recovery below the low-water mark is announced with
  ``active=False`` — so a transcript shows exactly when and why the
  service degraded and when it came back.

Shedding keeps the *pipeline* consistent: the chip session rebases
subsequent chunk start indices by the dropped window count, so the
detector sees a gapless stream (it just never saw the shed windows).
A session that ends unfinished — a failed replay upload or live
render, or a WebSocket that closes before ``end`` — releases its
queued windows and frees its chip id.
"""

from __future__ import annotations

from threading import Lock
from typing import Optional

from ..runtime.events import EventBus, Overload

#: Chip tag stamped on service-wide (not per-chip) events.
SERVICE_CHIP = "serve"


class OverloadGuard:
    """Service-wide queued-work accounting with hysteresis.

    Parameters
    ----------
    bus:
        Event bus the :class:`~repro.runtime.events.Overload`
        transitions are announced on.
    high_water:
        Queued-window count that flips the service into overload.
    low_water:
        Recovery bound (default: half the high-water mark) — the
        hysteresis gap keeps the service from flapping at the edge.
    """

    def __init__(
        self,
        bus: EventBus,
        high_water: int,
        low_water: Optional[int] = None,
    ):
        self.bus = bus
        self.high_water = int(high_water)
        self.low_water = (
            self.high_water // 2 if low_water is None else int(low_water)
        )
        self.queued_windows = 0
        self.active = False
        self.transitions = 0
        self._lock = Lock()

    def _emit(self, active: bool, time_s: float) -> None:
        self.bus.emit(
            Overload(
                chip=SERVICE_CHIP,
                window=-1,
                time_s=time_s,
                queued_windows=self.queued_windows,
                high_water=self.high_water,
                active=active,
            )
        )

    def note_enqueued(self, n_windows: int, time_s: float) -> None:
        """Account ``n_windows`` entering some chip's queue."""
        with self._lock:
            self.queued_windows += int(n_windows)
            if not self.active and self.queued_windows > self.high_water:
                self.active = True
                self.transitions += 1
                self._emit(True, time_s)

    def note_dequeued(self, n_windows: int, time_s: float) -> None:
        """Account ``n_windows`` leaving some chip's queue."""
        with self._lock:
            self.queued_windows -= int(n_windows)
            if self.active and self.queued_windows <= self.low_water:
                self.active = False
                self.transitions += 1
                self._emit(False, time_s)
