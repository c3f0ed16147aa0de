"""Service metrics: throughput meters and the ``/metrics`` snapshot.

The serve front-end answers ``GET /metrics`` with a
:class:`MetricsSnapshot` — a frozen :class:`~repro.report.ReportBase`
report like every other report in the system, so the JSON payload is
exactly :meth:`~repro.report.ReportBase.to_json` and the text form
renders through the same severity vocabulary (an alarming chip is
CRITICAL, shed work is a WARNING).

Throughput is measured by :class:`ThroughputMeter` over the *busy*
span (first chunk's start to last chunk's completion), so an idle
service does not dilute its rate, plus a sliding recent-rate window for
dashboards.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Optional, Tuple

from ..report import ReportBase, Severity


class ThroughputMeter:
    """Windows-per-second accounting over the busy span.

    Thread-safe: analysis workers record completions from executor
    threads while the event loop snapshots rates.

    Parameters
    ----------
    recent_s:
        Span of the sliding recent-rate window [s].
    """

    def __init__(self, recent_s: float = 30.0):
        self.recent_s = float(recent_s)
        self.total = 0
        self._first: Optional[float] = None
        self._last: Optional[float] = None
        self._recent: deque = deque()
        self._lock = Lock()

    def record(
        self, n: int, start: float, now: Optional[float] = None
    ) -> None:
        """Count ``n`` windows of a chunk whose processing began at ``start``.

        ``start`` and ``now`` (the completion, default the current
        time) read :func:`time.monotonic`; the busy span runs from the
        earliest chunk start to the latest completion, so a session of
        one chunk is rated by that chunk's own processing time.
        """
        stamp = time.monotonic() if now is None else now
        with self._lock:
            self.total += int(n)
            if self._first is None or start < self._first:
                self._first = start
            if self._last is None or stamp > self._last:
                self._last = stamp
            self._recent.append((stamp, int(n)))
            cutoff = stamp - self.recent_s
            while self._recent and self._recent[0][0] < cutoff:
                self._recent.popleft()

    def rate(self) -> float:
        """Lifetime windows/sec over the busy span."""
        with self._lock:
            if self._first is None or self._last is None:
                return 0.0
            span = self._last - self._first
            if span <= 0:
                # Sub-resolution chunk: it started and finished in one
                # clock tick; claim no more than one per millisecond.
                span = 1e-3
            return self.total / span

    def recent_rate(self, now: Optional[float] = None) -> float:
        """Windows/sec over the sliding recent window."""
        stamp = time.monotonic() if now is None else now
        with self._lock:
            cutoff = stamp - self.recent_s
            counted = sum(n for t, n in self._recent if t >= cutoff)
            if not counted:
                return 0.0
            oldest = min(t for t, _ in self._recent if t >= cutoff)
            span = max(stamp - oldest, 1e-3)
            return counted / span


@dataclass(frozen=True)
class ChipGauge:
    """One chip's row in the ``/metrics`` snapshot.

    Attributes
    ----------
    chip:
        Chip identity.
    kind:
        How windows arrive: ``"replay"`` (HTTP upload), ``"ws"``
        (streaming socket) or ``"live"`` (server-side rendering).
    state:
        Pipeline state machine position.
    windows:
        Windows processed so far.
    queue_len:
        Chunks waiting in the chip's bounded queue.
    queued_windows:
        Windows those chunks hold.
    sheds:
        Chunks dropped by the shedding layer.
    dropped_windows:
        Windows lost across those sheds.
    alarms:
        Alarm events this chip has emitted.
    first_alarm:
        First alarming window (None = silent so far).
    mttd_ms:
        Detection latency once the session finished with a known
        trigger [ms].
    done:
        Whether the chip's stream has been finalized.
    """

    chip: str
    kind: str
    state: str
    windows: int
    queue_len: int
    queued_windows: int
    sheds: int
    dropped_windows: int
    alarms: int
    first_alarm: Optional[int]
    mttd_ms: Optional[float]
    done: bool

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON row."""
        return {
            "chip": self.chip,
            "kind": self.kind,
            "state": self.state,
            "windows": self.windows,
            "queue_len": self.queue_len,
            "queued_windows": self.queued_windows,
            "sheds": self.sheds,
            "dropped_windows": self.dropped_windows,
            "alarms": self.alarms,
            "first_alarm": self.first_alarm,
            "mttd_ms": self.mttd_ms,
            "done": self.done,
        }


@dataclass(frozen=True)
class MetricsSnapshot(ReportBase):
    """The ``GET /metrics`` payload: fleet health at a glance.

    Attributes
    ----------
    uptime_s:
        Seconds since the service started.
    n_chips:
        Chips currently onboarded.
    windows_total:
        Windows processed since start.
    windows_per_sec:
        Lifetime processing rate over the busy span.
    recent_windows_per_sec:
        Rate over the sliding recent window.
    alarms_total, sheds_total, backpressure_total:
        Fleet-wide counters.
    overload_active:
        Whether the service is currently past its high-water mark.
    queued_windows, high_water_windows:
        Global queued work against its configured bound.
    event_counts:
        Bus-wide event counts by type.
    chips:
        Per-chip gauges, in onboarding order.
    render_threads:
        Threads one render or featurize call is split across (the
        cores in the process's affinity mask).
    store:
        Artifact store counters (None when the service runs without
        a store).
    """

    uptime_s: float
    n_chips: int
    windows_total: int
    windows_per_sec: float
    recent_windows_per_sec: float
    alarms_total: int
    sheds_total: int
    backpressure_total: int
    overload_active: bool
    queued_windows: int
    high_water_windows: int
    event_counts: Dict[str, int] = field(default_factory=dict)
    chips: Tuple[ChipGauge, ...] = ()
    render_threads: int = 1
    store: Optional[Dict[str, int]] = None

    report_kind = "metrics"

    def severities(self):
        """Operator-facing rollup: alarms CRITICAL, sheds WARNING."""
        for gauge in self.chips:
            if gauge.alarms:
                yield Severity.CRITICAL
            elif gauge.sheds:
                yield Severity.WARNING
            else:
                yield Severity.OK
        if self.overload_active:
            yield Severity.WARNING

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (the ``/metrics`` body)."""
        return {
            "uptime_s": round(self.uptime_s, 3),
            "n_chips": self.n_chips,
            "windows_total": self.windows_total,
            "windows_per_sec": round(self.windows_per_sec, 2),
            "recent_windows_per_sec": round(
                self.recent_windows_per_sec, 2
            ),
            "alarms_total": self.alarms_total,
            "sheds_total": self.sheds_total,
            "backpressure_total": self.backpressure_total,
            "overload_active": self.overload_active,
            "queued_windows": self.queued_windows,
            "high_water_windows": self.high_water_windows,
            "event_counts": dict(self.event_counts),
            "chips": [gauge.to_dict() for gauge in self.chips],
            "render_threads": self.render_threads,
            "store": None if self.store is None else dict(self.store),
        }

    def format(self) -> str:
        """Plain-text fleet health summary."""
        lines = [
            f"serve: {self.n_chips} chips | {self.windows_total} windows "
            f"({self.windows_per_sec:.1f} win/s lifetime, "
            f"{self.recent_windows_per_sec:.1f} recent) | "
            f"alarms {self.alarms_total} | sheds {self.sheds_total} | "
            f"overload {'ACTIVE' if self.overload_active else 'clear'} "
            f"({self.queued_windows}/{self.high_water_windows} queued)",
        ]
        if self.chips:
            lines.append(
                "chip       | kind   | state    | windows | queue | "
                "sheds | alarms"
            )
            for gauge in self.chips:
                lines.append(
                    f"{gauge.chip:<10} | {gauge.kind:<6} | "
                    f"{gauge.state:<8} | {gauge.windows:>7} | "
                    f"{gauge.queue_len:>5} | {gauge.sheds:>5} | "
                    f"{gauge.alarms:>6}"
                )
        return "\n".join(lines)
