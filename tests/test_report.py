"""Unit tests of the shared ``repro.report`` JSON form.

Every operator-facing report (sweep, fleet, monitor session, serve
metrics) serializes through :class:`~repro.report.ReportBase`; these
tests pin the contract itself — JSON byte-identity — against a
minimal toy report plus the serve
:class:`~repro.serve.metrics.MetricsSnapshot`.
"""

from __future__ import annotations

import json
from repro.report import ReportBase
from repro.serve import ChipGauge, MetricsSnapshot


class ToyReport(ReportBase):
    """The smallest possible report: a fixed payload."""

    def to_dict(self):
        return {"kind": "toy", "n_findings": 0}


def _gauge(chip, alarms=0, sheds=0):
    return ChipGauge(
        chip=chip,
        kind="replay",
        state="monitor",
        windows=10,
        queue_len=0,
        queued_windows=0,
        sheds=sheds,
        dropped_windows=0,
        alarms=alarms,
        first_alarm=7 if alarms else None,
        mttd_ms=None,
        done=True,
    )


def test_to_json_is_byte_identical_to_plain_dumps():
    report = ToyReport()
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_metrics_snapshot_renders_through_report_base():
    snapshot = MetricsSnapshot(
        uptime_s=12.3456,
        n_chips=3,
        windows_total=30,
        windows_per_sec=123.456,
        recent_windows_per_sec=100.0,
        alarms_total=2,
        sheds_total=1,
        backpressure_total=1,
        overload_active=True,
        queued_windows=8,
        high_water_windows=16,
        event_counts={"Alarm": 2},
        chips=(
            _gauge("a", alarms=2),
            _gauge("b", sheds=1),
            _gauge("c"),
        ),
        store=None,
    )
    assert isinstance(snapshot, ReportBase)
    payload = snapshot.to_dict()
    assert payload["windows_per_sec"] == 123.46
    assert payload["uptime_s"] == 12.346
    assert [row["chip"] for row in payload["chips"]] == ["a", "b", "c"]
    assert snapshot.to_json() == json.dumps(payload, indent=2)
