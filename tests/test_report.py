"""Unit tests of the shared ``repro.report`` rendering surface.

Every operator-facing report (sweep, fleet, monitor session, serve
metrics) renders through :class:`~repro.report.ReportBase`; these
tests pin the contract itself — JSON byte-identity, severity rollups,
and the timestamped bundle writer — against a minimal toy report plus
the serve :class:`~repro.serve.metrics.MetricsSnapshot`.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest

from repro.errors import AnalysisError
from repro.report import SEVERITY_ORDER, ReportBase, Severity
from repro.serve import ChipGauge, MetricsSnapshot


class ToyReport(ReportBase):
    """The smallest possible report: a fixed payload + severities."""

    report_kind = "toy"

    def __init__(self, severities=()):
        self._severities = tuple(severities)

    def to_dict(self):
        return {"kind": "toy", "n_findings": len(self._severities)}

    def format(self):
        return f"toy report with {len(self._severities)} findings"

    def severities(self):
        return self._severities


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


def test_severity_order_is_exhaustive():
    assert set(SEVERITY_ORDER) == set(Severity)


def test_to_json_is_byte_identical_to_plain_dumps():
    report = ToyReport()
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)
    assert report.to_table() == report.format()


def test_rollup_counts_every_level():
    report = ToyReport(
        [Severity.OK, Severity.CRITICAL, Severity.OK, Severity.WARNING]
    )
    assert report.severity_rollup() == {
        "ok": 2,
        "warning": 1,
        "critical": 1,
    }
    assert report.worst_severity is Severity.CRITICAL


def test_rollup_of_empty_report_is_all_zero_and_ok():
    report = ToyReport()
    assert report.severity_rollup() == {"ok": 0, "warning": 0, "critical": 0}
    assert report.worst_severity is Severity.OK


def test_rollup_rejects_untyped_severities():
    report = ToyReport(["critical"])
    with pytest.raises(AnalysisError, match="must yield Severity"):
        report.severity_rollup()


def test_write_bundle_pins_name_and_contents(tmp_path):
    report = ToyReport([Severity.WARNING])
    stamp = datetime(2026, 8, 8, 12, 0, 0, tzinfo=timezone.utc)
    bundle = report.write_bundle(tmp_path, stamp=stamp)
    assert bundle.parent == tmp_path
    assert bundle.name == f"toy-{stamp.strftime('%Y%m%dT%H%M%S%fZ')}"
    assert json.loads((bundle / "report.json").read_text()) == report.to_dict()
    assert (bundle / "report.txt").read_text() == report.format() + "\n"
    summary = json.loads((bundle / "summary.json").read_text())
    assert summary["kind"] == "toy"
    assert summary["worst"] == "warning"
    assert summary["severity"] == {"ok": 0, "warning": 1, "critical": 0}
    # A second bundle at the same stamp must not silently overwrite.
    with pytest.raises(FileExistsError):
        report.write_bundle(tmp_path, stamp=stamp)


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
    # alarming chip CRITICAL, shedding chip WARNING, healthy chip OK,
    # plus one WARNING for the active overload condition.
    assert snapshot.severity_rollup() == {
        "ok": 1,
        "warning": 2,
        "critical": 1,
    }
    assert snapshot.worst_severity is Severity.CRITICAL
    payload = snapshot.to_dict()
    assert payload["windows_per_sec"] == 123.46
    assert payload["uptime_s"] == 12.346
    assert [row["chip"] for row in payload["chips"]] == ["a", "b", "c"]
    assert snapshot.to_json() == json.dumps(payload, indent=2)
    text = snapshot.format()
    assert "overload ACTIVE" in text
    assert "8/16 queued" in text
