"""``repro.report`` — one JSON form for every result object.

:class:`ReportBase` is the contract: each report defines ``to_dict``
and inherits ``to_json``, the byte-stable JSON form.
:class:`~repro.sweep.report.SweepReport`,
:class:`~repro.runtime.fleet.FleetReport`,
:class:`~repro.runtime.pipeline.MonitorReport` and the serve
service's :class:`~repro.serve.metrics.MetricsSnapshot` all serialize
through it.
"""

from .base import ReportBase

__all__ = ["ReportBase"]
