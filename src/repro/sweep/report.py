"""Structured results of detection and localization sweeps.

Every detection cell reports the full reference-free detection
scorecard — per sensor ROC-AUC, detection rate at the operating
threshold, effect size with the derived required-measurement count,
and the alarm/MTTD timeline.  Every localization cell reports the
reference-free localization scorecard — hit-rate over its repeats,
localization error [um], score-map margin [dB] and programmed
measurement windows to converge.  The :class:`SweepReport` carries
either kind of cell (or a mix) and renders the grid as JSON or as the
plain-text tables the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.analysis.mttd import MttdResult
from ..errors import AnalysisError
from ..report import ReportBase

#: The paper's run-time budget: fewer than ten traces, under 10 ms.
BUDGET_TRACES = 10
BUDGET_SECONDS = 10e-3


@dataclass(frozen=True)
class SensorOutcome:
    """Detection metrics of one sensor stream inside a cell.

    Attributes
    ----------
    sensor:
        Sensor index.
    roc_auc:
        Area under the ROC curve of the active-vs-baseline feature
        populations.
    detection_rate:
        Fraction of active traces above the cell's z-threshold.
    effect_size:
        Cohen's d between the populations (signed).
    n_required:
        Measurements for 95 %-power detection at alpha = 1e-3.
    first_alarm:
        Stream index of this sensor's first alarm (None = silent).
    """

    sensor: int
    roc_auc: float
    detection_rate: float
    effect_size: float
    n_required: int
    first_alarm: Optional[int]


@dataclass(frozen=True)
class SweepCellResult:
    """Evaluation of one grid cell.

    Attributes
    ----------
    label, trojan, reference, sensors:
        Cell identity (see :class:`~repro.sweep.grid.SweepCell`).
    n_baseline, n_active:
        Stream span lengths; the Trojan activates at ``n_baseline``.
    outcomes:
        Per-sensor metrics, in ``sensors`` order.
    alarm_index:
        Earliest alarm across the cell's sensor streams.
    mttd:
        Activation-to-alarm latency (false alarms classified, never a
        negative latency).
    detector:
        Registered detection method that evaluated the cell.
    features_db:
        The ``(n_sensors, n_traces)`` feature matrix (None when the
        grid drops features).
    """

    label: str
    trojan: str
    reference: str
    sensors: Tuple[int, ...]
    n_baseline: int
    n_active: int
    outcomes: Tuple[SensorOutcome, ...]
    alarm_index: Optional[int]
    mttd: MttdResult
    detector: str = "welford"
    features_db: Optional[np.ndarray] = None

    @property
    def best(self) -> SensorOutcome:
        """The strongest sensor stream (highest ROC-AUC)."""
        if not self.outcomes:
            raise AnalysisError("cell has no sensor outcomes")
        return max(self.outcomes, key=lambda outcome: outcome.roc_auc)

    @property
    def within_budget(self) -> bool:
        """Whether the paper's <10 ms / <10 traces budget is met."""
        return self.mttd.within(BUDGET_SECONDS, BUDGET_TRACES)

    @property
    def success(self) -> bool:
        """Whether the cell achieved its goal (a true detection)."""
        return self.mttd.detected

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        payload: Dict[str, object] = {
            "kind": "detection",
            "label": self.label,
            "trojan": self.trojan,
            "reference": self.reference,
            "detector": self.detector,
            "sensors": list(self.sensors),
            "n_baseline": self.n_baseline,
            "n_active": self.n_active,
            "alarm_index": self.alarm_index,
            "within_budget": self.within_budget,
            "mttd": {
                "detected": self.mttd.detected,
                "false_alarm": self.mttd.false_alarm,
                "traces_to_detect": self.mttd.traces_to_detect,
                "mttd_s": self.mttd.mttd_s,
            },
            "outcomes": [
                {
                    "sensor": outcome.sensor,
                    "roc_auc": outcome.roc_auc,
                    "detection_rate": outcome.detection_rate,
                    "effect_size": _json_float(outcome.effect_size),
                    "n_required": outcome.n_required,
                    "first_alarm": outcome.first_alarm,
                }
                for outcome in self.outcomes
            ],
        }
        if self.features_db is not None:
            payload["features_db"] = self.features_db.tolist()
        return payload


@dataclass(frozen=True)
class LocalizeOutcome:
    """One localization repeat inside a cell.

    Attributes
    ----------
    hit:
        Whether the flow localized to the true host sensor (and, when
        refinement ran, the true quadrant).
    sensor_index:
        The hot sensor the score map selected.
    quadrant:
        Refined quadrant (None when refinement was disabled).
    margin_db:
        Score-map gap between the hot sensor and the runner-up [dB].
    error_um:
        Distance between the position estimate and the true Trojan
        center [um].
    windows:
        Programmed measurement windows used by the whole flow (score
        map + refinement + optional adaptive scan).
    scan_windows:
        Windows used by the adaptive coarse scan (None = scan off).
    scan_error_um:
        Coarse-scan position error [um] (None = scan off).
    """

    hit: bool
    sensor_index: int
    quadrant: Optional[str]
    margin_db: float
    error_um: float
    windows: int
    scan_windows: Optional[int] = None
    scan_error_um: Optional[float] = None


@dataclass(frozen=True)
class LocalizeCellResult:
    """Evaluation of one localization grid cell.

    Attributes
    ----------
    label, trojan, reference:
        Cell identity (see :class:`~repro.sweep.localize.LocalizeCell`).
    host_sensor:
        Sensor the Trojan cluster was implanted under (ground truth).
    expected_quadrant:
        True quadrant of the Trojan inside the host sensor (None when
        refinement was disabled).
    outcomes:
        Per-repeat outcomes, in repeat order.
    details:
        The underlying per-repeat
        :class:`~repro.core.analysis.localizer.LocalizationResult`
        objects (None unless the grid keeps details).
    """

    label: str
    trojan: str
    reference: str
    host_sensor: int
    expected_quadrant: Optional[str]
    outcomes: Tuple[LocalizeOutcome, ...]
    details: Optional[Tuple[object, ...]] = None

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise AnalysisError("localization cell has no outcomes")

    @property
    def n_repeats(self) -> int:
        """Localization repeats evaluated for the cell."""
        return len(self.outcomes)

    @property
    def hit_rate(self) -> float:
        """Fraction of repeats that localized to the true site."""
        return sum(o.hit for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_error_um(self) -> float:
        """Mean localization error across repeats [um]."""
        return float(np.mean([o.error_um for o in self.outcomes]))

    @property
    def mean_margin_db(self) -> float:
        """Mean hot-sensor margin across repeats [dB]."""
        return float(np.mean([o.margin_db for o in self.outcomes]))

    @property
    def mean_windows(self) -> float:
        """Mean programmed measurement windows per repeat."""
        return float(np.mean([o.windows for o in self.outcomes]))

    @property
    def success(self) -> bool:
        """Whether every repeat localized to the true site."""
        return all(o.hit for o in self.outcomes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "kind": "localize",
            "label": self.label,
            "trojan": self.trojan,
            "reference": self.reference,
            "host_sensor": self.host_sensor,
            "expected_quadrant": self.expected_quadrant,
            "n_repeats": self.n_repeats,
            "hit_rate": self.hit_rate,
            "mean_error_um": self.mean_error_um,
            "mean_margin_db": self.mean_margin_db,
            "mean_windows": self.mean_windows,
            "outcomes": [
                {
                    "hit": outcome.hit,
                    "sensor_index": outcome.sensor_index,
                    "quadrant": outcome.quadrant,
                    "margin_db": _json_float(outcome.margin_db),
                    "error_um": outcome.error_um,
                    "windows": outcome.windows,
                    "scan_windows": outcome.scan_windows,
                    "scan_error_um": outcome.scan_error_um,
                }
                for outcome in self.outcomes
            ],
        }


@dataclass(frozen=True)
class SweepReport(ReportBase):
    """Results of one grid evaluation.

    Serializes through the shared :class:`~repro.report.ReportBase`
    (``to_json``); the CLI prints :meth:`format`.

    Attributes
    ----------
    grid:
        Grid name.
    trace_period_s:
        Capture + processing cadence used for MTTD accounting (also
        the per-window capture cadence of localization cells).
    cells:
        Per-cell results, in grid order — detection cells
        (:class:`SweepCellResult`), localization cells
        (:class:`LocalizeCellResult`), or a mix.
    """

    grid: str
    trace_period_s: float
    cells: Tuple["SweepCellResult | LocalizeCellResult", ...]

    @property
    def all_detected(self) -> bool:
        """Every cell succeeded (true alarm / every-repeat hit)."""
        return all(cell.success for cell in self.cells)

    @property
    def all_within_budget(self) -> bool:
        """Every detection cell met the paper's latency budget."""
        return all(
            cell.within_budget
            for cell in self.cells
            if isinstance(cell, SweepCellResult)
        )

    def detection_matrix(self) -> Dict[str, Dict[str, bool]]:
        """The detector × Trojan-class detected/missed matrix.

        ``matrix[detector][trojan]`` is True when that method's cell
        truly detected that Trojan class (a false alarm is a miss).
        This is the structure the committed expectation files under
        ``tests/data/`` pin — each method's blind spots are load-
        bearing, so a flip in either direction is a regression.
        """
        matrix: Dict[str, Dict[str, bool]] = {}
        for cell in self.cells:
            if not isinstance(cell, SweepCellResult):
                continue
            row = matrix.setdefault(cell.detector, {})
            if cell.trojan in row:
                raise AnalysisError(
                    f"grid evaluated {cell.trojan!r} twice under "
                    f"{cell.detector!r}; the detection matrix needs one "
                    "cell per (detector, trojan) pair"
                )
            row[cell.trojan] = cell.success
        return matrix

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the whole report.

        ``all_within_budget`` is ``None`` when the grid holds no
        detection cells (no latency was measured, so a boolean would
        be vacuous).
        """
        has_detection = any(
            isinstance(cell, SweepCellResult) for cell in self.cells
        )
        return {
            "grid": self.grid,
            "trace_period_s": self.trace_period_s,
            "n_cells": len(self.cells),
            "all_detected": self.all_detected,
            "all_within_budget": (
                self.all_within_budget if has_detection else None
            ),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def format(self) -> str:
        """Render the grid as the CLI's plain-text table(s).

        Detection and localization cells each render their own table;
        a mixed grid prints both, in that order.
        """
        detection = [
            cell for cell in self.cells if isinstance(cell, SweepCellResult)
        ]
        localize = [
            cell for cell in self.cells if isinstance(cell, LocalizeCellResult)
        ]
        sections: List[str] = []
        if detection:
            sections.append(self._format_detection(detection))
        if localize:
            sections.append(self._format_localize(localize))
        return "\n\n".join(sections)

    def _format_detection(self, cells: List["SweepCellResult"]) -> str:
        from ..experiments.reporting import format_table

        rows: List[Tuple[object, ...]] = []
        for cell in cells:
            best = cell.best
            mttd = cell.mttd
            if mttd.detected:
                latency = f"{mttd.mttd_s * 1e3:.2f} ms"
                traces = str(mttd.traces_to_detect)
            elif mttd.false_alarm:
                latency, traces = "FALSE ALARM", "-"
            else:
                latency, traces = "-", "-"
            rows.append(
                (
                    cell.label,
                    cell.detector,
                    "/".join(str(s) for s in cell.sensors),
                    f"{best.roc_auc:.3f}",
                    f"{best.detection_rate:.0%}",
                    _n_required_label(best.n_required),
                    traces,
                    latency,
                    "yes" if cell.within_budget else "NO",
                )
            )
        header = (
            f"Detection sweep — grid {self.grid!r} ({len(cells)} cells, "
            f"trace period {self.trace_period_s * 1e3:.2f} ms)\n"
        )
        return header + format_table(
            [
                "cell",
                "detector",
                "sensors",
                "ROC-AUC",
                "det-rate",
                "meas#",
                "traces",
                "MTTD",
                "budget",
            ],
            rows,
        )

    def _format_localize(self, cells: List["LocalizeCellResult"]) -> str:
        from ..experiments.reporting import format_table

        rows: List[Tuple[object, ...]] = []
        for cell in cells:
            scan_windows = [
                o.scan_windows for o in cell.outcomes
                if o.scan_windows is not None
            ]
            rows.append(
                (
                    cell.label,
                    f"s{cell.host_sensor}",
                    cell.expected_quadrant or "-",
                    f"{cell.hit_rate:.0%}",
                    f"{cell.mean_error_um:.0f}",
                    f"{cell.mean_margin_db:.1f}",
                    f"{cell.mean_windows:.0f}",
                    f"{float(np.mean(scan_windows)):.0f}" if scan_windows else "-",
                    "yes" if cell.success else "NO",
                )
            )
        header = (
            f"Localization sweep — grid {self.grid!r} ({len(cells)} cells, "
            f"window period {self.trace_period_s * 1e3:.2f} ms)\n"
        )
        return header + format_table(
            [
                "cell",
                "host",
                "quad",
                "hit-rate",
                "err [um]",
                "margin [dB]",
                "windows",
                "scan-win",
                "ok",
            ],
            rows,
        )


def _n_required_label(n_required: int) -> str:
    if n_required >= 10_000:
        return ">10,000"
    if n_required < 10:
        return "<10"
    return str(n_required)


def _json_float(value: float) -> "float | str":
    """JSON cannot carry infinities; keep them readable."""
    if np.isfinite(value):
        return float(value)
    return "inf" if value > 0 else "-inf"
