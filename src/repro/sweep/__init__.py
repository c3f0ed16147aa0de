"""Detection-sweep orchestration over the batched measurement engine.

Evaluates grids of {Trojan × workload × sensor subset × detector
config} detection cells and grids of {Trojan × implant position ×
workload} localization cells: each cell renders as batched engine
passes (monitoring streams, score maps, quadrant refinements, scan
levels), and the per-cell scorecard — ROC-AUC / detection rate /
required measurements / MTTD for detection, hit-rate / localization
error / margin / windows-to-converge for localization — lands in a
structured :class:`~repro.sweep.report.SweepReport`.

The named presets make the paper's headline artifacts grid
configurations::

    repro sweep --grid table1     # Table I PSA row via the engine
    repro sweep --grid mttd       # Section VI-D MTTD budget
    repro sweep --grid localize   # Section VI-D localization, incl.
                                  # relocated Trojan implants
    repro sweep --grid detectors  # comparative detector x Trojan-class
                                  # blind-spot matrix

and ``experiments.table1`` / ``experiments.mttd`` /
``experiments.localization`` are thin adapters over the same presets.
"""

from .grid import (
    ALL_TROJANS,
    DETECTOR_NAMES,
    DETECTOR_TROJANS,
    GRIDS,
    SweepCell,
    SweepGrid,
    benchmark_grid,
    build_grid,
    detectors_grid,
    detectors_smoke_grid,
    mttd_grid,
    smoke_grid,
    table1_grid,
)
from .localize import (
    EXPECTED_QUADRANTS,
    LOCALIZE_GRIDS,
    LocalizationSweep,
    LocalizeCell,
    LocalizeGrid,
    build_localize_grid,
    localize_full_grid,
    localize_grid,
    localize_smoke_grid,
)
from .orchestrator import RASC_ADC, DetectionSweep
from .report import (
    BUDGET_SECONDS,
    BUDGET_TRACES,
    LocalizeCellResult,
    LocalizeOutcome,
    SensorOutcome,
    SweepCellResult,
    SweepReport,
)

__all__ = [
    "ALL_TROJANS",
    "DETECTOR_NAMES",
    "DETECTOR_TROJANS",
    "GRIDS",
    "SweepCell",
    "SweepGrid",
    "benchmark_grid",
    "build_grid",
    "detectors_grid",
    "detectors_smoke_grid",
    "mttd_grid",
    "smoke_grid",
    "table1_grid",
    "EXPECTED_QUADRANTS",
    "LOCALIZE_GRIDS",
    "LocalizationSweep",
    "LocalizeCell",
    "LocalizeGrid",
    "build_localize_grid",
    "localize_full_grid",
    "localize_grid",
    "localize_smoke_grid",
    "RASC_ADC",
    "DetectionSweep",
    "BUDGET_SECONDS",
    "BUDGET_TRACES",
    "LocalizeCellResult",
    "LocalizeOutcome",
    "SensorOutcome",
    "SweepCellResult",
    "SweepReport",
]
