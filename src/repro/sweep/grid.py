"""Sweep grids: which detection cells to evaluate.

A *cell* is one complete detection scenario — a Trojan, the matched
Trojan-inactive reference workload, a sensor subset and a detector
tuning — evaluated over a baseline-then-active monitoring stream.  A
*grid* is an ordered set of cells plus rendering options; the named
presets reproduce the paper's Table I and Section VI-D artifacts and
give the CLI / benchmarks stable entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.analysis.detector import DEFAULT_MONITOR_SENSOR, DetectorConfig
from ..detectors import available as detectors_available
from ..errors import AnalysisError, unknown_name_error
from ..workloads.campaign import StreamSegment
from ..workloads.scenarios import reference_for, scenario_by_name

#: The four catalog Trojans, in paper order.
ALL_TROJANS: Tuple[str, ...] = ("T1", "T2", "T3", "T4")


@dataclass(frozen=True)
class SweepCell:
    """One detection scenario of a sweep grid.

    Attributes
    ----------
    trojan:
        Trojan-active scenario name (``"T1"``..``"T4"``).
    reference:
        Trojan-inactive workload of the stream's first span; ``"auto"``
        resolves the matched reference (T2 pairs with ``T2_ref``).
    sensors:
        Sensor subset monitored by the cell (one detector stream each).
    detector:
        Rolling-Welford detector tuning for every stream of the cell
        (consumed by the ``welford`` method; reference-free methods
        carry their own calibrated defaults).
    detector_name:
        Registered detection method evaluating the cell (see
        :mod:`repro.detectors`).
    n_baseline, n_active:
        Span lengths of the monitoring stream; the Trojan activates at
        trace ``n_baseline``.
    baseline_offset, active_offset:
        First workload/RNG trace index of each span — distinct offsets
        are distinct workload epochs (fresh plaintext streams).
    quantize:
        Pass traces through the RASC monitor's auto-ranged ADC before
        feature extraction (the deployed-monitor condition).
    z_threshold:
        Operating point of the reported detection rate (kept separate
        from ``detector.z_threshold``, which drives the alarm stream).
    label:
        Display name (auto-derived when empty).
    """

    trojan: str
    reference: str = "auto"
    sensors: Tuple[int, ...] = (DEFAULT_MONITOR_SENSOR,)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    detector_name: str = "welford"
    n_baseline: int = 8
    n_active: int = 6
    baseline_offset: int = 0
    active_offset: int = 500
    quantize: bool = False
    z_threshold: float = 4.0
    label: str = ""

    def __post_init__(self) -> None:
        scenario_by_name(self.trojan)  # validate early
        if self.reference == "auto":
            object.__setattr__(
                self, "reference", reference_for(self.trojan).name
            )
        scenario_by_name(self.reference)
        if self.detector_name not in detectors_available():
            raise unknown_name_error(
                "detector", self.detector_name, detectors_available()
            )
        if not self.sensors:
            raise AnalysisError("cell needs at least one sensor")
        if self.n_baseline < 2 or self.n_active < 2:
            raise AnalysisError(
                "need at least two traces per span for population statistics"
            )
        if self.detector.warmup >= self.n_baseline + self.n_active:
            raise AnalysisError(
                "detector warmup consumes the whole monitoring stream"
            )
        if not self.label:
            label = f"{self.trojan}|{self.reference}@{self.baseline_offset}"
            if self.detector_name != "welford":
                label += f"|{self.detector_name}"
            object.__setattr__(self, "label", label)

    @property
    def trigger_index(self) -> int:
        """Stream index of the first Trojan-active trace.

        An always-on cell references the Trojan scenario itself (its
        chip has no Trojan-quiet condition), so the implant is active
        from the very first trace: any alarm is a true detection, and
        the MTTD clock starts at stream index 0.
        """
        if scenario_by_name(self.reference).always_on:
            return 0
        return self.n_baseline

    @property
    def segments(self) -> List[StreamSegment]:
        """The cell's monitoring stream as campaign segments."""
        return [
            StreamSegment(self.reference, self.n_baseline, self.baseline_offset),
            StreamSegment(self.trojan, self.n_active, self.active_offset),
        ]


@dataclass(frozen=True)
class SweepGrid:
    """An ordered set of cells plus evaluation options.

    Attributes
    ----------
    name:
        Grid identity (report/JSON tag).
    cells:
        Cells in evaluation order.
    keep_features:
        Retain every cell's feature matrix on its result (presets keep
        them for downstream experiment adapters; large benchmark grids
        drop them).
    """

    name: str
    cells: Tuple[SweepCell, ...]
    keep_features: bool = True

    def __post_init__(self) -> None:
        if not self.cells:
            raise AnalysisError("grid has no cells")
        labels = [cell.label for cell in self.cells]
        if len(set(labels)) != len(labels):
            duplicate = next(l for l in labels if labels.count(l) > 1)
            raise AnalysisError(
                f"duplicate cell label {duplicate!r}; give colliding cells "
                "explicit labels"
            )

    @property
    def n_cells(self) -> int:
        """Cells in the grid."""
        return len(self.cells)

    @classmethod
    def product(
        cls,
        name: str,
        trojans: Sequence[str],
        references: Sequence[Tuple[str, int]] = (("auto", 0),),
        sensor_subsets: Sequence[Tuple[int, ...]] = ((DEFAULT_MONITOR_SENSOR,),),
        detectors: Sequence[DetectorConfig] = (DetectorConfig(),),
        detector_names: Sequence[str] = ("welford",),
        keep_features: bool = True,
        **cell_kwargs,
    ) -> "SweepGrid":
        """Cartesian grid over {trojan × reference × sensors × detector}.

        ``references`` pairs a scenario name with a workload epoch
        offset, so the same reference scenario at different offsets
        counts as different workload variants.  ``detectors`` varies
        the Welford tuning, ``detector_names`` the detection *method*.
        When an axis has more than one value, it is folded into the
        auto-derived cell labels so every cell stays addressable by
        label (non-``welford`` methods already label themselves).
        """
        cells = []
        for trojan in trojans:
            for reference, offset in references:
                for subset in sensor_subsets:
                    for position, detector in enumerate(detectors):
                        for detector_name in detector_names:
                            suffix = ""
                            if len(sensor_subsets) > 1:
                                suffix += "|s" + "-".join(
                                    str(s) for s in subset
                                )
                            if len(detectors) > 1:
                                suffix += f"|d{position}"
                            cell = SweepCell(
                                trojan=trojan,
                                reference=reference,
                                baseline_offset=offset,
                                sensors=tuple(subset),
                                detector=detector,
                                detector_name=detector_name,
                                **cell_kwargs,
                            )
                            if suffix:
                                cell = replace(
                                    cell, label=cell.label + suffix
                                )
                            cells.append(cell)
        return cls(name=name, cells=tuple(cells), keep_features=keep_features)


# -- named presets -------------------------------------------------------------


def table1_grid(n_traces: int = 10) -> SweepGrid:
    """Table I's PSA column: per-Trojan populations on the monitor sensor.

    The shared Table I protocol (see :mod:`repro.baselines.protocol`) —
    ``n_traces`` per population, inactive epoch at offset 0, active at
    700, no ADC in the loop — so the sweep reproduces the paper row
    (<10 measurements, every Trojan detected) through the batched
    engine.
    """
    detector = DetectorConfig(warmup=max(2, n_traces - 2))
    cells = [
        SweepCell(
            trojan=trojan,
            detector=detector,
            n_baseline=n_traces,
            n_active=n_traces,
            active_offset=700,
            quantize=False,
        )
        for trojan in ALL_TROJANS
    ]
    return SweepGrid(name="table1", cells=tuple(cells))


def mttd_grid(n_baseline: int = 8, n_active: int = 6) -> SweepGrid:
    """Section VI-D: the runtime monitoring stream of each Trojan.

    Matches the legacy ``run_mttd`` stream — RASC ADC in the loop,
    activation at ``n_baseline``, active epoch at offset 500 — so every
    Trojan alarms within the paper's <10-trace / <10 ms budget.
    """
    detector = DetectorConfig(warmup=max(2, n_baseline - 2))
    cells = [
        SweepCell(
            trojan=trojan,
            detector=detector,
            n_baseline=n_baseline,
            n_active=n_active,
            active_offset=500,
            quantize=True,
        )
        for trojan in ALL_TROJANS
    ]
    return SweepGrid(name="mttd", cells=tuple(cells))


def smoke_grid() -> SweepGrid:
    """A tiny two-cell grid for CI smoke runs and quick CLI checks."""
    detector = DetectorConfig(warmup=4)
    cells = [
        SweepCell(
            trojan=trojan,
            detector=detector,
            n_baseline=6,
            n_active=3,
            quantize=False,
        )
        for trojan in ("T1", "T4")
    ]
    return SweepGrid(name="smoke", cells=tuple(cells))


def benchmark_grid() -> SweepGrid:
    """The 4-Trojan × 4-workload throughput grid of ``BENCH_sweep.json``.

    Workload variants: the matched baseline epoch 0, the idle
    (powered, not encrypting) workload, the T2 alternating-plaintext
    reference and a second independent baseline epoch.  Cells share
    reference spans across Trojans and active spans across variants,
    which the orchestrator's record cache exploits.
    """
    references = [
        ("baseline", 0),
        ("idle", 0),
        ("T2_ref", 0),
        ("baseline", 5000),
    ]
    grid = SweepGrid.product(
        "bench4x4",
        trojans=ALL_TROJANS,
        references=references,
        detectors=(DetectorConfig(warmup=4),),
        keep_features=False,
        n_baseline=6,
        n_active=4,
        quantize=False,
    )
    return grid


#: The detection methods compared by the detector grids, in display
#: order.
DETECTOR_NAMES: Tuple[str, ...] = ("welford", "spectral", "persistence")

#: Every Trojan class of the comparative grid: the four triggered
#: catalog Trojans plus the always-on variant family.
DETECTOR_TROJANS: Tuple[str, ...] = ALL_TROJANS + ("T1A", "T2A", "TP")


def detectors_grid(n_baseline: int = 8, n_active: int = 6) -> SweepGrid:
    """The comparative detector × Trojan-class grid.

    Every registered builtin method evaluates every Trojan class —
    the four triggered catalog Trojans and the three always-on
    variants — over the same quantized monitoring stream as the
    ``mttd`` grid.  The resulting detected/missed matrix pins each
    method's structural blind spots (see
    ``tests/data/detector_grid_expected.json``): the self-baseline
    misses the always-on family it absorbs, the reference-free
    methods miss what their excess statistic or persistence horizon
    cannot see.
    """
    return SweepGrid.product(
        "detectors",
        trojans=DETECTOR_TROJANS,
        detectors=(DetectorConfig(warmup=max(2, n_baseline - 2)),),
        detector_names=DETECTOR_NAMES,
        keep_features=False,
        n_baseline=n_baseline,
        n_active=n_active,
        active_offset=500,
        quantize=True,
    )


def detectors_smoke_grid() -> SweepGrid:
    """CI-sized slice of :func:`detectors_grid`: one triggered Trojan
    (T1) and one always-on variant (T1A) under every method."""
    return SweepGrid.product(
        "detectors-smoke",
        trojans=("T1", "T1A"),
        detectors=(DetectorConfig(warmup=4),),
        detector_names=DETECTOR_NAMES,
        keep_features=False,
        n_baseline=6,
        n_active=4,
        active_offset=500,
        quantize=True,
    )


#: Named grid registry (CLI ``repro sweep --grid <name>``).
GRIDS: Dict[str, Callable[[], SweepGrid]] = {
    "table1": table1_grid,
    "mttd": mttd_grid,
    "smoke": smoke_grid,
    "bench4x4": benchmark_grid,
    "detectors": detectors_grid,
    "detectors-smoke": detectors_smoke_grid,
}


def build_grid(name: str) -> SweepGrid:
    """Instantiate a named grid preset."""
    if name not in GRIDS:
        raise unknown_name_error("sweep grid", name, sorted(GRIDS))
    return GRIDS[name]()
