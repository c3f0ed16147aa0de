"""Localization sweeps: {Trojan type × implant position × workload}.

The detection half of the paper scales through
:class:`~repro.sweep.orchestrator.DetectionSweep`; this module does
the same for the *localization* half (Section III-A / VI-D).  A
localization *cell* implants the four-Trojan cluster under a chosen
host sensor, activates one Trojan against its matched reference
workload, and runs the full localization flow — the 16-sensor score
map, the quadrant refinement, and optionally the adaptive quadtree
scan — all through the batched measurement engine (one engine pass
per score map, per refinement, and per scan level).

Every cell reports hit-rate over its repeats, localization error
[um], score-map margin [dB] and the programmed measurement windows it
took to converge, into the shared
:class:`~repro.sweep.report.SweepReport`.

Implant positions share everything the physics allows: coupling
geometry is placement-independent (the content-keyed cache is hit
across hosts), so a new position only re-simulates chip activity —
and a per-position record memo re-uses that across the position's
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..chip.floorplan import (
    DEFAULT_TROJAN_SENSOR,
    floorplan_with_trojans_at,
    trojan_cluster_rects,
)
from ..chip.power import ActivityRecord
from ..chip.testchip import TROJAN_NAMES, TestChip
from ..config import SimConfig
from ..core.analysis.localizer import QUADRANTS, Localizer
from ..core.analysis.mttd import MttdModel
from ..core.analysis.scanner import AdaptiveScanner
from ..core.array import ProgrammableSensorArray
from ..errors import AnalysisError, unknown_name_error
from ..instruments.spectrum_analyzer import SpectrumAnalyzer
from ..store import ArtifactStore
from ..workloads.campaign import MeasurementCampaign, StreamSegment
from ..workloads.scenarios import reference_for, scenario_by_name
from .report import LocalizeCellResult, LocalizeOutcome, SweepReport

#: Ground-truth quadrant of each Trojan inside its host sensor (the
#: cluster layout of :func:`repro.chip.floorplan.trojan_cluster_rects`).
EXPECTED_QUADRANTS: Dict[str, str] = {
    "T1": "nw",
    "T2": "ne",
    "T3": "sw",
    "T4": "se",
}

#: The AES key programmed into every sweep chip.
SWEEP_KEY = bytes(range(16))


@dataclass(frozen=True)
class LocalizeCell:
    """One localization scenario of a sweep grid.

    Attributes
    ----------
    trojan:
        Trojan-active scenario name (``"T1"``..``"T4"``).
    position:
        Host sensor the Trojan cluster is implanted under (0..15).
    reference:
        Trojan-inactive workload of the baseline population;
        ``"auto"`` resolves the matched reference (T2 pairs with
        ``T2_ref``).
    n_records:
        Activity records per population and repeat.
    n_repeats:
        Independent localization repeats (hit-rate denominator); each
        repeat uses a fresh span of workload/RNG trace indices.
    baseline_offset, active_offset:
        First workload/RNG trace index of each population — distinct
        offsets are distinct workload epochs.
    refine:
        Run the quadrant refinement after the score map.
    scan:
        Also run the adaptive quadtree scan (adds the
        windows-to-converge / coarse-error metrics).
    label:
        Display name (auto-derived when empty).
    """

    trojan: str
    position: int = DEFAULT_TROJAN_SENSOR
    reference: str = "auto"
    n_records: int = 3
    n_repeats: int = 1
    baseline_offset: int = 0
    active_offset: int = 500
    refine: bool = True
    scan: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.trojan not in TROJAN_NAMES:
            raise AnalysisError(
                f"unknown Trojan {self.trojan!r}; expected one of "
                f"{sorted(TROJAN_NAMES)}"
            )
        if not 0 <= self.position < 16:
            raise AnalysisError(
                f"implant position {self.position} outside 0..15"
            )
        if self.reference == "auto":
            object.__setattr__(
                self, "reference", reference_for(self.trojan).name
            )
        scenario_by_name(self.reference)
        if self.n_records < 1:
            raise AnalysisError("need at least one record per population")
        if self.n_repeats < 1:
            raise AnalysisError("need at least one repeat")
        if not self.label:
            object.__setattr__(
                self,
                "label",
                f"{self.trojan}@s{self.position}"
                f"|{self.reference}@{self.baseline_offset}",
            )

    @property
    def expected_quadrant(self) -> str:
        """Ground-truth quadrant of the cell's Trojan."""
        return EXPECTED_QUADRANTS[self.trojan]


@dataclass(frozen=True)
class LocalizeGrid:
    """An ordered set of localization cells plus evaluation options.

    Attributes
    ----------
    name:
        Grid identity (report/JSON tag).
    cells:
        Cells in evaluation order.
    keep_details:
        Retain each repeat's full
        :class:`~repro.core.analysis.localizer.LocalizationResult` on
        the cell result (experiment adapters want them; big grids
        drop them).
    """

    name: str
    cells: Tuple[LocalizeCell, ...]
    keep_details: bool = False

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

    @property
    def positions(self) -> Tuple[int, ...]:
        """Distinct implant positions, in first-seen order."""
        seen: List[int] = []
        for cell in self.cells:
            if cell.position not in seen:
                seen.append(cell.position)
        return tuple(seen)

    @classmethod
    def product(
        cls,
        name: str,
        trojans: Sequence[str],
        positions: Sequence[int] = (DEFAULT_TROJAN_SENSOR,),
        references: Sequence[Tuple[str, int]] = (("auto", 0),),
        keep_details: bool = False,
        **cell_kwargs,
    ) -> "LocalizeGrid":
        """Cartesian grid over {trojan × implant position × workload}.

        ``references`` pairs a reference scenario name with a workload
        epoch offset (the workload axis), mirroring
        :meth:`repro.sweep.grid.SweepGrid.product`.

        Returns
        -------
        LocalizeGrid
            One cell per combination, labels disambiguated by
            construction (position and epoch are part of the label).
        """
        cells = []
        for trojan in trojans:
            for position in positions:
                for reference, offset in references:
                    cells.append(
                        LocalizeCell(
                            trojan=trojan,
                            position=position,
                            reference=reference,
                            baseline_offset=offset,
                            **cell_kwargs,
                        )
                    )
        return cls(name=name, cells=tuple(cells), keep_details=keep_details)


# -- named presets -------------------------------------------------------------


def localize_grid() -> LocalizeGrid:
    """The headline localization grid: 2 Trojans × 3 implant positions.

    T1 (falling-phase leaker) and T4 (rising-phase power virus) are
    implanted under the paper's host (sensor 10) and under two
    relocated hosts on the die diagonal (6 and 15), with the full flow
    enabled — score map, quadrant refinement and adaptive scan — and
    two repeats per cell for the hit-rate.
    """
    return LocalizeGrid.product(
        "localize",
        trojans=("T1", "T4"),
        positions=(6, DEFAULT_TROJAN_SENSOR, 15),
        scan=True,
        n_records=3,
        n_repeats=2,
    )


def localize_smoke_grid() -> LocalizeGrid:
    """A tiny two-cell grid for CI smoke runs and quick CLI checks."""
    cells = (
        LocalizeCell(trojan="T4", n_records=2),
        LocalizeCell(trojan="T1", position=15, n_records=2),
    )
    return LocalizeGrid(name="localize-smoke", cells=cells)


def localize_full_grid() -> LocalizeGrid:
    """The exhaustive family: 4 Trojans × 4 positions × 2 workloads."""
    return LocalizeGrid.product(
        "localize-full",
        trojans=TROJAN_NAMES,
        positions=(0, 6, DEFAULT_TROJAN_SENSOR, 15),
        references=(("auto", 0), ("auto", 5000)),
        scan=True,
        n_records=3,
        n_repeats=2,
    )


#: Named localization grid registry (CLI ``repro sweep --grid <name>``).
LOCALIZE_GRIDS: Dict[str, Callable[[], LocalizeGrid]] = {
    "localize": localize_grid,
    "localize-smoke": localize_smoke_grid,
    "localize-full": localize_full_grid,
}


def build_localize_grid(name: str) -> LocalizeGrid:
    """Instantiate a named localization grid preset."""
    if name not in LOCALIZE_GRIDS:
        raise unknown_name_error(
            "localization grid", name, sorted(LOCALIZE_GRIDS)
        )
    return LOCALIZE_GRIDS[name]()


# -- orchestration -------------------------------------------------------------


@dataclass
class _PositionBundle:
    """Everything one implant position shares across its cells."""

    chip: TestChip
    campaign: MeasurementCampaign
    localizer: Localizer
    scanner: AdaptiveScanner
    record_cache: MutableMapping[Tuple[str, int], ActivityRecord] = field(
        default_factory=dict
    )


class LocalizationSweep:
    """Grid evaluator for localization cells.

    One chip (+ PSA + campaign) is assembled per distinct implant
    position and shared across that position's cells; coupling
    geometry is shared across *all* positions through the content-
    keyed cache, and a per-position record memo re-uses chip activity
    across cells and repeats.  All rendering — score maps, quadrant
    refinements, scan levels — goes through the batched engine.

    Parameters
    ----------
    config:
        Simulation configuration shared by every position's chip.
    analyzer:
        Spectrum analyzer model (paper display settings by default).
    campaign:
        Optional prebuilt campaign reused for cells at the default
        implant position (sensor 10) — the experiment adapters pass
        theirs so nothing is rebuilt.  Its chip must carry the
        default Trojan cluster and match ``config``; relocated-
        position bundles inherit its key so every cell of a grid
        evaluates the same chip family.
    key:
        AES key programmed into assembled chips (default: the
        injected campaign's key, else the standard sweep key).
    mttd_model:
        Per-window timing used for the report's capture cadence.
    store:
        Optional :class:`~repro.store.ArtifactStore`.  Each position's
        record memo becomes a persistent store view keyed by that
        position's chip fingerprint, so repeated localization sweeps
        (and any other consumer of the same chips) warm-start
        bit-identically from disk.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        analyzer: Optional[SpectrumAnalyzer] = None,
        campaign: Optional[MeasurementCampaign] = None,
        key: Optional[bytes] = None,
        mttd_model: Optional[MttdModel] = None,
        store: Optional[ArtifactStore] = None,
    ):
        self.config = config or (
            campaign.chip.config if campaign is not None else SimConfig()
        )
        self.analyzer = analyzer or SpectrumAnalyzer()
        if key is None:
            key = campaign.chip.key if campaign is not None else SWEEP_KEY
        self.key = key
        self.mttd_model = mttd_model or MttdModel()
        self.store = store
        self._bundles: Dict[int, _PositionBundle] = {}
        if campaign is not None:
            if campaign.chip.config != self.config:
                raise AnalysisError(
                    "injected campaign's chip config does not match the "
                    "sweep config"
                )
            expected = trojan_cluster_rects(DEFAULT_TROJAN_SENSOR)
            for trojan, rects in expected.items():
                if campaign.chip.floorplan.placements.get(trojan) != rects:
                    raise AnalysisError(
                        "injected campaign's chip does not carry the "
                        f"default Trojan cluster ({trojan} is elsewhere); "
                        "build position-specific chips through the sweep "
                        "instead"
                    )
            self._bundles[DEFAULT_TROJAN_SENSOR] = self._wrap(campaign)

    def _wrap(self, campaign: MeasurementCampaign) -> _PositionBundle:
        if self.store is None:
            record_cache: MutableMapping = {}
        else:
            record_cache = self.store.records(campaign.chip)
        return _PositionBundle(
            chip=campaign.chip,
            campaign=campaign,
            localizer=Localizer(campaign.psa, analyzer=self.analyzer),
            scanner=AdaptiveScanner(campaign.psa, analyzer=self.analyzer),
            record_cache=record_cache,
        )

    def _bundle(self, position: int) -> _PositionBundle:
        """The shared chip/PSA/campaign of one implant position."""
        bundle = self._bundles.get(position)
        if bundle is None:
            chip = TestChip(
                self.key,
                self.config,
                floorplan=floorplan_with_trojans_at(position),
            )
            psa = ProgrammableSensorArray(chip)
            bundle = self._wrap(MeasurementCampaign(chip, psa))
            self._bundles[position] = bundle
        return bundle

    def run(self, grid: LocalizeGrid) -> SweepReport:
        """Evaluate every cell of a localization grid.

        The score-map renders of every (cell, repeat) prefetch as one
        fused engine pass across the whole grid (cells sharing an
        implant position fuse into one job); the data-dependent stages (quadrant refinement,
        adaptive scan) then run per cell exactly as standalone.
        Results are bit-identical to the unfused path.

        Returns
        -------
        SweepReport
            One :class:`~repro.sweep.report.LocalizeCellResult` per
            cell, in grid order.
        """
        prefetched = self._prefetch_scores(grid.cells)
        cells = tuple(
            self._evaluate(cell, grid.keep_details, prefetched.get(index))
            for index, cell in enumerate(grid.cells)
        )
        return SweepReport(
            grid=grid.name,
            trace_period_s=self.mttd_model.trace_period(self.config),
            cells=cells,
        )

    def close(self) -> None:
        """Drop every position bundle's capture-plan memo."""
        for bundle in self._bundles.values():
            bundle.campaign.close()

    def _prefetch_scores(self, cells) -> Dict[int, List[np.ndarray]]:
        """Fused score-map prefetch; ``{cell index: [scores per repeat]}``."""
        from ..engine import RenderPlan

        plan = RenderPlan()
        handles: Dict[int, List[tuple]] = {}
        for index, cell in enumerate(cells):
            bundle = self._bundle(cell.position)
            per_repeat = []
            for repeat in range(cell.n_repeats):
                shift = repeat * cell.n_records
                base = self._records(
                    bundle,
                    cell.reference,
                    cell.baseline_offset + shift,
                    cell.n_records,
                )
                active = self._records(
                    bundle,
                    cell.trojan,
                    cell.active_offset + shift,
                    cell.n_records,
                )
                tickets = bundle.localizer.enqueue_score_map(
                    plan, base, active
                )
                per_repeat.append((bundle.localizer, tickets))
            handles[index] = per_repeat
        if not len(plan):
            return {}
        plan.execute()
        return {
            index: [
                localizer.finish_score_map(tickets)
                for localizer, tickets in per_repeat
            ]
            for index, per_repeat in handles.items()
        }

    # -- per-cell evaluation ---------------------------------------------------

    def _records(
        self, bundle: _PositionBundle, scenario: str, offset: int, count: int
    ) -> List[ActivityRecord]:
        """Activity records via the position's record memo."""
        return bundle.campaign.stream_records(
            [StreamSegment(scenario, count, offset)], bundle.record_cache
        )

    def _evaluate(
        self,
        cell: LocalizeCell,
        keep_details: bool,
        prefetched: "Optional[List[np.ndarray]]" = None,
    ) -> LocalizeCellResult:
        bundle = self._bundle(cell.position)
        truth = bundle.chip.floorplan.placements[cell.trojan][0].center
        expected_quadrant = cell.expected_quadrant if cell.refine else None
        outcomes: List[LocalizeOutcome] = []
        details: List[object] = []
        for repeat in range(cell.n_repeats):
            shift = repeat * cell.n_records
            base = self._records(
                bundle, cell.reference, cell.baseline_offset + shift, cell.n_records
            )
            active = self._records(
                bundle, cell.trojan, cell.active_offset + shift, cell.n_records
            )
            result = bundle.localizer.localize(
                base,
                active,
                refine=cell.refine,
                scores=None if prefetched is None else prefetched[repeat],
            )
            windows = bundle.campaign.psa.n_sensors
            if cell.refine:
                windows += len(QUADRANTS)
            scan_windows: Optional[int] = None
            scan_error_um: Optional[float] = None
            if cell.scan:
                scan_result = bundle.scanner.scan(base, active)
                scan_windows = scan_result.n_measurement_windows
                scan_error_um = 1e6 * float(
                    np.hypot(
                        scan_result.position[0] - truth[0],
                        scan_result.position[1] - truth[1],
                    )
                )
                windows += scan_windows
            hit = result.sensor_index == cell.position and (
                not cell.refine or result.quadrant == expected_quadrant
            )
            error_um = 1e6 * float(
                np.hypot(
                    result.position[0] - truth[0],
                    result.position[1] - truth[1],
                )
            )
            outcomes.append(
                LocalizeOutcome(
                    hit=hit,
                    sensor_index=result.sensor_index,
                    quadrant=result.quadrant,
                    margin_db=result.margin_db,
                    error_um=error_um,
                    windows=windows,
                    scan_windows=scan_windows,
                    scan_error_um=scan_error_um,
                )
            )
            if keep_details:
                details.append(result)
        return LocalizeCellResult(
            label=cell.label,
            trojan=cell.trojan,
            reference=cell.reference,
            host_sensor=cell.position,
            expected_quadrant=expected_quadrant,
            outcomes=tuple(outcomes),
            details=tuple(details) if keep_details else None,
        )
