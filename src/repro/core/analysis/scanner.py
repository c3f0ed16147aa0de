"""Adaptive scan localization — reshaping the array at run time.

Section III-A motivates the PSA's programmability: "it facilitates the
localization of any detected HTs by reshaping the sensing array."  The
fixed 16-sensor map (:mod:`~repro.core.analysis.localizer`) uses one
static shape; this module exploits the full flexibility: a quadtree
descent that starts from die-quadrant-scale coils and re-programs
progressively smaller windows around the strongest response, narrowing
the Trojan position without any precommitted sensor layout.

Each level programs five overlapping child windows of roughly half the
parent's size (four corners + center), scores each by the *added*
sideband amplitude between Trojan-active and Trojan-inactive captures,
and descends into the argmax.  A level is rendered as **one batched
engine pass** over every (window, record) capture — the windows'
coupling geometries are content-cached per synthesized coil, so
revisited windows cost nothing to rebuild — and each window's score
is bit-identical to scoring that window on its own (the engine's
determinism contract).

The scan is a *coarse* stage: thin-loop responses near window edges
bias the descent by up to ~2 lattice pitches per level, so the
converged position is good to roughly a window size (~200 um on the
1 mm die).  Use it to narrow the search without any precommitted
layout, then hand over to the fixed 16-sensor map with quadrant
refinement (:mod:`~repro.core.analysis.localizer`) for the precise
fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...chip.power import ActivityRecord
from ...errors import AnalysisError
from ...instruments.spectrum_analyzer import SpectrumAnalyzer
from ..array import ProgrammableSensorArray
from ..coil import Coil, synthesize_rect_coil
from ..grid import N_WIRES, PITCH
from .spectral import added_sideband_scores


@dataclass(frozen=True)
class ScanWindow:
    """One programmed scan window.

    Attributes
    ----------
    col0, row0:
        Lattice origin of the window's outer turn.
    size:
        Window side in lattice pitches.
    score:
        Added sideband amplitude [V] measured through this window.
    """

    col0: int
    row0: int
    size: int
    score: float

    @property
    def center(self) -> Tuple[float, float]:
        """Die coordinates of the window center [m]."""
        return (
            (self.col0 + self.size / 2.0) * PITCH,
            (self.row0 + self.size / 2.0) * PITCH,
        )


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one adaptive scan.

    Attributes
    ----------
    position:
        Estimated Trojan location [m] (final window center).
    levels:
        Windows evaluated per level (each a list of four candidates).
    path:
        The winning window per level, coarse to fine.
    """

    position: Tuple[float, float]
    levels: List[List[ScanWindow]]
    path: List[ScanWindow]

    @property
    def final_window(self) -> ScanWindow:
        """The finest window the scan converged to."""
        return self.path[-1]

    @property
    def n_measurement_windows(self) -> int:
        """Programmed windows across the whole scan."""
        return sum(len(level) for level in self.levels)


class AdaptiveScanner:
    """Quadtree descent over programmable coils.

    Parameters
    ----------
    psa:
        The sensor array to program.
    analyzer:
        Spectrum analyzer model.
    min_size:
        Stop descending when the window side reaches this many
        pitches (6 pitches ~ 170 um).
    turns:
        Turns per scan coil (1 keeps the response monotonic in
        containment; see :func:`repro.core.sensors.quadrant_coil`).
    """

    def __init__(
        self,
        psa: ProgrammableSensorArray,
        analyzer: Optional[SpectrumAnalyzer] = None,
        min_size: int = 6,
        turns: int = 1,
    ):
        if min_size < 2:
            raise AnalysisError("min_size must be >= 2 pitches")
        self.psa = psa
        self.analyzer = analyzer or SpectrumAnalyzer()
        self.min_size = min_size
        self.turns = turns

    # -- scoring -----------------------------------------------------------------

    def _window_coil(self, col0: int, row0: int, size: int) -> Coil:
        return synthesize_rect_coil(
            name=f"scan_{col0}_{row0}_{size}",
            col0=col0,
            row0=row0,
            size=size,
            turns=self.turns,
        )

    def _score_windows(
        self,
        coils: Sequence[Coil],
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
    ) -> List[float]:
        """Added sideband amplitude [V] of every window of one level.

        All (window, record) captures of the level render in one
        engine pass at the sideband columns (``measure_coils_batch``
        over a coupling stack) and every band feature comes from one
        vectorized display pass (see
        :func:`~.spectral.added_sideband_scores`).
        """
        scores = added_sideband_scores(
            self.psa,
            self.analyzer,
            coils,
            baseline_records,
            active_records,
            active_offset=3000,
        )
        return [float(score) for score in scores]

    # -- descent -----------------------------------------------------------------

    def _children(
        self, col0: int, row0: int, size: int
    ) -> List[Tuple[int, int, int]]:
        """Overlapping half-size child windows, clamped to the lattice.

        Four corner children plus a centered one: a source sitting on a
        corner-children boundary is otherwise seen only edge-on, where
        the thin-loop response is least informative.
        """
        child = max(self.min_size, size // 2 + 1)
        far_c = min(col0 + size - child, N_WIRES - 1 - child)
        far_r = min(row0 + size - child, N_WIRES - 1 - child)
        mid_c = min((col0 + far_c) // 2, N_WIRES - 1 - child)
        mid_r = min((row0 + far_r) // 2, N_WIRES - 1 - child)
        children = {
            (col0, row0, child),
            (far_c, row0, child),
            (col0, far_r, child),
            (far_c, far_r, child),
            (mid_c, mid_r, child),
        }
        return sorted(children)

    def scan(
        self,
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
        start: Tuple[int, int, int] = (0, 0, N_WIRES - 1),
    ) -> ScanResult:
        """Run the descent; returns the refined position estimate.

        Parameters
        ----------
        baseline_records, active_records:
            Matched Trojan-inactive / Trojan-active activity records.
        start:
            Root window ``(col0, row0, size)`` — the whole lattice by
            default.

        Returns
        -------
        ScanResult
            Final position estimate [m] plus the full descent history.
        """
        if not baseline_records or not active_records:
            raise AnalysisError("need records for both populations")
        col0, row0, size = start
        levels: List[List[ScanWindow]] = []
        path: List[ScanWindow] = []
        while size > self.min_size:
            children = self._children(col0, row0, size)
            coils = [
                self._window_coil(c_col, c_row, c_size)
                for c_col, c_row, c_size in children
            ]
            scores = self._score_windows(
                coils, baseline_records, active_records
            )
            candidates = [
                ScanWindow(col0=c_col, row0=c_row, size=c_size, score=score)
                for (c_col, c_row, c_size), score in zip(children, scores)
            ]
            levels.append(candidates)
            best = max(candidates, key=lambda window: window.score)
            path.append(best)
            if best.size == size:  # clamped: no further progress possible
                break
            col0, row0, size = best.col0, best.row0, best.size
        if not path:
            raise AnalysisError(
                f"root window {start} is already at or below min_size"
            )
        return ScanResult(
            position=path[-1].center, levels=levels, path=path
        )
