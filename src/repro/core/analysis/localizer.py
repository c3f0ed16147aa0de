"""Trojan localization from the per-sensor score map.

Stage 3 of the cross-domain analysis: each of the 16 sensors gets a
score — the dB change of its sideband feature between Trojan-active
and Trojan-inactive populations.  The Trojan sits under the argmax
sensor (sensor 10 in the paper's chip); a Trojan-free sensor such as
sensor 0 shows "hardly any spectrum difference".

The PSA's programmability then buys what no fixed sensor can: the
lattice is reprogrammed into four half-size quadrant coils inside the
hot sensor and re-measured, narrowing the physical location to a
quadrant center (~170 um at the paper's geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ...chip.power import ActivityRecord
from ...errors import AnalysisError
from ...instruments.spectrum_analyzer import SpectrumAnalyzer
from ..array import ProgrammableSensorArray
from ..sensors import quadrant_coil
from .spectral import (
    added_sideband_scores,
    batch_sideband_amplitudes,
    sideband_columns,
)

#: Quadrant labels used by the refinement step.
QUADRANTS = ("sw", "se", "nw", "ne")


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of the localization stage.

    Attributes
    ----------
    sensor_index:
        The hot sensor (argmax of the score map).
    scores:
        Per-sensor added sideband amplitude [V], shape ``(16,)``.
    margin_db:
        Amplitude gap between the hot sensor and the runner-up [dB].
    quadrant:
        Refined quadrant of the hot sensor (None if not refined).
    quadrant_scores:
        Added amplitude per quadrant [V] (None if not refined).
    position:
        Estimated Trojan (x, y) on the die [m]: the refined quadrant's
        center, or the sensor center without refinement.
    """

    sensor_index: int
    scores: np.ndarray
    margin_db: float
    quadrant: Optional[str]
    quadrant_scores: Optional[Dict[str, float]]
    position: Tuple[float, float]


class Localizer:
    """Score-map localization with optional adaptive refinement.

    Parameters
    ----------
    psa:
        The sensor array to measure with.
    analyzer:
        Spectrum analyzer model.
    """

    def __init__(
        self,
        psa: ProgrammableSensorArray,
        analyzer: Optional[SpectrumAnalyzer] = None,
    ):
        self.psa = psa
        self.analyzer = analyzer or SpectrumAnalyzer()

    # -- score map ---------------------------------------------------------------

    def enqueue_score_map(
        self,
        plan,
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
    ):
        """Enqueue a score map's renders on a fused dispatch plan.

        Both populations render at the rFFT columns the sideband
        features read (:func:`~.spectral.sideband_columns`).  They
        share the coupling matrix, the full sensor set and those
        columns, so the plan fuses both (and any other score maps
        enqueued alongside) into one engine job.  Feed the returned
        handle to :meth:`finish_score_map` after ``plan.execute()``.
        """
        if not baseline_records or not active_records:
            raise AnalysisError("no activity records supplied")
        columns = sideband_columns(self.analyzer, self.psa.config)
        base = self.psa.enqueue(
            plan,
            baseline_records,
            trace_indices=list(range(len(baseline_records))),
            columns=columns,
        )
        active = self.psa.enqueue(
            plan,
            active_records,
            trace_indices=[1000 + i for i in range(len(active_records))],
            columns=columns,
        )
        return base, active

    def finish_score_map(self, tickets) -> np.ndarray:
        """Score map from an executed :meth:`enqueue_score_map` handle."""
        base, active = (
            batch_sideband_amplitudes(
                ticket.result(), self.analyzer, self.psa.config
            ).mean(axis=1)
            for ticket in tickets
        )
        return active - base

    def score_map(
        self,
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
    ) -> np.ndarray:
        """Per-sensor *added* sideband amplitude [V], shape ``(16,)``.

        Linear amplitudes keep the ranking physical: all 16 coils are
        identical, so the sensor over the Trojan gains the most
        amplitude.  (A dB-change map would instead favor quiet corner
        sensors that pick up a whiff of the Trojan through the global
        package loop.)

        Both populations render as one fused engine pass at the
        sideband columns (they share the coupling matrix, sensor set
        and columns); each row is bit-identical to its standalone
        render, and the map equals that of full-rendered samples
        through the display up to the rounding of the irFFT → rFFT
        round trip.
        """
        from ...engine import RenderPlan

        plan = RenderPlan()
        tickets = self.enqueue_score_map(
            plan, baseline_records, active_records
        )
        plan.execute()
        return self.finish_score_map(tickets)

    # -- localization ---------------------------------------------------------------

    def localize(
        self,
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
        refine: bool = True,
        scores: Optional[np.ndarray] = None,
    ) -> LocalizationResult:
        """Run the full localization stage.

        Parameters
        ----------
        baseline_records, active_records:
            Matched Trojan-inactive / Trojan-active activity records.
        refine:
            Reprogram the hot sensor into four quadrant coils and
            narrow the estimate to a quadrant center (~170 um).
        scores:
            Prefetched score map for these records (from
            :meth:`enqueue_score_map`/:meth:`finish_score_map` on a
            fused plan); None computes it here.  Both routes are
            bit-identical.

        Returns
        -------
        LocalizationResult
            Hot sensor, score map [V], margin [dB], optional quadrant
            refinement and the position estimate [m].
        """
        if scores is None:
            scores = self.score_map(baseline_records, active_records)
        order = np.argsort(scores)
        hot = int(order[-1])
        runner_up = max(float(scores[order[-2]]), 1e-15)
        margin = float(
            20.0 * np.log10(max(scores[order[-1]], 1e-15) / runner_up)
        )

        quadrant = None
        quadrant_scores: Optional[Dict[str, float]] = None
        coil = self.psa.sensor_coil(hot)
        # Default position: hot sensor's outer-turn center.
        position = coil.turn_rects[0].center

        if refine:
            quadrant_scores = self._refine(hot, baseline_records, active_records)
            quadrant = max(quadrant_scores, key=quadrant_scores.get)
            refined_coil = quadrant_coil(hot, quadrant)
            position = refined_coil.turn_rects[0].center

        return LocalizationResult(
            sensor_index=hot,
            scores=scores,
            margin_db=margin,
            quadrant=quadrant,
            quadrant_scores=quadrant_scores,
            position=position,
        )

    def _refine(
        self,
        sensor_index: int,
        baseline_records: Sequence[ActivityRecord],
        active_records: Sequence[ActivityRecord],
    ) -> Dict[str, float]:
        """Reprogram quadrant coils and score them.

        All four quadrant coils render over both populations in
        **one** engine pass at the sideband columns (a coupling stack,
        one receiver row per quadrant), and every band feature comes
        from one vectorized display pass.

        Returns
        -------
        dict
            Added sideband amplitude [V] per quadrant label.
        """
        coils = [quadrant_coil(sensor_index, which) for which in QUADRANTS]
        scores = added_sideband_scores(
            self.psa,
            self.analyzer,
            coils,
            baseline_records,
            active_records,
            active_offset=2000,
        )
        return {which: float(score) for which, score in zip(QUADRANTS, scores)}
