"""Shared evaluation protocol for the Table I comparison.

Every method exposes a per-trace scalar detection statistic.  For each
Trojan we measure the statistic's populations with the Trojan inactive
and active (matched workloads), then derive:

* the **effect size** (Cohen's d),
* the **required measurement count** for a 95 %-power detection at a
  1e-3 false-positive rate (the "Measurement#" row of Table I),
* the **detection rate** at the method's nominal trace budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..dsp.stats import cohens_d, detection_rate, required_measurements
from ..errors import AnalysisError

#: Trojans evaluated by the comparison.
EVALUATED_TROJANS = ("T1", "T2", "T3", "T4")


@dataclass(frozen=True)
class TrojanOutcome:
    """Per-Trojan evaluation of one method.

    Attributes
    ----------
    trojan:
        Trojan name.
    effect_size:
        Cohen's d between active and inactive statistic populations.
    n_required:
        Measurements needed for 95 % power at alpha = 1e-3.
    detection_rate:
        Fraction of active traces flagged at the method's budget.
    """

    trojan: str
    effect_size: float
    n_required: int
    detection_rate: float


@dataclass
class MethodReport:
    """Table I row for one method.

    Attributes
    ----------
    name:
        Method label.
    outcomes:
        Per-Trojan results.
    snr_db:
        He-style SNR of the method's receiver (Equation (1)).
    localization:
        Whether the method can point at a die location.
    runtime:
        Whether the method deploys at run time (no bench equipment).
    """

    name: str
    outcomes: Dict[str, TrojanOutcome] = field(default_factory=dict)
    snr_db: float = float("nan")
    localization: bool = False
    runtime: bool = False

    @property
    def worst_n_required(self) -> int:
        """Measurement count for the hardest Trojan."""
        if not self.outcomes:
            raise AnalysisError("method report has no outcomes")
        return max(outcome.n_required for outcome in self.outcomes.values())

    @property
    def mean_detection_rate(self) -> float:
        """Average detection rate across Trojans."""
        if not self.outcomes:
            raise AnalysisError("method report has no outcomes")
        return float(
            np.mean([o.detection_rate for o in self.outcomes.values()])
        )

    def rate_label(self, threshold: float = 0.85) -> str:
        """Table I's qualitative "High"/"Low" detection-rate label.

        "High" means the method detects the great majority of the
        Trojans at its operating point.
        """
        return "High" if self.mean_detection_rate >= threshold else "Low"


def outcome_from_populations(
    trojan: str,
    inactive: np.ndarray,
    active: np.ndarray,
    z_threshold: float = 4.0,
) -> TrojanOutcome:
    """Build a :class:`TrojanOutcome` from measured statistic samples."""
    inactive = np.asarray(inactive, dtype=float)
    active = np.asarray(active, dtype=float)
    if inactive.size < 2 or active.size < 2:
        raise AnalysisError("need at least two samples per population")
    d = cohens_d(active, inactive)
    return TrojanOutcome(
        trojan=trojan,
        effect_size=d,
        n_required=required_measurements(d),
        detection_rate=detection_rate(active, inactive, z_threshold),
    )
