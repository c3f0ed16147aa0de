"""Detection statistics: effect sizes, required measurement counts, ROC.

Table I of the paper compares methods by the *number of measurements*
needed to detect a Trojan (<10 for the PSA, ~100 for backscattering,
>10,000 for external probes and the single on-chip coil).  Rather than
simulating tens of thousands of traces, we estimate the required
measurement count from the measured per-trace effect size with a
standard two-sample power analysis — the same reasoning the prior works
use when they report trace budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ..errors import AnalysisError

#: ``n_required`` of an effect no sample size can be trusted to detect
#: (reports print it as ">10,000").
UNRESOLVED = 10**9


@dataclass(frozen=True)
class DetectionPower:
    """Result of a power analysis for a two-population detector.

    Attributes
    ----------
    effect_size:
        Cohen's d between the Trojan-active and Trojan-inactive
        populations of the detection statistic.
    n_required:
        Measurements required per population for the target power.
    alpha:
        False-positive rate used.
    power:
        Statistical power used.
    """

    effect_size: float
    n_required: int
    alpha: float
    power: float


def cohens_d(active: np.ndarray, inactive: np.ndarray) -> float:
    """Cohen's d with pooled standard deviation."""
    active = np.asarray(active, dtype=float)
    inactive = np.asarray(inactive, dtype=float)
    if active.size < 2 or inactive.size < 2:
        raise AnalysisError("need at least two samples per population")
    n1, n2 = active.size, inactive.size
    v1, v2 = active.var(ddof=1), inactive.var(ddof=1)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    diff = float(active.mean() - inactive.mean())
    if pooled == 0.0:
        # Degenerate (noise-free) separation: effectively infinite d,
        # signed like the mean difference so a *drop* is not mistaken
        # for a detectable increase by the one-sided power analysis.
        return math.copysign(math.inf, diff) if diff != 0.0 else 0.0
    return diff / pooled


def required_measurements(
    effect_size: float, alpha: float = 1e-3, power: float = 0.95
) -> int:
    """Two-sample z-approximation of the per-population sample size.

    ``n = ((z_{1-alpha} + z_{power}) / d)^2`` (one-sided), clamped to at
    least 1.  Every detection statistic in this reproduction alarms on
    an *increase* (added spectral energy, larger distance to the
    reference), so the analysis is one-sided: a non-positive measured
    effect cannot reach the target power at any sample size and
    returns the same sentinel large count as a zero effect.
    """
    if not 0.0 < alpha < 1.0:
        raise AnalysisError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < power < 1.0:
        raise AnalysisError(f"power must be in (0,1), got {power}")
    d = float(effect_size)
    if d <= 0.0:
        return UNRESOLVED
    if math.isinf(d):
        return 1
    z_alpha = NormalDist().inv_cdf(1.0 - alpha)
    z_power = NormalDist().inv_cdf(power)
    n = ((z_alpha + z_power) / d) ** 2
    return max(1, int(math.ceil(n)))


def detection_power(
    active: np.ndarray,
    inactive: np.ndarray,
    alpha: float = 1e-3,
    power: float = 0.95,
) -> DetectionPower:
    """Full power analysis from two measured populations.

    A measured d inside twice its own large-sample standard error,
    ``SE(d) = sqrt((n1 + n2) / (n1 n2) + d^2 / (2 (n1 + n2)))``, is
    indistinguishable from no effect on these populations, so its
    sample count would be noise: it reports :data:`UNRESOLVED`.
    """
    d = cohens_d(active, inactive)
    n1, n2 = np.size(active), np.size(inactive)
    standard_error = math.sqrt(
        (n1 + n2) / (n1 * n2) + d * d / (2 * (n1 + n2))
    )
    if abs(d) < 2.0 * standard_error:
        n_required = UNRESOLVED
    else:
        n_required = required_measurements(d, alpha=alpha, power=power)
    return DetectionPower(
        effect_size=d,
        n_required=n_required,
        alpha=alpha,
        power=power,
    )


def roc_auc(scores_pos: np.ndarray, scores_neg: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise AnalysisError("both score populations must be non-empty")
    # Pairwise comparison; populations here are small (tens of traces).
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def detection_rate(
    scores_active: np.ndarray, scores_baseline: np.ndarray, z_threshold: float
) -> float:
    """Fraction of active-trace scores exceeding a z-score threshold.

    Each active score is z-scored against the baseline population; this
    mirrors how the run-time detector flags traces.  The baseline needs
    at least two scores for a spread.
    """
    baseline = np.asarray(scores_baseline, dtype=float)
    active = np.asarray(scores_active, dtype=float)
    if active.size == 0:
        raise AnalysisError("no active scores supplied")
    if baseline.size < 2:
        raise AnalysisError(
            f"a baseline of {baseline.size} score(s) has no spread; need >= 2"
        )
    mean = baseline.mean()
    std = baseline.std(ddof=1)
    if std == 0.0:
        return float(np.mean(active > mean))
    return float(np.mean((active - mean) / std > z_threshold))
