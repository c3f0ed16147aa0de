"""Detection statistics and power analysis."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.stats import (
    cohens_d,
    detection_power,
    detection_rate,
    required_measurements,
    roc_auc,
)
from repro.errors import AnalysisError


def test_cohens_d_unit_separation():
    rng = np.random.default_rng(0)
    a = rng.normal(1.0, 1.0, 4000)
    b = rng.normal(0.0, 1.0, 4000)
    assert cohens_d(a, b) == pytest.approx(1.0, abs=0.1)


def test_cohens_d_degenerate_zero_variance():
    assert cohens_d(np.ones(5), np.zeros(5)) == math.inf
    assert cohens_d(np.zeros(5), np.ones(5)) == -math.inf  # signed
    assert cohens_d(np.ones(5), np.ones(5)) == 0.0


def test_required_measurements_decreases_with_effect():
    small = required_measurements(0.04)
    large = required_measurements(5.0)
    assert small > 10_000
    assert large <= 2
    assert required_measurements(0.0) == 10**9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0))
def test_required_measurements_monotone(d):
    assert required_measurements(d) >= required_measurements(d * 2)


#: Effect sizes of the pinned ``required_measurements`` grid.
_PINNED_EFFECTS = (
    0.01, 0.04, 0.0673, 0.1, 0.25, 0.33, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0, 10.0
)

#: Literal counts per ``(alpha, power)`` over ``_PINNED_EFFECTS``.
#: ``(1e-3, 0.95)`` is the default that the baseline protocol and
#: ``detection_power`` use.
_PINNED_COUNTS = {
    (0.001, 0.95): [224211, 14014, 4951, 2243, 359, 206, 90, 23, 8, 6, 3, 1, 1],
    (0.001, 0.8): [154595, 9663, 3414, 1546, 248, 142, 62, 16, 6, 4, 2, 1, 1],
    (0.001, 0.99): [293394, 18338, 6478, 2934, 470, 270, 118, 30, 11, 8, 4, 2, 1],
    (0.01, 0.95): [157705, 9857, 3482, 1578, 253, 145, 64, 16, 6, 4, 2, 1, 1],
    (0.01, 0.8): [100361, 6273, 2216, 1004, 161, 93, 41, 11, 4, 3, 2, 1, 1],
    (0.01, 0.99): [216476, 13530, 4780, 2165, 347, 199, 87, 22, 8, 6, 3, 1, 1],
    (0.05, 0.95): [108222, 6764, 2390, 1083, 174, 100, 44, 11, 4, 3, 2, 1, 1],
    (0.05, 0.8): [61826, 3865, 1366, 619, 99, 57, 25, 7, 3, 2, 1, 1, 1],
    (0.05, 0.99): [157705, 9857, 3482, 1578, 253, 145, 64, 16, 6, 4, 2, 1, 1],
}


@pytest.mark.parametrize("alpha,power", sorted(_PINNED_COUNTS))
def test_required_measurements_pinned(alpha, power):
    """Ceil-rounded counts are pinned literally, so a change of the
    normal quantile implementation cannot shift any reported count."""
    counts = [
        required_measurements(d, alpha=alpha, power=power)
        for d in _PINNED_EFFECTS
    ]
    assert counts == _PINNED_COUNTS[(alpha, power)]


def test_required_measurements_sentinels_pinned():
    assert required_measurements(0.0) == 10**9
    assert required_measurements(-1.0) == 10**9
    assert required_measurements(-math.inf) == 10**9
    assert required_measurements(math.inf) == 1
    assert required_measurements(0.25) == required_measurements(
        0.25, alpha=1e-3, power=0.95
    )


def test_detection_power_wraps_both():
    rng = np.random.default_rng(1)
    a = rng.normal(3.0, 1.0, 500)
    b = rng.normal(0.0, 1.0, 500)
    power = detection_power(a, b)
    assert power.effect_size == pytest.approx(3.0, abs=0.3)
    assert power.n_required <= 5


def test_detection_power_unresolved_inside_sampling_error():
    """8 quiet vs 6 active windows resolve |d| >= 7/6 only.

    There ``|d| = 2 SE(d)`` with ``SE(d)^2 = 14/48 + d^2/28``; a smaller
    effect reports the unresolved sentinel, a larger one its count.
    """
    inactive = np.array([-1.0, 1.0] * 4)
    spread = np.array([-1.0, 1.0] * 3)
    pooled = math.sqrt(14 / 12)  # (7 * 8/7 + 5 * 6/5) / 12
    below = detection_power(spread + 1.15 * pooled, inactive)
    assert below.effect_size == pytest.approx(1.15)
    assert below.n_required == 10**9
    assert required_measurements(1.15) < 100
    above = detection_power(spread + 1.2 * pooled, inactive)
    assert above.effect_size == pytest.approx(1.2)
    assert above.n_required == required_measurements(above.effect_size)
    assert above.n_required < 100
    # An unbounded separation is always resolved.
    assert detection_power(np.ones(6), np.zeros(8)).n_required == 1


def test_roc_auc_perfect_and_chance():
    assert roc_auc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0
    same = np.array([1.0, 1.0])
    assert roc_auc(same, same) == 0.5


def test_detection_rate_extremes():
    baseline = np.random.default_rng(2).normal(0, 1, 100)
    far = baseline + 100.0
    assert detection_rate(far, baseline, z_threshold=4.0) == 1.0
    assert detection_rate(baseline, baseline, z_threshold=4.0) < 0.05


def test_small_samples_rejected():
    with pytest.raises(AnalysisError):
        cohens_d(np.array([1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("baseline", [[], [50.0]])
def test_detection_rate_refuses_a_baseline_without_spread(baseline):
    """One baseline score has no sample spread: a typed error, not a
    silent 0.0 with a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="baseline"):
            detection_rate([1.0], baseline, z_threshold=4.0)
