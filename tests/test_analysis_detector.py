"""Golden-model-free runtime detector (the ``welford`` plugin, 1 stream)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.detector import DetectorConfig
from repro.detectors.welford import WelfordDetector
from repro.errors import AnalysisError


def _first_alarm(detector, features):
    """Fold a 1-stream feature sequence; the first alarm index."""
    return detector.process(np.asarray(features)).first_alarm()


def _update(detector, feature):
    """One window's step, as per-stream scalars."""
    step = detector.update(np.array([feature]))
    return float(step.z[0]), bool(step.armed[0]), bool(step.alarm[0])


def _stream(baseline_level, active_level, n_base, n_active, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(baseline_level, noise, n_base),
            rng.normal(active_level, noise, n_active),
        ]
    )


def test_detects_step_change():
    detector = WelfordDetector(1, DetectorConfig(warmup=6))
    features = _stream(-40.0, -10.0, 10, 5)
    alarm = _first_alarm(detector, features)
    assert alarm is not None
    assert 10 <= alarm <= 12  # within a couple of traces of activation


def test_no_alarm_on_stationary_stream():
    detector = WelfordDetector(1, DetectorConfig(warmup=6))
    features = _stream(-40.0, -40.0, 30, 0)
    assert _first_alarm(detector, features) is None


def test_two_sided_detects_drops():
    detector = WelfordDetector(1, DetectorConfig(warmup=6, two_sided=True))
    features = _stream(-10.0, -40.0, 10, 5)
    assert _first_alarm(detector, features) is not None


def test_one_sided_ignores_drops():
    detector = WelfordDetector(1, DetectorConfig(warmup=6, two_sided=False))
    features = _stream(-10.0, -40.0, 10, 5)
    assert _first_alarm(detector, features) is None


def test_consecutive_debounce():
    config = DetectorConfig(warmup=4, consecutive=2, z_threshold=5.0)
    detector = WelfordDetector(1, config)
    # One outlier then back to baseline: no alarm.
    stream = [0.0, 0.1, -0.1, 0.05, 100.0, 0.0, 0.0, 0.0]
    assert _first_alarm(detector, stream) is None


def test_streak_resets_after_alarm():
    """Every alarm pays the full debounce — no latched re-alarms."""
    config = DetectorConfig(warmup=4, consecutive=2, z_threshold=5.0)
    detector = WelfordDetector(1, config)
    stream = [0.0, 0.1, -0.1, 0.05]  # warm-up
    stream += [100.0, 100.0]  # debounced alarm at index 5
    stream += [0.02]  # back to baseline
    stream += [100.0]  # single outlier: must NOT re-alarm
    stream += [0.01]
    stream += [100.0, 100.0]  # full debounce run: re-alarms at index 10
    alarms = [_update(detector, f)[2] for f in stream]
    assert alarms == [
        False, False, False, False,
        False, True,
        False,
        False,
        False,
        False, True,
    ]


def test_streak_capped_during_long_activation():
    """A long super-threshold run alarms repeatedly, once per debounce."""
    config = DetectorConfig(warmup=4, consecutive=3, z_threshold=5.0)
    detector = WelfordDetector(1, config)
    for value in (0.0, 0.1, -0.1, 0.05):
        _update(detector, value)
    alarms = [_update(detector, 100.0)[2] for _ in range(9)]
    # Alarm exactly every `consecutive` traces: indices 2, 5, 8.
    assert alarms == [False, False, True] * 3


def test_alarm_requires_warmup():
    detector = WelfordDetector(1, DetectorConfig(warmup=8))
    for value in np.linspace(0, 1, 7):
        _, armed, alarm = _update(detector, value)
        assert not armed
        assert not alarm
    assert not detector.armed[0]


def test_outliers_do_not_poison_baseline():
    """A persistent Trojan cannot drag the self-reference upward."""
    detector = WelfordDetector(
        1, DetectorConfig(warmup=6, consecutive=10**6, z_threshold=5.0)
    )
    rng = np.random.default_rng(1)
    for value in rng.normal(0.0, 0.1, 10):
        _update(detector, value)
    z_values = [_update(detector, 50.0)[0] for _ in range(20)]
    # The z-score stays extreme — the baseline did not absorb 50.0.
    assert min(z_values) > 50


def test_nonfinite_feature_rejected():
    detector = WelfordDetector(1)
    with pytest.raises(AnalysisError):
        detector.update(np.array([np.nan]))


@settings(max_examples=20, deadline=None)
@given(
    step=st.floats(min_value=5.0, max_value=100.0),
    warmup=st.integers(min_value=3, max_value=12),
)
def test_large_steps_always_detected(step, warmup):
    detector = WelfordDetector(1, DetectorConfig(warmup=warmup))
    features = _stream(0.0, step, warmup + 4, 6, noise=0.1, seed=42)
    alarm = _first_alarm(detector, features)
    assert alarm is not None
    assert alarm >= warmup + 4


def test_config_validation():
    with pytest.raises(AnalysisError):
        DetectorConfig(warmup=1)
    with pytest.raises(AnalysisError):
        DetectorConfig(z_threshold=0.0)
    with pytest.raises(AnalysisError):
        DetectorConfig(consecutive=0)
    with pytest.raises(AnalysisError):
        DetectorConfig(warmup=10, baseline_window=5)


def test_process_batch_matches_streaming_updates():
    """The batch entry point is an ordered fold over update()."""
    features = _stream(0.0, 30.0, 10, 4, noise=0.2, seed=7)
    streaming = WelfordDetector(1, DetectorConfig(warmup=6))
    expected = [_update(streaming, f) for f in features]
    timeline = WelfordDetector(1, DetectorConfig(warmup=6)).process(features)
    assert timeline.z.shape == (1, len(expected))
    for index, (z, armed, alarm) in enumerate(expected):
        assert timeline.armed[0, index] == armed
        assert timeline.alarms[0, index] == alarm
        got = timeline.z[0, index]
        assert got == z or (np.isnan(got) and np.isnan(z))
    assert timeline.alarms.any()
