"""MTTD accounting."""

import pytest

from repro.core.analysis.mttd import MttdModel, MttdResult, mttd_from_alarm
from repro.config import SimConfig
from repro.errors import AnalysisError


def test_trace_period_includes_processing():
    config = SimConfig()
    model = MttdModel(processing_latency_s=0.9e-3)
    assert model.trace_period(config) == pytest.approx(
        config.duration + 0.9e-3
    )


def test_mttd_computation():
    config = SimConfig()
    model = MttdModel(processing_latency_s=1e-3)
    result = mttd_from_alarm(
        alarm_index=9, trigger_index=8, config=config, model=model
    )
    assert result.detected
    assert result.traces_to_detect == 2
    assert result.mttd_s == pytest.approx(2 * model.trace_period(config))


def test_paper_budget_check():
    config = SimConfig()
    result = mttd_from_alarm(10, 8, config, MttdModel())
    assert result.within(10e-3, 10)
    slow = MttdResult(detected=True, traces_to_detect=12, mttd_s=15e-3)
    assert not slow.within(10e-3, 10)


def test_missed_detection():
    result = mttd_from_alarm(None, 8, SimConfig())
    assert not result.detected
    assert result.mttd_s is None
    assert not result.within(10e-3, 10)


def test_pre_trigger_alarm_classified_as_false_alarm():
    """An alarm before the activation is a false alarm, not a latency."""
    result = mttd_from_alarm(alarm_index=5, trigger_index=8, config=SimConfig())
    assert result.false_alarm
    assert not result.detected
    assert result.traces_to_detect is None
    assert result.mttd_s is None
    assert not result.within(10e-3, 10)


def test_true_detection_has_no_false_alarm_flag():
    result = mttd_from_alarm(alarm_index=9, trigger_index=8, config=SimConfig())
    assert result.detected and not result.false_alarm
    missed = mttd_from_alarm(None, 8, SimConfig())
    assert not missed.detected and not missed.false_alarm


def test_pre_trigger_alarm_stream_end_to_end():
    """A detector stream whose baseline glitches pre-trigger yields a
    classified false alarm instead of a bogus negative MTTD."""
    from repro.core.analysis.detector import DetectorConfig
    from repro.detectors import make_detector

    config = SimConfig()
    detector = make_detector(
        "welford", 1, DetectorConfig(warmup=4, consecutive=2, z_threshold=5.0)
    )
    # Warm-up, then a 2-trace glitch *before* the Trojan activates.
    stream = [0.0, 0.1, -0.1, 0.05, 80.0, 80.0, 0.0, 0.0, 40.0, 40.0]
    trigger_index = 8
    alarm = detector.process(stream).first_alarm()
    assert alarm is not None and alarm < trigger_index
    result = mttd_from_alarm(alarm, trigger_index, config)
    assert result.false_alarm and not result.detected
    assert result.mttd_s is None


def test_negative_latency_rejected():
    with pytest.raises(AnalysisError):
        MttdModel(processing_latency_s=-1e-3)


def test_default_cadence_meets_paper_budget():
    """Capture (16 us) + processing (0.9 ms) x a few traces < 10 ms."""
    config = SimConfig()
    model = MttdModel()
    assert 3 * model.trace_period(config) < 10e-3
