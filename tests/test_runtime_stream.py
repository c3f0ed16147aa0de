"""The streaming run-time subsystem: sources, pipeline, events.

The load-bearing property is the determinism contract: a streamed
session — at *any* chunk size, live or replayed — produces bit-identical
windows, features, alarms and escalation output to the equivalent
one-shot offline render.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.analysis.detector import DetectorConfig
from repro.core.analysis.localizer import Localizer
from repro.detectors import available as detectors_available
from repro.errors import AnalysisError, WorkloadError
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.runtime import (
    ActivationSchedule,
    EscalationPipeline,
    EventBus,
    JsonlSink,
    LiveSource,
    MonitorState,
    PipelineConfig,
    ReplaySource,
    StateChanged,
    StreamChunk,
    TrojanIdentified,
    TrojanLocalized,
    WindowProcessed,
    record_stream,
    read_events,
)
from repro.runtime.events import Alarm, event_from_dict
from repro.workloads.campaign import StreamSegment

#: The scripted session every equivalence test uses.
N_BASELINE = 6
N_ACTIVE = 4
DETECTOR = DetectorConfig(warmup=4)


def _schedule(trojan="T1"):
    return ActivationSchedule.step(
        trojan, n_baseline=N_BASELINE, n_active=N_ACTIVE
    )


def _pipeline(config, localizer=None, bus=None, localize=True, quantize=True):
    return EscalationPipeline(
        config,
        n_streams=1,
        pipeline=PipelineConfig(
            detector=DETECTOR,
            localize=localize,
            localize_records=2,
            quantize=quantize,
        ),
        localizer=localizer,
        bus=bus,
    )


# -- schedule -----------------------------------------------------------------


def test_schedule_shape_and_trigger():
    schedule = _schedule()
    assert schedule.n_windows == N_BASELINE + N_ACTIVE
    assert schedule.trigger_index == N_BASELINE
    assert schedule.trojan == "T1"
    assert schedule.reference == "baseline"
    assert schedule.scenario_at(0) == "baseline"
    assert schedule.scenario_at(N_BASELINE) == "T1"
    with pytest.raises(WorkloadError):
        schedule.scenario_at(schedule.n_windows)


def test_schedule_matched_reference_and_quiet():
    assert ActivationSchedule.step("T2").reference == "T2_ref"
    quiet = ActivationSchedule(
        segments=(StreamSegment("baseline", 4, 0),)
    )
    assert quiet.trigger_index is None
    assert quiet.trojan is None
    with pytest.raises(WorkloadError):
        ActivationSchedule(segments=())


# -- live source --------------------------------------------------------------


def test_live_source_matches_offline_render(campaign):
    """Chunked streaming == the one-shot batched engine render."""
    schedule = _schedule()
    offline = campaign.collect_stream(
        list(schedule.segments), sensors=[10]
    )
    source = LiveSource(campaign, schedule, sensors=(10,), chunk=7)
    streamed = np.concatenate(
        [chunk.samples for chunk in source.chunks()], axis=1
    )
    assert np.array_equal(streamed, offline.samples)


def test_live_source_chunk_metadata(campaign):
    source = LiveSource(campaign, _schedule(), sensors=(10,), chunk=4)
    chunks = list(source.chunks())
    # Chunks never span a segment boundary: 6 -> 4+2, then 4.
    assert [c.n_windows for c in chunks] == [4, 2, 4]
    assert [c.start for c in chunks] == [0, 4, 6]
    assert chunks[0].scenarios == ("baseline",) * 4
    assert chunks[2].scenarios == ("T1",) * 4
    assert chunks[2].trace_indices == (500, 501, 502, 503)
    trace = chunks[2].trace(0, 1)
    assert trace.scenario == "T1"
    assert trace.meta["trace_index"] == 501


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_streamed_run_bit_identical_across_chunk_sizes(
    campaign, psa, chunk
):
    """Windows, alarms and localization match the one-shot fold."""
    config = campaign.chip.config
    analyzer = SpectrumAnalyzer()
    reference = _pipeline(
        config, localizer=Localizer(psa, analyzer)
    ).run(LiveSource(campaign, _schedule("T4"), chunk=64))

    result = _pipeline(config, localizer=Localizer(psa, analyzer)).run(
        LiveSource(campaign, _schedule("T4"), chunk=chunk)
    )
    assert np.array_equal(result.features_db, reference.features_db)
    assert result.alarms == reference.alarms
    assert result.first_alarm == reference.first_alarm
    assert result.mttd == reference.mttd
    assert result.identification.label == reference.identification.label
    assert (
        result.identification.features == reference.identification.features
    )
    assert (
        result.localization.sensor_index
        == reference.localization.sensor_index
    )
    assert result.localization.quadrant == reference.localization.quadrant
    assert result.localization.position == reference.localization.position
    assert np.array_equal(
        result.localization.scores, reference.localization.scores
    )


def test_escalation_outcome(campaign, psa):
    """The state machine walks detect -> identify -> localize."""
    config = campaign.chip.config
    report = _pipeline(config, localizer=Localizer(psa)).run(
        LiveSource(campaign, _schedule("T4"), chunk=4)
    )
    assert report.trigger_index == N_BASELINE
    assert report.detected
    assert report.mttd.traces_to_detect < 10
    assert report.mttd.mttd_s < 10e-3
    assert report.identification.label == "T4"
    assert report.localization.sensor_index == 10
    assert report.localization.quadrant == "se"
    assert report.escalations == 1
    assert report.final_state == MonitorState.MONITOR.value


# -- replay source ------------------------------------------------------------


def test_replay_round_trip_bit_identical(campaign, tmp_path):
    """record_stream -> ReplaySource reproduces the live session.

    The recorded windows are the live render's bit for bit.  A live
    monitor featurizes rendered rFFT columns without the ADC, so the
    replay matches its features up to rounding when it skips the ADC
    too, and its alarms and identification either way.
    """
    config = campaign.chip.config
    schedule = _schedule("T1")
    live = LiveSource(campaign, schedule, chunk=4)
    path = record_stream(live, tmp_path / "session.npz")

    offline = campaign.collect_stream(list(schedule.segments), sensors=[10])
    replay = ReplaySource(path, batch=3)
    assert replay.n_streams == 1
    assert replay.n_windows == schedule.n_windows
    assert replay.trigger_index == schedule.trigger_index
    streamed = np.concatenate(
        [chunk.samples for chunk in replay.chunks()], axis=1
    )
    assert np.array_equal(streamed, offline.samples)

    live_report = _pipeline(config).run(
        LiveSource(campaign, schedule, chunk=4)
    )
    raw_report = _pipeline(config, quantize=False).run(
        ReplaySource(path, batch=3)
    )
    np.testing.assert_allclose(
        raw_report.features_db, live_report.features_db, rtol=0, atol=1e-9
    )
    replay_report = _pipeline(config).run(ReplaySource(path, batch=3))
    np.testing.assert_allclose(
        replay_report.features_db, live_report.features_db, rtol=0, atol=0.1
    )
    for report in (raw_report, replay_report):
        assert report.alarms == live_report.alarms
        assert report.mttd == live_report.mttd
        assert report.identification == live_report.identification
        # A replay cannot re-measure: escalation stops at IDENTIFY.
        assert report.localization is None


def test_replay_validates_stream_count(campaign, tmp_path):
    path = record_stream(
        LiveSource(campaign, _schedule(), chunk=4), tmp_path / "s.npz"
    )
    with pytest.raises(AnalysisError):
        ReplaySource(path, n_streams=3)  # 10 traces % 3 != 0
    with pytest.raises(AnalysisError):
        ReplaySource(path, batch=0)


def test_replay_infers_stream_count(campaign, tmp_path):
    """A multi-stream archive replays correctly with no n_streams hint."""
    schedule = _schedule()
    live = LiveSource(campaign, schedule, sensors=(9, 10), chunk=4)
    path = record_stream(live, tmp_path / "two.npz")
    replay = ReplaySource(path, batch=3)
    assert replay.n_streams == 2
    assert replay.n_windows == schedule.n_windows
    assert replay.trigger_index == schedule.trigger_index
    offline = campaign.collect_stream(
        list(schedule.segments), sensors=[9, 10]
    )
    streamed = np.concatenate(
        [chunk.samples for chunk in replay.chunks()], axis=1
    )
    assert np.array_equal(streamed, offline.samples)
    # Forcing a wrong stream count against the recorded label pattern
    # fails loudly instead of interleaving sensors into one stream.
    with pytest.raises(AnalysisError):
        ReplaySource(path, n_streams=1)


# -- events -------------------------------------------------------------------


def test_event_stream_and_jsonl_sink(campaign, psa, tmp_path):
    config = campaign.chip.config
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    log = tmp_path / "events.jsonl"
    with JsonlSink(log) as sink:
        bus.subscribe(sink)
        report = _pipeline(
            config, localizer=Localizer(psa), bus=bus
        ).run(LiveSource(campaign, _schedule("T4"), chunk=4))

    windows = [e for e in seen if isinstance(e, WindowProcessed)]
    assert [e.window for e in windows] == list(range(report.n_windows))
    alarms = [e for e in seen if isinstance(e, Alarm)]
    assert alarms[0].window == report.first_alarm
    assert alarms[0].escalating and not any(
        a.escalating for a in alarms[1:]
    )
    transitions = [
        (e.previous, e.current)
        for e in seen
        if isinstance(e, StateChanged)
    ]
    assert transitions == [
        ("monitor", "identify"),
        ("identify", "localize"),
        ("localize", "monitor"),
    ]
    identified = [e for e in seen if isinstance(e, TrojanIdentified)]
    localized = [e for e in seen if isinstance(e, TrojanLocalized)]
    assert identified[0].label == "T4"
    assert localized[0].sensor == 10

    # The JSONL log is a faithful, parseable transcript.
    replayed = read_events(log)
    assert len(replayed) == len(seen) == sum(report.event_counts.values())
    for line, event in zip(
        log.read_text().splitlines(), seen, strict=True
    ):
        assert event_from_dict(json.loads(line)) == event


def test_event_dict_round_trip():
    event = WindowProcessed(
        chip="chipX",
        window=3,
        time_s=0.004,
        scenario="T1",
        features_db=(91.0,),
        z=(None,),
        alarm=False,
    )
    assert event_from_dict(event.to_dict()) == event
    with pytest.raises(AnalysisError):
        event_from_dict({"type": "Bogus"})


# -- timeline -----------------------------------------------------------------


def test_window_timeline_bookkeeping(campaign):
    """The pipeline's session timeline: verdict times, alarms, guards."""
    from repro.detectors import make_detector

    config = campaign.chip.config
    chunks = list(LiveSource(campaign, _schedule("T4"), chunk=4).chunks())
    pipeline = _pipeline(config, localize=False)
    assert pipeline.report().n_windows == 0
    assert pipeline.report().features_db.shape == (1, 0)
    for chunk in chunks:
        pipeline.process_chunk(chunk)
    report = pipeline.report()
    period = report.trace_period_s
    assert period == pipeline.pipeline.mttd.trace_period(config)
    assert report.n_windows == N_BASELINE + N_ACTIVE
    assert report.window_times_s == tuple(
        (w + 1) * period for w in range(report.n_windows)
    )
    # Alarms are the detector's own verdicts over the recorded features.
    timeline = make_detector("welford", 1, DETECTOR).process(
        report.features_db
    )
    expected = tuple(int(w) for w in np.flatnonzero(timeline.alarms[0]))
    assert expected and report.alarms == expected
    assert report.first_alarm == expected[0]

    fresh = _pipeline(config, localize=False)
    two_streams = replace(
        chunks[0],
        samples=np.concatenate([chunks[0].samples] * 2),
        labels=chunks[0].labels * 2,
    )
    with pytest.raises(AnalysisError, match="2 streams"):
        fresh.process_chunk(two_streams)
    fresh.process_chunk(chunks[0])
    with pytest.raises(AnalysisError, match="stream discontinuity"):
        fresh.process_chunk(chunks[2])  # skips chunk 1's windows
    assert fresh.report().n_windows == chunks[0].n_windows


# -- guards -------------------------------------------------------------------


def test_stream_shape_guards(campaign):
    config = campaign.chip.config
    source = LiveSource(campaign, _schedule(), sensors=(10, 11), chunk=4)
    with pytest.raises(AnalysisError):
        _pipeline(config).run(source)  # 1-stream pipeline, 2-stream source
    with pytest.raises(AnalysisError):
        LiveSource(campaign, _schedule(), sensors=())
    with pytest.raises(AnalysisError):
        LiveSource(campaign, _schedule(), chunk=0)


def test_stream_chunk_rejects_unusable_windows():
    """A hand-built chunk without a usable sample rate or without
    samples is refused with a typed error, before any analysis."""
    good = dict(
        samples=np.zeros((1, 2, 3)),
        fs=1e9,
        start=0,
        scenarios=("idle", "idle"),
        trace_indices=(0, 1),
        labels=("s",),
    )
    assert StreamChunk(**good).n_windows == 2
    for fs in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(AnalysisError, match="fs"):
            StreamChunk(**{**good, "fs": fs})
    with pytest.raises(AnalysisError, match="samples"):
        StreamChunk(**{**good, "samples": np.zeros((1, 2, 0))})


# -- detector plugins in the MONITOR stage ------------------------------------


@pytest.fixture(scope="module")
def t1_chunk(campaign):
    """One 6-window T1 chunk shared by the featurizer checks."""
    return next(iter(LiveSource(campaign, _schedule("T1"), chunk=6).chunks()))


@pytest.mark.parametrize("adc", [True, False], ids=["adc", "raw"])
@pytest.mark.parametrize("name", detectors_available())
def test_chunk_features_matches_full_display_reduction(
    campaign, t1_chunk, name, adc
):
    """Partial-display featurizing == reducing the full display."""
    from repro.detectors import make_detector
    from repro.instruments.adc import quantize_batch
    from repro.instruments.rasc import AUTO_RANGE_HEADROOM, RASC_ADC
    from repro.runtime.pipeline import chunk_features

    config = campaign.chip.config
    analyzer = SpectrumAnalyzer()
    detector = make_detector(name, 1)
    routed = chunk_features(
        t1_chunk, analyzer, config, detector, adc=RASC_ADC if adc else None
    )
    samples = t1_chunk.samples
    if adc:
        samples = quantize_batch(
            samples, RASC_ADC, headroom=AUTO_RANGE_HEADROOM
        )
    grid, display = analyzer.display_matrix(
        samples.reshape(-1, samples.shape[-1]), t1_chunk.fs
    )
    full = detector.features(grid, display, config).reshape(
        t1_chunk.n_streams, t1_chunk.n_windows
    )
    np.testing.assert_array_equal(full, routed)


def test_monitor_welford_route_bit_identical_to_direct_bank(
    campaign, detector_golden
):
    """Registry-routed MONITOR stage == the committed bank timeline.

    The live monitor renders the detector's rFFT columns, so its
    features are the full render's featurized without the ADC, up to
    rounding; through the ADC they move by well under 0.1 dB and the
    bank's alarms do not move.
    """
    from repro.detectors import make_detector
    from repro.instruments.rasc import RASC_ADC
    from repro.runtime.pipeline import chunk_features

    pin = detector_golden["pins"]["monitor-T1"]
    config = campaign.chip.config
    report = _pipeline(config, localize=False).run(
        LiveSource(campaign, _schedule("T1"), chunk=4)
    )
    assert report.detector == "welford"
    np.testing.assert_allclose(
        report.features_db, pin["features"], rtol=1e-12, atol=0
    )
    alarms = pin["alarms"][0]
    assert report.alarms == tuple(
        index for index, bit in enumerate(alarms) if bit == "1"
    )
    assert report.first_alarm == alarms.index("1")

    detector = make_detector("welford", 1, DETECTOR)
    chunks = list(LiveSource(campaign, _schedule("T1"), chunk=4).chunks())
    for adc, tolerance in ((None, 1e-9), (RASC_ADC, 0.1)):
        full = np.concatenate(
            [
                chunk_features(chunk, SpectrumAnalyzer(), config, detector, adc)
                for chunk in chunks
            ],
            axis=1,
        )
        np.testing.assert_allclose(
            report.features_db, full, rtol=0, atol=tolerance
        )
        bank = make_detector("welford", 1, DETECTOR).process(full)
        assert report.alarms == tuple(int(w) for w in np.flatnonzero(bank.alarms[0]))


def test_pipeline_config_rejects_unknown_detector():
    with pytest.raises(AnalysisError, match="unknown detector"):
        PipelineConfig(detector_name="bogus")


def test_always_on_schedule_has_no_quiet_span():
    schedule = ActivationSchedule.step("T1A", n_baseline=4, n_active=4)
    # An always-on chip references itself: every scripted window is
    # Trojan-active and the trigger is window 0.
    assert schedule.reference == "T1A"
    assert schedule.trigger_index == 0
    assert schedule.trojan == "T1A"
    for window in range(schedule.n_windows):
        assert schedule.scenario_at(window) == "T1A"


def test_monitor_always_on_blind_spot_and_coverage(campaign):
    """The self-baseline absorbs an always-on implant; the
    reference-free plugins see it — the comparative grid's structure,
    reproduced in the streaming MONITOR stage."""
    config = campaign.chip.config
    schedule = ActivationSchedule.step("T1A", n_baseline=6, n_active=4)
    reports = {}
    for name in ("welford", "spectral", "persistence"):
        pipeline = EscalationPipeline(
            config,
            n_streams=1,
            pipeline=PipelineConfig(
                detector=DETECTOR, detector_name=name, localize=False
            ),
        )
        reports[name] = pipeline.run(
            LiveSource(campaign, schedule, chunk=4)
        )
        assert reports[name].detector == name
    assert reports["welford"].first_alarm is None
    assert reports["spectral"].first_alarm is not None
    assert reports["spectral"].mttd.detected
    # Persistence needs its coarsest trailing scale (8 windows) filled.
    assert reports["persistence"].first_alarm == 7


# -- live MONITOR renders the detector's columns ------------------------------


def _full_render_features(monitor, adc):
    """A session's features from the full render of an unbound source."""
    from repro.runtime.pipeline import chunk_features

    pipeline = monitor.pipeline
    source = LiveSource(
        monitor.source.campaign,
        monitor.source.schedule,
        sensors=monitor.source.sensors,
        chunk=monitor.source.chunk,
    )
    return np.concatenate(
        [
            chunk_features(
                chunk, pipeline.analyzer, pipeline.config, pipeline._detector, adc
            )
            for chunk in source.chunks()
        ],
        axis=1,
    )


@pytest.mark.parametrize("preset_name", ["smoke", "paper", "soak"])
def test_live_monitor_features_are_the_full_render_without_the_adc(preset_name):
    """Live MONITOR features == the full render featurized without the
    ADC, up to rounding; through the ADC they move < 0.1 dB and every
    stream's alarm mask stays the same."""
    from repro.detectors import make_detector
    from repro.runtime import build_chip_monitor, build_preset

    preset = build_preset(preset_name)
    tuning = replace(preset.pipeline_config(), identify=False, localize=False)
    monitor = build_chip_monitor(preset.specs(1)[0], pipeline_config=tuning)
    report = monitor.pipeline.run(monitor.source)
    assert monitor.source.columns is not None

    raw = _full_render_features(monitor, adc=None)
    np.testing.assert_allclose(report.features_db, raw, rtol=0, atol=1e-9)
    quantized = _full_render_features(monitor, adc=tuning.adc)
    np.testing.assert_allclose(report.features_db, quantized, rtol=0, atol=0.1)

    def alarm_masks(features):
        return make_detector(
            tuning.detector_name, features.shape[0], tuning.detector
        ).process(features).alarms

    assert np.array_equal(alarm_masks(report.features_db), alarm_masks(quantized))
    assert report.first_alarm is not None


def test_live_identify_window_is_the_full_render(campaign):
    """IDENTIFY re-renders the alarming window: the same samples, and
    so the same identification, as the full render's window."""
    from repro.core.analysis.identifier import TrojanIdentifier

    config = campaign.chip.config
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    pipeline = _pipeline(config, bus=bus, localize=False)
    source = LiveSource(campaign, _schedule("T4"), chunk=4)
    report = pipeline.run(source)
    alarm = report.first_alarm
    window = next(
        chunk.trace(0, alarm - chunk.start)
        for chunk in LiveSource(campaign, _schedule("T4"), chunk=4).chunks()
        if chunk.start <= alarm < chunk.start + chunk.n_windows
    )
    schedule = _schedule("T4")
    rendered = source.capture(0, schedule.scenario_at(alarm), window.meta["trace_index"])
    assert rendered.samples.tobytes() == window.samples.tobytes()
    expected = TrojanIdentifier(
        pipeline.analyzer, f_probe=pipeline.identifier.f_probe
    ).classify(window)
    assert report.identification == expected
    (event,) = [e for e in seen if isinstance(e, TrojanIdentified)]
    assert event.autocorr_peak == expected.features.autocorr_peak
    assert event.dominant_freq_hz == expected.features.dominant_freq


def test_only_a_bound_live_source_renders_columns(campaign, tmp_path):
    """An unbound source's chunks carry samples, which record_stream
    and pack_chunk need; a bound one's carry the detector's columns."""
    from repro.serve import pack_chunk, unpack_chunk

    schedule = _schedule("T1")
    free = LiveSource(campaign, schedule, chunk=4)
    chunk = next(free.chunks())
    assert chunk.spectra is None
    assert np.array_equal(unpack_chunk(pack_chunk(chunk)).samples, chunk.samples)
    record_stream(free, tmp_path / "free.npz")

    bound = LiveSource(campaign, schedule, chunk=4)
    _pipeline(campaign.chip.config).bind(bound)
    chunk = next(bound.chunks())
    assert chunk.samples is None
    assert np.array_equal(chunk.spectra.columns, bound.columns)
    assert chunk.spectra.values.shape == (1, 4, bound.columns.size)
    with pytest.raises(AnalysisError, match="samples"):
        pack_chunk(chunk)
    with pytest.raises(AnalysisError, match="samples"):
        record_stream(bound, tmp_path / "bound.npz")
