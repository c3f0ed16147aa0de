"""Detector plugin registry: semantics, protocol, and welford pinning.

The registry tests pin the plugin contract (duplicate names raise,
lazy specs resolve on first use, unknown names list what exists); the
plugin tests pin each builtin's temporal semantics on synthetic
feature streams; and the welford-identity test pins the registry
route to the committed timeline in ``tests/data/detector_golden.json``
— the paper's detector sits behind the registry without a single bit
of its output changing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import detectors
from repro.config import SimConfig
from repro.core.analysis.detector import DetectorConfig
from repro.core.analysis.spectral import (
    excess_display_bins,
    noise_floor_display_bins,
    sideband_display_bins,
    sideband_excess_db,
    sideband_features_db,
)
from repro.detectors import registry as registry_module
from repro.detectors.persistence import PersistenceConfig, PersistenceDetector
from repro.detectors.spectral import SpectralConfig, SpectralDetector
from repro.detectors.welford import WelfordDetector
from repro.errors import AnalysisError


@pytest.fixture()
def config() -> SimConfig:
    return SimConfig()


# -- registry semantics --------------------------------------------------------


class TestRegistry:
    def test_builtins_are_available(self):
        assert detectors.available() == ["persistence", "spectral", "welford"]

    def test_get_resolves_builtins(self):
        assert detectors.get("welford") is WelfordDetector
        assert detectors.get("spectral") is SpectralDetector
        assert detectors.get("persistence") is PersistenceDetector

    def test_unknown_name_lists_available(self):
        with pytest.raises(AnalysisError, match="unknown detector"):
            detectors.get("nope")
        with pytest.raises(
            AnalysisError, match="persistence, spectral, welford"
        ):
            detectors.get("nope")

    def test_duplicate_name_raises(self):
        with pytest.raises(AnalysisError, match="already registered"):
            detectors.register("welford", WelfordDetector)

    def test_register_decorator_and_cleanup(self):
        @detectors.register("test-dummy")
        class Dummy(WelfordDetector):
            name = "test-dummy"

        try:
            assert "test-dummy" in detectors.available()
            built = detectors.make_detector("test-dummy", 2)
            assert isinstance(built, Dummy)
        finally:
            del registry_module._REGISTRY["test-dummy"]

    def test_lazy_spec_resolves_on_first_get(self):
        registry_module._REGISTRY["test-lazy"] = (
            "repro.detectors.welford:WelfordDetector"
        )
        try:
            assert registry_module._REGISTRY["test-lazy"] == (
                "repro.detectors.welford:WelfordDetector"
            )
            assert detectors.get("test-lazy") is WelfordDetector
            # The resolved class is cached back into the registry.
            assert registry_module._REGISTRY["test-lazy"] is WelfordDetector
        finally:
            del registry_module._REGISTRY["test-lazy"]

    def test_bad_lazy_spec_reports_the_spec(self):
        registry_module._REGISTRY["test-bad"] = "repro.no_such_module:X"
        try:
            with pytest.raises(AnalysisError, match="failed to resolve"):
                detectors.get("test-bad")
        finally:
            del registry_module._REGISTRY["test-bad"]

    def test_non_detector_entry_rejected(self):
        registry_module._REGISTRY["test-notdet"] = (
            "repro.config:SimConfig"
        )
        try:
            with pytest.raises(AnalysisError, match="not a Detector"):
                detectors.get("test-notdet")
        finally:
            del registry_module._REGISTRY["test-notdet"]

    def test_make_detector_forwards_bank_config_to_welford_only(self):
        tuned = DetectorConfig(warmup=3, z_threshold=9.0)
        welford = detectors.make_detector("welford", 2, tuned)
        assert welford.config.z_threshold == 9.0
        spectral = detectors.make_detector("spectral", 2, tuned)
        assert isinstance(spectral.config, SpectralConfig)


# -- protocol / base class -----------------------------------------------------


class TestProtocol:
    def test_feature_kinds(self):
        assert WelfordDetector.feature_kind == "sideband-db"
        assert SpectralDetector.feature_kind == "sideband-excess-db"
        assert PersistenceDetector.feature_kind == "sideband-excess-db"

    def test_process_validates_shape(self):
        detector = SpectralDetector(2)
        with pytest.raises(AnalysisError, match="feature matrix"):
            detector.process(np.zeros((3, 4)))

    def test_non_finite_rejected(self):
        for detector in (
            WelfordDetector(1),
            SpectralDetector(1),
            PersistenceDetector(1),
        ):
            with pytest.raises(AnalysisError, match="non-finite"):
                detector.update(np.array([np.nan]))

    def test_display_bins_match_reduction(self, config):
        grid = np.linspace(0.0, 120e6, 2000)
        welford = WelfordDetector(1)
        np.testing.assert_array_equal(
            welford.display_bins(grid, config),
            sideband_display_bins(grid, config),
        )
        spectral = SpectralDetector(1)
        np.testing.assert_array_equal(
            spectral.display_bins(grid, config),
            excess_display_bins(grid, config),
        )

    def test_excess_bins_include_noise_probes(self, config):
        grid = np.linspace(0.0, 120e6, 2000)
        excess = set(excess_display_bins(grid, config).tolist())
        assert set(
            noise_floor_display_bins(grid, config).tolist()
        ) <= excess
        assert set(sideband_display_bins(grid, config).tolist()) <= excess

    def test_feature_reductions_delegate(self, config):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 120e6, 2000)
        amps = rng.uniform(1e-6, 1e-3, size=(3, grid.size))
        np.testing.assert_array_equal(
            WelfordDetector(1).features(grid, amps, config),
            sideband_features_db(grid, amps, config),
        )
        np.testing.assert_array_equal(
            SpectralDetector(1).features(grid, amps, config),
            sideband_excess_db(grid, amps, config),
        )
        np.testing.assert_array_equal(
            PersistenceDetector(1).features(grid, amps, config),
            sideband_excess_db(grid, amps, config),
        )


# -- welford plugin: bit-identical to the committed golden ----------------------


class TestWelfordPlugin:
    def test_timeline_bit_identical_to_detector_bank(self, detector_golden):
        """The registry route reproduces the committed bank timeline."""
        from test_detector_golden import (
            assert_timeline_matches,
            registry_features,
        )

        pin = detector_golden["pins"]["registry-3stream"]
        features = registry_features()
        assert features.tolist() == pin["features"]
        routed = detectors.make_detector(
            "welford", 3, DetectorConfig(warmup=5)
        ).process(features)
        assert_timeline_matches(routed, pin)

    def test_warmup_absorbs_into_baseline(self):
        detector = WelfordDetector(1, DetectorConfig(warmup=4))
        for value in (10.0, 10.1, 9.9, 10.0):
            step = detector.update(np.array([value]))
            assert not step.armed[0] and np.isnan(step.z[0])
        assert detector.armed.all()
        assert np.isfinite(detector.update(np.array([10.0])).z[0])

    def test_score_nan_before_warmup(self):
        detector = WelfordDetector(1, DetectorConfig(warmup=4))
        assert np.isnan(detector.update(np.array([10.0])).z[0])


# -- spectral plugin -----------------------------------------------------------


class TestSpectralPlugin:
    def test_armed_from_window_zero(self):
        assert SpectralDetector(2).armed.all()

    def test_alarm_needs_consecutive_windows(self):
        detector = SpectralDetector(
            1, SpectralConfig(excess_threshold_db=30.0, consecutive=2)
        )
        assert not detector.update(np.array([40.0])).alarm[0]
        assert detector.update(np.array([40.0])).alarm[0]

    def test_streak_resets_after_alarm(self):
        detector = SpectralDetector(
            1, SpectralConfig(excess_threshold_db=30.0, consecutive=2)
        )
        detector.update(np.array([40.0]))
        assert detector.update(np.array([40.0])).alarm[0]
        # A full fresh run of consecutive windows is required again.
        assert not detector.update(np.array([40.0])).alarm[0]
        assert detector.update(np.array([40.0])).alarm[0]

    def test_sub_threshold_never_alarms(self):
        detector = SpectralDetector(
            1, SpectralConfig(excess_threshold_db=30.0, consecutive=1)
        )
        timeline = detector.process(np.full((1, 20), 20.0))
        assert not timeline.alarms.any()

    def test_config_validation(self):
        with pytest.raises(AnalysisError):
            SpectralConfig(consecutive=0)
        with pytest.raises(AnalysisError):
            SpectralConfig(excess_threshold_db=float("nan"))


# -- persistence plugin --------------------------------------------------------


class TestPersistencePlugin:
    def test_alarms_once_history_is_persistent(self):
        detector = PersistenceDetector(
            1, PersistenceConfig(excess_threshold_db=30.0, scales=(1, 4, 8))
        )
        timeline = detector.process(np.full((1, 14), 40.0))
        # Armed (and alarming) exactly when the coarsest scale fills.
        assert timeline.alarms[0].tolist().index(True) == 7

    def test_misses_short_activation_span(self):
        detector = PersistenceDetector(
            1, PersistenceConfig(excess_threshold_db=30.0, scales=(1, 4, 8))
        )
        stream = np.full((1, 14), 10.0)
        stream[0, 8:] = 40.0  # 6 active windows < the coarsest scale
        timeline = detector.process(stream)
        assert not timeline.alarms.any()

    def test_rising_edge_only(self):
        detector = PersistenceDetector(
            1, PersistenceConfig(excess_threshold_db=30.0, scales=(2,))
        )
        timeline = detector.process(np.full((1, 6), 40.0))
        assert timeline.alarms[0].sum() == 1  # latched after the edge

    def test_rearms_after_gap(self):
        detector = PersistenceDetector(
            1, PersistenceConfig(excess_threshold_db=30.0, scales=(2,))
        )
        stream = np.array([[40.0, 40.0, 10.0, 40.0, 40.0]])
        timeline = detector.process(stream)
        assert timeline.alarms[0].tolist() == [
            False, True, False, False, True
        ]

    def test_armed_tracks_depth(self):
        detector = PersistenceDetector(
            2, PersistenceConfig(excess_threshold_db=30.0, scales=(1, 3))
        )
        assert not detector.armed.any()
        detector.update(np.array([1.0, 1.0]))
        detector.update(np.array([1.0, 1.0]))
        assert not detector.armed.any()
        detector.update(np.array([1.0, 1.0]))
        assert detector.armed.all()

    def test_score_matches_update_statistic(self):
        """The step's score is the coarsest-scale trailing minimum."""
        config = PersistenceConfig(excess_threshold_db=30.0, scales=(1, 3))
        stream = np.array([[35.0, 41.0, 38.0, 36.0, 45.0]])
        timeline = PersistenceDetector(1, config).process(stream)
        assert np.isnan(timeline.z[0, :2]).all()
        np.testing.assert_array_equal(
            timeline.z[0, 2:], [35.0, 36.0, 36.0]
        )

    def test_config_validation(self):
        with pytest.raises(AnalysisError):
            PersistenceConfig(scales=())
        with pytest.raises(AnalysisError):
            PersistenceConfig(scales=(0, 4))
