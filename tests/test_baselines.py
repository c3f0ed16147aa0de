"""Comparison-method protocol and quick method checks."""

import numpy as np
import pytest

from repro.baselines.backscatter import BackscatterMethod
from repro.baselines.common import (
    ReceiverBench,
    euclidean_statistics,
    reference_spectrum,
)
from repro.baselines.protocol import (
    MethodReport,
    TrojanOutcome,
    outcome_from_populations,
)
from repro.dsp.transforms import amplitude_spectrum
from repro.em.probes import langer_lf1_probe
from repro.errors import AnalysisError
from repro.experiments.context import ExperimentContext
from repro.experiments.table1 import run_psa_sweep


def test_outcome_from_populations():
    rng = np.random.default_rng(0)
    inactive = rng.normal(0.0, 1.0, 40)
    active = rng.normal(8.0, 1.0, 40)
    outcome = outcome_from_populations("T1", inactive, active)
    assert outcome.effect_size > 5
    assert outcome.n_required <= 2
    assert outcome.detection_rate == 1.0


def test_method_report_aggregates():
    report = MethodReport(name="x")
    report.outcomes["T1"] = TrojanOutcome("T1", 5.0, 2, 1.0)
    report.outcomes["T3"] = TrojanOutcome("T3", 0.01, 200_000, 0.0)
    assert report.worst_n_required == 200_000
    assert report.mean_detection_rate == pytest.approx(0.5)
    assert report.rate_label() == "Low"


def test_empty_report_rejected():
    with pytest.raises(AnalysisError):
        MethodReport(name="x").worst_n_required


def test_euclidean_statistics():
    fs = 528e6
    t = np.arange(2048) / fs
    ref_spec = amplitude_spectrum(np.sin(2 * np.pi * 33e6 * t), fs)
    same = euclidean_statistics([ref_spec], ref_spec)
    assert same[0] == pytest.approx(0.0, abs=1e-12)
    other = amplitude_spectrum(2 * np.sin(2 * np.pi * 33e6 * t), fs)
    far = euclidean_statistics([other], ref_spec)
    assert far[0] > 0.1


def test_reference_spectrum_is_power_mean(amp_at):
    fs = 528e6
    t = np.arange(2048) / fs
    spec_a = amplitude_spectrum(np.sin(2 * np.pi * 33e6 * t), fs)
    spec_b = amplitude_spectrum(3 * np.sin(2 * np.pi * 33e6 * t), fs)
    ref = reference_spectrum([spec_a, spec_b])
    expected = np.sqrt((amp_at(spec_a, 33e6) ** 2 + amp_at(spec_b, 33e6) ** 2) / 2)
    assert amp_at(ref, 33e6) == pytest.approx(expected, rel=1e-9)


def test_receiver_bench_measures(chip, records):
    bench = ReceiverBench(chip, langer_lf1_probe())
    trace = bench.measure(records["baseline"][0])
    assert trace.label == "langer_lf1"
    assert trace.n_samples == chip.config.n_samples


def test_backscatter_features_react_to_t4(chip, campaign, records):
    method = BackscatterMethod(chip, campaign)
    base = method.reflection_features(records["baseline"][0], 0)
    active = method.reflection_features(records["T4"][0], 1)
    assert base.shape == active.shape
    assert np.linalg.norm(active - base) > 0.1 * np.linalg.norm(base)


def test_psa_method_strong_effect_sizes(config, chip, campaign, psa):
    """The PSA separates every Trojan with single-digit trace needs."""
    ctx = ExperimentContext(config=config, chip=chip, psa=psa, campaign=campaign)
    report = run_psa_sweep(ctx, n_traces=4)
    assert report.localization and report.runtime
    for trojan, outcome in report.outcomes.items():
        assert outcome.n_required < 10, trojan
        assert outcome.detection_rate == 1.0, trojan
    assert report.snr_db == pytest.approx(41.0, abs=6.0)
