"""The PSA measurement facade."""

import numpy as np
import pytest

from repro.core.coil import synthesize_rect_coil
from repro.errors import MeasurementError


def test_measure_all_returns_16_traces(psa, records):
    traces = [psa.measure(records["baseline"][0], s) for s in range(psa.n_sensors)]
    assert len(traces) == 16
    for index, trace in enumerate(traces):
        assert trace.label == f"psa_sensor_{index}"
        assert trace.n_samples == psa.config.n_samples
        assert trace.fs == pytest.approx(psa.config.fs)


def test_measure_single_sensor_uses_decoder(psa, records):
    trace = psa.measure(records["baseline"][0], 10, trace_index=1)
    assert trace.label == "psa_sensor_10"
    assert psa.decoder.selected() == 10


def test_measurement_is_reproducible(psa, records):
    a = psa.measure(records["baseline"][0], 10, trace_index=3)
    b = psa.measure(records["baseline"][0], 10, trace_index=3)
    assert np.array_equal(a.samples, b.samples)


def test_noise_varies_across_trace_indices(psa, records):
    a = psa.measure(records["baseline"][0], 10, trace_index=0)
    b = psa.measure(records["baseline"][0], 10, trace_index=1)
    assert not np.array_equal(a.samples, b.samples)
    # Same underlying signal: the RMS difference is noise-scale.
    assert abs(a.rms() - b.rms()) < 0.2 * a.rms()


def test_noise_independent_per_sensor(psa, records):
    batch = psa.render([records["idle"][0]])
    assert not np.array_equal(batch.samples[0], batch.samples[1])


def test_sensor10_sees_more_signal_than_sensor0(psa, records):
    batch = psa.render([records["baseline"][0]])
    assert batch.trace(10, 0).rms() > 2 * batch.trace(0, 0).rms()


def test_invalid_sensor_rejected(psa, records):
    with pytest.raises(MeasurementError):
        psa.measure(records["baseline"][0], 16)


def test_measure_custom_coil(psa, records):
    coil = synthesize_rect_coil("custom_probe", 18, 10, size=8, turns=3)
    trace = psa.measure_coils_batch([coil], [records["baseline"][0]]).trace(0, 0)
    assert trace.label == "custom_probe"
    assert trace.n_samples == psa.config.n_samples
    # The grid is released afterwards.
    assert psa.grid.n_on == 0


def test_measure_coil_releases_on_repeat(psa, records):
    coil = synthesize_rect_coil("repeat_probe", 2, 2, size=6, turns=2)
    first = psa.measure_coils_batch([coil], [records["baseline"][0]])
    second = psa.measure_coils_batch([coil], [records["baseline"][0]])
    assert np.array_equal(first.samples, second.samples)


def test_trace_metadata(psa, records):
    trace = psa.measure(records["T1"][0], 10, trace_index=7)
    assert trace.scenario == "T1"
    assert trace.meta["trace_index"] == 7
    assert trace.meta["turns"] == 5
    assert trace.meta["r_series"] > 100.0
