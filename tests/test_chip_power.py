"""Supply-current kernel and power model."""

import numpy as np
import pytest

from repro.chip.power import (
    ActivityRecord,
    charge_per_toggle,
    current_kernel,
    emf_kernel,
)
from repro.config import SimConfig
from repro.errors import ConfigError


def test_charge_per_toggle():
    assert charge_per_toggle(1.2, 3e-15) == pytest.approx(3.6e-15)
    with pytest.raises(ConfigError):
        charge_per_toggle(0.0)


def test_kernel_integrates_to_unit_charge():
    config = SimConfig()
    kernel = current_kernel(config)
    assert kernel.shape == (config.oversample,)
    assert kernel.sum() * config.dt == pytest.approx(1.0, rel=1e-9)


def test_kernel_has_half_duty():
    """~50 % duty: the mechanism that suppresses even harmonics."""
    config = SimConfig()
    kernel = current_kernel(config)
    high = kernel > 0.5 * kernel.max()
    duty = high.sum() / kernel.size
    assert 0.4 <= duty <= 0.6


def test_kernel_suppresses_even_harmonics():
    config = SimConfig()
    kernel = current_kernel(config)
    reps = 32
    spectrum = np.abs(np.fft.rfft(np.tile(kernel, reps)))
    odd = spectrum[reps] + spectrum[3 * reps]
    even = spectrum[2 * reps] + spectrum[4 * reps]
    assert even < 0.05 * odd


def test_emf_kernel_is_derivative():
    config = SimConfig()
    kernel = current_kernel(config)
    dkernel = emf_kernel(config)
    assert dkernel.shape == (config.oversample,)
    # Derivative of a periodic kernel sums to ~zero.
    assert abs(dkernel.sum()) * config.dt < 1e-6 * np.abs(dkernel).max()


def test_activity_record_validation():
    config = SimConfig()
    weights = np.ones(10)
    toggles = np.zeros(config.n_cycles)
    record = ActivityRecord(config=config, factors={"main": [("m", weights, toggles)]})
    # A record is factor-only: no factors, or none in any group, is refused.
    for factors in (None, {}, {"main": []}):
        with pytest.raises(ConfigError):
            ActivityRecord(config=config, factors=factors)
    with pytest.raises(ConfigError):
        ActivityRecord(config=config, factors={"main": [("m", weights, np.zeros(5))]})
    with pytest.raises(ConfigError):
        ActivityRecord(
            config=config,
            factors={
                "main": [("m", weights, toggles)],
                "trojan": [("t", np.ones(4), toggles)],
            },
        )
    with pytest.raises(TypeError):
        ActivityRecord(main=np.zeros((10, config.n_cycles)), config=config)


def test_record_totals():
    config = SimConfig()
    weights = np.ones(4)
    record = ActivityRecord(
        config=config,
        factors={
            "main": [("m", weights, np.full(config.n_cycles, 2.0))],
            "trojan": [("t", weights, np.full(config.n_cycles, 1.0))],
        },
    )
    assert record.combined().sum() == pytest.approx(3.0 * 4 * config.n_cycles)
    assert np.allclose(record.combined(), 3.0)
    assert not record.trojan_rising.any()
    # The dense views are read-only and built once.
    assert record.main is record.main
    with pytest.raises(ValueError):
        record.main[0, 0] = 1.0
    with pytest.raises(AttributeError):
        record.main = np.zeros((4, config.n_cycles))
