"""Simulation configuration invariants."""

import pytest

from repro.config import DEFAULT_CONFIG, SimConfig
from repro.errors import ConfigError


def test_default_matches_paper_setup():
    cfg = DEFAULT_CONFIG
    assert cfg.f_clock == pytest.approx(33e6)
    assert cfg.block_cycles == 11
    assert cfg.f_block == pytest.approx(3e6)


def test_sampling_grid():
    cfg = SimConfig()
    assert cfg.fs == pytest.approx(cfg.f_clock * cfg.oversample)
    assert cfg.n_samples == cfg.n_cycles * cfg.oversample
    assert cfg.duration == pytest.approx(cfg.n_cycles / cfg.f_clock)
    assert cfg.dt == pytest.approx(1.0 / cfg.fs)


def test_sidebands_land_on_bins():
    """48 MHz and 84 MHz must be integer multiples of the bin width."""
    cfg = SimConfig()
    for freq in (48e6, 84e6, 33e6, 99e6, 15e6, 3e6):
        bins = freq * cfg.duration
        assert bins == pytest.approx(round(bins))


def test_trace_covers_whole_blocks():
    cfg = SimConfig()
    assert cfg.n_cycles % cfg.block_cycles == 0
    assert cfg.n_blocks == cfg.n_cycles // cfg.block_cycles


def test_with_replaces_fields():
    cfg = SimConfig()
    hot = cfg.with_(temperature_c=125.0)
    assert hot.temperature_c == 125.0
    assert hot.f_clock == cfg.f_clock


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f_clock=-1.0),
        dict(oversample=2),
        dict(oversample=7),
        dict(n_cycles=5),
        dict(vdd=0.2),
        dict(temperature_c=200.0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)
