"""Receiver models for the comparison methods."""

import pytest

from repro.chip.floorplan import DIE_SIZE
from repro.em.probes import (
    ONCHIP_SENSE_Z,
    icr_hh100_probe,
    langer_lf1_probe,
    single_coil_receiver,
)
from repro.errors import ConfigError


def test_single_coil_spans_the_die():
    coil = single_coil_receiver()
    turn = coil.turns[0]
    assert len(coil.turns) == 1
    assert turn.width == pytest.approx(DIE_SIZE - 20e-6)
    assert coil.z == ONCHIP_SENSE_Z
    # A ~4 mm perimeter of 1 um metal-8 wire is tens of ohms.
    assert 50.0 < coil.r_series < 150.0


def test_single_coil_has_campaign_drift_but_no_ambient():
    coil = single_coil_receiver()
    assert coil.ambient_gain < 1e-8
    assert 0.0 < coil.gain_jitter < 0.05


def test_lf1_geometry_and_exposure():
    probe = langer_lf1_probe()
    assert len(probe.turns) == 12
    assert probe.z == pytest.approx(1.5e-3)
    # Ambient pickup scales with the full multi-turn aperture.
    assert probe.ambient_gain == pytest.approx(
        12 * probe.turns[0].area
    )
    assert probe.gain_jitter > 0.0


def test_icr_is_smaller_closer_and_jitterier():
    icr = icr_hh100_probe()
    lf1 = langer_lf1_probe()
    assert icr.turns[0].area < 1e-3 * lf1.turns[0].area
    assert icr.z < lf1.z
    assert icr.gain_jitter >= lf1.gain_jitter
    # 100 um circle -> 89 um square of equal area.
    assert icr.turns[0].width == pytest.approx(89e-6)


def test_icr_positionable():
    probe = icr_hh100_probe(x_center=600e-6, y_center=400e-6)
    assert probe.turns[0].center[0] == pytest.approx(600e-6)
    assert probe.turns[0].center[1] == pytest.approx(400e-6)


def test_probe_validation():
    with pytest.raises(ConfigError):
        single_coil_receiver(inset=-1.0)
    with pytest.raises(ConfigError):
        langer_lf1_probe(height=0.0)
    with pytest.raises(ConfigError):
        icr_hh100_probe(height=-1e-3)
    with pytest.raises(ConfigError):
        langer_lf1_probe(n_turns=0)


def test_total_turn_area_property():
    probe = langer_lf1_probe()
    assert sum(turn.area for turn in probe.turns) == pytest.approx(12 * probe.turns[0].area)
