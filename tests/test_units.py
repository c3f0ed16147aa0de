"""Units and conversion helpers."""

import math

import pytest

from repro import units


def test_mu0_value():
    assert units.MU0 == pytest.approx(4e-7 * math.pi)


def test_scale_prefixes_are_consistent():
    assert units.MM == pytest.approx(1e3 * units.UM)
    assert units.MM == pytest.approx(1e6 * units.NM)
    assert units.MHZ == pytest.approx(1e3 * units.KHZ)
    assert units.US == pytest.approx(1e3 * units.NS)


def test_celsius_kelvin_roundtrip():
    assert units.celsius_to_kelvin(25.0) - units.celsius_to_kelvin(0.0) == 25.0
    assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)


def test_db_amplitude_definition():
    assert units.from_db(20.0) == pytest.approx(10.0)
    assert units.from_db(0.0) == 1.0
    assert units.from_db(20.0 * math.log10(3.7)) == pytest.approx(3.7)
