"""Deterministic random-stream derivation."""

import numpy as np

from repro.rng import stream


def test_same_identity_same_stream():
    a = stream(7, "noise/x").normal(size=16)
    b = stream(7, "noise/x").normal(size=16)
    assert np.array_equal(a, b)


def test_different_names_differ():
    a = stream(7, "noise/x").normal(size=16)
    b = stream(7, "noise/y").normal(size=16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = stream(7, "noise/x").normal(size=16)
    b = stream(8, "noise/x").normal(size=16)
    assert not np.array_equal(a, b)


def test_similar_names_are_independent():
    """Hashing should decorrelate names that differ by one character."""
    a = stream(7, "sensor1").normal(size=256)
    b = stream(7, "sensor2").normal(size=256)
    correlation = abs(np.corrcoef(a, b)[0, 1])
    assert correlation < 0.2
