"""Coupling matrices and EMF synthesis."""

import numpy as np
import pytest

from repro.chip.power import ActivityRecord
from repro.em.coupling import CouplingMatrix, emf_rfft
from repro.em.probes import langer_lf1_probe, single_coil_receiver
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def coupling(chip, psa):
    return psa.coupling


def test_matrix_shape(coupling, chip):
    assert coupling.matrix.shape == (16, chip.floorplan.n_regions)
    assert coupling.bond_row.shape == (16,)


def test_sensor10_dominates_trojan_regions(coupling, chip):
    """Sensor 10 couples hardest to the Trojan cluster."""
    weights = np.zeros(chip.floorplan.n_regions)
    for trojan in ("T1", "T2", "T3", "T4"):
        weights += chip.floorplan.module_weights(trojan)
    scores = np.abs(coupling.matrix) @ weights
    assert int(np.argmax(scores)) == 10


def test_sensor0_weak_on_trojan_regions(coupling, chip):
    weights = chip.floorplan.module_weights("T1")
    scores = np.abs(coupling.matrix) @ weights
    assert scores[0] < 0.05 * scores[10]


def test_row_and_index_lookup(coupling):
    row = coupling.row("psa_sensor_10")
    assert np.array_equal(row, coupling.matrix[10])
    assert coupling.index_of("psa_sensor_3") == 3
    with pytest.raises(ConfigError):
        coupling.row("nonexistent")


def test_bond_row_larger_for_external_probe(chip):
    matrix = CouplingMatrix(
        chip.floorplan,
        [langer_lf1_probe(), single_coil_receiver()],
        scale=1.0,
    )
    # The multi-turn probe at package distance links far more of the
    # bond loop's flux than... both link it; the probe's local-region
    # coupling must be tiny compared to the on-chip coil's.
    probe_local = np.abs(matrix.matrix[0]).sum()
    coil_local = np.abs(matrix.matrix[1]).sum()
    assert coil_local > 10 * probe_local


def _emf(coupling, config, **factors):
    """Rendered EMF waveforms of a record built from ``factors``."""
    record = ActivityRecord(config=config, scenario="t", factors=factors)
    return np.fft.irfft(emf_rfft(coupling, record), n=config.n_samples, axis=-1)


def _region(chip, index):
    weights = np.zeros(chip.floorplan.n_regions)
    weights[index] = 1.0
    return weights


def test_emf_superposition(chip, psa):
    """EMF is linear in the activity (superposition holds)."""
    config = chip.config
    a = ("a", _region(chip, 100), np.full(config.n_cycles, 5.0))
    b = ("b", _region(chip, 300), np.full(config.n_cycles, 3.0))
    emf_a = _emf(psa.coupling, config, main=[a])
    emf_b = _emf(psa.coupling, config, main=[b])
    emf_ab = _emf(psa.coupling, config, main=[a, b])
    assert np.abs(emf_a).max() > 0
    assert np.allclose(emf_ab, emf_a + emf_b, rtol=0, atol=1e-9 * np.abs(emf_ab).max())


def test_trojan_phase_offset(chip, psa):
    """Trojan activity renders half a cycle after main activity."""
    config = chip.config
    toggles = np.zeros(config.n_cycles)
    toggles[10] = 1.0
    pulse = ("p", _region(chip, 200), toggles)
    emf_main = _emf(psa.coupling, config, main=[pulse])[10]
    emf_trojan = _emf(psa.coupling, config, trojan=[pulse])[10]
    # Identical waveform, displaced by half a cycle.
    shifted = np.roll(emf_main, config.oversample // 2)
    assert np.abs(emf_main).max() > 0
    assert np.allclose(emf_trojan, shifted, rtol=0, atol=1e-9 * np.abs(emf_main).max())


def test_scale_is_linear(chip):
    receivers = [single_coil_receiver()]
    small = CouplingMatrix(chip.floorplan, receivers, scale=1.0)
    big = CouplingMatrix(chip.floorplan, receivers, scale=10.0)
    assert np.allclose(big.matrix, 10.0 * small.matrix)
    # The bond row is governed by its own scale.
    assert np.allclose(big.bond_row, small.bond_row)


def test_invalid_construction(chip):
    with pytest.raises(ConfigError):
        CouplingMatrix(chip.floorplan, [])
    with pytest.raises(ConfigError):
        CouplingMatrix(chip.floorplan, [single_coil_receiver()], scale=-1.0)
    with pytest.raises(ConfigError):
        CouplingMatrix(
            chip.floorplan, [single_coil_receiver()], return_fraction=1.5
        )
