"""Electromagnetic physics substrate.

Implements the magnetostatics that couple on-chip switching currents
into the PSA coils, external probes and the single-coil baseline:

* **Sources** — each floorplan region's supply current is a *dipole
  pair*: a positive vertical magnetic dipole at the region center and a
  negative one displaced to the nearest power stripe (the return path).
  The pair's far field decays like a quadrupole, and a loop that
  encloses *both* poles links almost zero net flux — the paper's
  "self-cancellation" that penalizes whole-chip single coils — while a
  sensor matched to the Trojan/stripe scale straddles one pole and
  keeps a strong net flux.
* **Receivers** — arbitrary stacks of rectangular turns; flux is the
  vector-potential line integral around each turn.
* **Electrical chain** — T-gate/MOSFET on-resistance vs supply and
  temperature, coil impedance, Johnson + ambient noise, and the 50 dB
  band-shaping amplifier.
"""

from .dipole import bz_unit_dipole
from .loops import turns_flux_factor
from .coupling import (
    CouplingMatrix,
    Receiver,
    charge_amplitudes,
    coupling_cache_stats,
    emf_rfft,
)
from .noise import NoiseModel, ambient_rms, johnson_rms
from .devices import (
    TGATE_R_NOMINAL,
    mosfet_on_resistance,
    sensor_impedance,
    tgate_resistance,
)
from .amplifier import MeasurementAmplifier
from .probes import icr_hh100_probe, langer_lf1_probe, single_coil_receiver

__all__ = [
    "bz_unit_dipole",
    "turns_flux_factor",
    "CouplingMatrix",
    "Receiver",
    "charge_amplitudes",
    "coupling_cache_stats",
    "emf_rfft",
    "NoiseModel",
    "ambient_rms",
    "johnson_rms",
    "TGATE_R_NOMINAL",
    "mosfet_on_resistance",
    "sensor_impedance",
    "tgate_resistance",
    "MeasurementAmplifier",
    "icr_hh100_probe",
    "langer_lf1_probe",
    "single_coil_receiver",
]
