"""Hardware Trojan models (Section V-A, modified from Trust-Hub).

Four Trojans with distinct triggers and payloads:

* :class:`T1AmCarrier` — amplitude-modulation radio carrier at 750 kHz,
  triggered periodically when a 21-bit counter reaches ``21'h1FFFFF``;
* :class:`T2KeyLeakInverters` — a chain of inverters attached to a key
  wire to amplify its leakage, triggered when the plaintext prefix is
  ``0xAAAA``;
* :class:`T3CdmaLeaker` — a CDMA channel Trojan spreading key bits with
  a PN code (always-on, external enable in experiments);
* :class:`T4DosHeater` — a denial-of-service heater bank that elevates
  power consumption (always-on, external enable in experiments).

Plus the always-on variant family of :mod:`repro.trojans.always_on`
(no trigger, no enable — active from power-on), the scenario class
the reference-free detectors of :mod:`repro.detectors` exist for:

* :class:`T1AContinuousCarrier` — T1's carrier, trigger deleted;
* :class:`T2AContinuousLeaker` — T2's inverter chain, leaks every block;
* :class:`TPParametricDrift` — parametric (dopant-level) drift Trojan.
"""

from .always_on import (
    ALWAYS_ON_CELLS,
    ALWAYS_ON_NAMES,
    AlwaysOnTrojan,
    T1AContinuousCarrier,
    T2AContinuousLeaker,
    TPParametricDrift,
)
from .base import CycleWindow, Trojan, block_pattern
from .catalog import TROJAN_CATALOG, VARIANT_CATALOG, TrojanInfo
from .t1_am_carrier import T1AmCarrier
from .t2_leakage import T2KeyLeakInverters
from .t3_cdma import T3CdmaLeaker
from .t4_dos import T4DosHeater

__all__ = [
    "CycleWindow",
    "Trojan",
    "block_pattern",
    "T1AmCarrier",
    "T2KeyLeakInverters",
    "T3CdmaLeaker",
    "T4DosHeater",
    "ALWAYS_ON_CELLS",
    "ALWAYS_ON_NAMES",
    "AlwaysOnTrojan",
    "T1AContinuousCarrier",
    "T2AContinuousLeaker",
    "TPParametricDrift",
    "TROJAN_CATALOG",
    "VARIANT_CATALOG",
    "TrojanInfo",
]
