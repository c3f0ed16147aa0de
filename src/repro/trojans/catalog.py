"""Trust-Hub-style catalog of the four test-chip Trojans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .always_on import ALWAYS_ON_CELLS


@dataclass(frozen=True)
class TrojanInfo:
    """Catalog entry describing one Trojan.

    Attributes
    ----------
    name:
        T1..T4.
    trust_hub_family:
        The Trust-Hub benchmark family the paper's design is modified
        from.
    description:
        Payload summary.
    trigger:
        Trigger condition summary.
    always_on:
        True when the silicon payload runs whenever enabled (T3, T4).
    n_cells:
        Standard-cell count (Table II).
    """

    name: str
    trust_hub_family: str
    description: str
    trigger: str
    always_on: bool
    n_cells: int


#: The catalog, in paper order.
TROJAN_CATALOG: Dict[str, TrojanInfo] = {
    "T1": TrojanInfo(
        name="T1",
        trust_hub_family="AES-T1800 (RF leak)",
        description="Amplitude-modulation radio carrier emitting at 750 kHz",
        trigger="21-bit counter reaches 21'h1FFFFF (period ~63.6 ms @ 33 MHz)",
        always_on=False,
        n_cells=1881,
    ),
    "T2": TrojanInfo(
        name="T2",
        trust_hub_family="AES-T1600 (leakage amplifier)",
        description="Inverter chain on a key wire amplifying leakage current",
        trigger="first two plaintext bytes equal 0xAAAA",
        always_on=False,
        n_cells=2132,
    ),
    "T3": TrojanInfo(
        name="T3",
        trust_hub_family="AES-T700 (CDMA leak)",
        description="CDMA channel leaking key bits over a PN code",
        trigger="always-on (external enable in experiments)",
        always_on=True,
        n_cells=329,
    ),
    "T4": TrojanInfo(
        name="T4",
        trust_hub_family="AES-T1400 (DoS)",
        description="Ring-oscillator heater elevating power consumption",
        trigger="always-on (external enable in experiments)",
        always_on=True,
        n_cells=2181,
    ),
}

#: The always-on variant family (see :mod:`repro.trojans.always_on`).
#: Deliberately separate from :data:`TROJAN_CATALOG`: the fabricated
#: test chip carries exactly T1..T4, and Table II / the netlist
#: inventory account only for those.
VARIANT_CATALOG: Dict[str, TrojanInfo] = {
    "T1A": TrojanInfo(
        name="T1A",
        trust_hub_family="AES-T1800 variant (trigger deleted)",
        description="T1's 750 kHz AM carrier running continuously",
        trigger="none — active from power-on",
        always_on=True,
        n_cells=ALWAYS_ON_CELLS["T1A"],
    ),
    "T2A": TrojanInfo(
        name="T2A",
        trust_hub_family="AES-T1600 variant (trigger deleted)",
        description="key-wire inverter chain leaking on every block",
        trigger="none — active from power-on",
        always_on=True,
        n_cells=ALWAYS_ON_CELLS["T2A"],
    ),
    "TP": TrojanInfo(
        name="TP",
        trust_hub_family="parametric (dopant-level, no added logic)",
        description=(
            "skewed-implant buffer bank whose leakage ramps with "
            "junction temperature over each window"
        ),
        trigger="none — parametric, conducts from power-on",
        always_on=True,
        n_cells=ALWAYS_ON_CELLS["TP"],
    ),
}
