"""Workload generation and measurement campaigns.

The paper's chip "receives plaintext from and sends ciphertext to a
laptop through serial communications" while traces are captured under
five scenarios (no active HT, T1..T4 individually active).  This
package provides the plaintext sources (LFSR-driven, as the chip's
``en_LFSR`` self-test pin suggests), named scenario definitions and the
campaign runner that turns (chip, PSA, scenario stream) into trace
batches.
"""

from .lfsr import GaloisLfsr, PlaintextGenerator
from .scenarios import SCENARIOS, Scenario, scenario_by_name
from .campaign import MeasurementCampaign, StreamSegment

__all__ = [
    "GaloisLfsr",
    "PlaintextGenerator",
    "SCENARIOS",
    "Scenario",
    "scenario_by_name",
    "MeasurementCampaign",
    "StreamSegment",
]
