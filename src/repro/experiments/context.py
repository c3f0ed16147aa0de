"""Shared experiment fixtures.

Building the chip + PSA (coupling matrices in particular) costs a few
seconds; experiments and benchmarks share one lazily-built context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..chip.testchip import TestChip
from ..config import SimConfig
from ..core.array import ProgrammableSensorArray
from ..workloads.campaign import MeasurementCampaign

#: The key programmed into every experiment chip.
DEFAULT_KEY = bytes(range(16))


@dataclass
class ExperimentContext:
    """One assembled chip + sensor array + campaign."""

    config: SimConfig
    chip: TestChip
    psa: ProgrammableSensorArray
    campaign: MeasurementCampaign

    @classmethod
    def build(cls, config: Optional[SimConfig] = None) -> "ExperimentContext":
        """Assemble a fresh context."""
        config = config or SimConfig()
        chip = TestChip(DEFAULT_KEY, config)
        psa = ProgrammableSensorArray(chip)
        return cls(
            config=config,
            chip=chip,
            psa=psa,
            campaign=MeasurementCampaign(chip, psa),
        )

    def close(self) -> None:
        """Drop the engine's capture-plan memo."""
        self.psa.close()


_default: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """The process-wide shared context (built on first use)."""
    global _default
    if _default is None:
        _default = ExperimentContext.build()
    return _default
