"""The proposed PSA's Table I column.

The column's detection outcomes come from the sweep orchestrator
(:func:`repro.experiments.table1.run_psa_sweep` over the ``table1``
grid), which featurizes through the run-time MONITOR stage's
featurizer; this class carries the column identity and the
monitored sensor's SNR.
"""

from __future__ import annotations

from ..chip.testchip import TestChip
from ..core.analysis.detector import DEFAULT_MONITOR_SENSOR
from ..core.array import ProgrammableSensorArray
from ..dsp.metrics import snr_rms_db
from ..workloads.campaign import MeasurementCampaign
from ..workloads.scenarios import scenario_by_name


class PsaMethod:
    """Table I column "PSA (proposed)"."""

    name = "psa"
    localization = True
    runtime = True

    def __init__(
        self,
        chip: TestChip,
        campaign: MeasurementCampaign,
        psa: ProgrammableSensorArray | None = None,
    ):
        self.chip = chip
        self.campaign = campaign
        self.psa = psa or campaign.psa

    def _monitor_batch(
        self, scenario_name: str, n_traces: int, index_offset: int
    ):
        scenario = scenario_by_name(scenario_name)
        indices = [index_offset + i for i in range(n_traces)]
        records = [self.campaign.record(scenario, index) for index in indices]
        return self.psa.render(
            records, trace_indices=indices, sensors=[DEFAULT_MONITOR_SENSOR]
        )

    def snr_db(self, n_traces: int = 3) -> float:
        """He-style SNR of the monitored PSA sensor."""
        signal = self._monitor_batch("baseline", n_traces, 0)
        noise = self._monitor_batch("idle", n_traces, 0)
        return snr_rms_db(
            signal.samples[0].ravel(), noise.samples[0].ravel()
        )
