"""Shared measurement bench for receiver-based methods.

The external-probe and single-coil baselines differ from the PSA only
in their receiver geometry and noise environment; this bench renders an
:class:`~repro.chip.power.ActivityRecord` into an amplified trace for
any single receiver, routing through the same
:class:`~repro.engine.MeasurementEngine` as the PSA so the comparison
is apples to apples (and batched the same way).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..calibration import COUPLING_SCALE
from ..chip.power import ActivityRecord
from ..chip.testchip import TestChip
from ..dsp.transforms import Spectrum
from ..em.amplifier import MeasurementAmplifier
from ..em.coupling import CouplingMatrix, Receiver
from ..engine import MeasurementEngine, TraceBatch
from ..instruments.spectrum_analyzer import SpectrumAnalyzer
from ..traces import Trace
from ..workloads.campaign import MeasurementCampaign, StreamSegment


class ReceiverBench:
    """Measurement bench around one receiver.

    Parameters
    ----------
    chip:
        Device under test.
    receiver:
        The sensing structure.
    amplifier:
        Front-end (the external probes use the same bench amplifier as
        the PSA's channels, per the shared PCB of Section VI-A).
    engine:
        Measurement engine override (defaults to a fresh engine on the
        chip config).
    """

    def __init__(
        self,
        chip: TestChip,
        receiver: Receiver,
        amplifier: MeasurementAmplifier | None = None,
        engine: Optional[MeasurementEngine] = None,
    ):
        self.chip = chip
        self.receiver = receiver
        self.amplifier = amplifier or MeasurementAmplifier()
        self.analyzer = SpectrumAnalyzer()
        self.engine = engine or MeasurementEngine(
            chip.config, amplifier=self.amplifier
        )
        self.coupling = CouplingMatrix(chip.floorplan, [receiver], scale=COUPLING_SCALE)

    def measure(self, record: ActivityRecord, trace_index: int = 0) -> Trace:
        """Capture one amplified trace from the receiver.

        Probe repositioning drift between captures (``gain_jitter``)
        is applied by the engine from the capture's render stream.
        """
        return self.measure_batch([record], [trace_index]).trace(0, 0)

    def measure_batch(
        self,
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Render a batch of captures in one engine pass."""
        return self.engine.render(
            self.coupling, records, trace_indices=trace_indices
        )

    # -- scenario-level collection ------------------------------------------------

    def collect_batch(
        self,
        campaign: MeasurementCampaign,
        scenario_name: str,
        n_traces: int,
        index_offset: int = 0,
    ) -> TraceBatch:
        """Capture ``n_traces`` of one scenario as one batched render."""
        segment = StreamSegment(scenario_name, n_traces, index_offset)
        return self.measure_batch(
            campaign.stream_records([segment]), segment.indices
        )

    def collect(
        self, campaign: MeasurementCampaign, scenario_name: str, n_traces: int,
        index_offset: int = 0,
    ) -> List[Trace]:
        """Capture ``n_traces`` of one scenario with fresh workloads."""
        batch = self.collect_batch(
            campaign, scenario_name, n_traces, index_offset
        )
        return batch.traces(0)

    def spectra(self, traces: Sequence[Trace]) -> List[Spectrum]:
        """Display spectra of a trace collection (one batched pass)."""
        if not traces:
            return []
        stack = np.stack([trace.samples for trace in traces])
        return self.analyzer.display_spectra(stack, traces[0].fs)

    def snr_db(self, campaign: MeasurementCampaign, n_traces: int = 3) -> float:
        """He-style SNR (Equation (1)) of this receiver."""
        from ..dsp.metrics import snr_rms_db

        signal = self.collect_batch(campaign, "baseline", n_traces)
        noise = self.collect_batch(campaign, "idle", n_traces)
        return snr_rms_db(
            signal.samples[0].ravel(), noise.samples[0].ravel()
        )


def euclidean_statistics(
    spectra: Sequence[Spectrum], reference: Spectrum
) -> np.ndarray:
    """Per-trace Euclidean distance to a reference spectrum.

    The statistic of He et al. (TVLSI'17): compare each captured
    spectrum against the reference by L2 distance.
    """
    ref = reference.amps
    return np.array(
        [float(np.linalg.norm(spec.amps - ref)) for spec in spectra]
    )


def reference_spectrum(spectra: Sequence[Spectrum]) -> Spectrum:
    """Mean (power-domain) spectrum of a reference collection."""
    from ..dsp.transforms import average_spectra

    return average_spectra(list(spectra))
