"""The end-to-end cross-domain analyzer.

One object that runs the paper's full Section VI-D flow against a test
chip: collect spectra, find the prominent sideband components, detect
the activation golden-model-free, localize the Trojan to a sensor (and
quadrant), and identify which Trojan it is from the zero-span envelope
— with MTTD accounting throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...chip.testchip import TestChip
from ...dsp.transforms import average_spectra
from ...errors import AnalysisError
from ...instruments.spectrum_analyzer import SpectrumAnalyzer
from ...traces import Trace
from ...workloads.campaign import MeasurementCampaign
from ...workloads.scenarios import reference_for, scenario_by_name
from ..array import ProgrammableSensorArray
from .detector import DetectorConfig
from .identifier import IdentificationResult, TrojanIdentifier
from .localizer import LocalizationResult, Localizer
from .mttd import MttdModel, MttdResult, mttd_from_alarm
from .spectral import find_prominent_components, sideband_frequencies

#: The sensor the run-time monitor watches by default (covers the
#: Trojan cluster on the paper's chip).
DEFAULT_MONITOR_SENSOR = 10


@dataclass(frozen=True)
class CrossDomainReport:
    """Everything the cross-domain analysis concludes about one Trojan.

    Attributes
    ----------
    scenario:
        The analyzed Trojan scenario name.
    prominent_components:
        ``(frequency, delta_db)`` pairs from the frequency-domain stage.
    mttd:
        Detection latency result.
    alarm_trace_index:
        Stream index of the alarming trace (None if undetected).
    localization:
        Localization stage outcome.
    identification:
        Identification stage outcome.
    monitor_sensor:
        The sensor whose stream fed the detector.
    """

    scenario: str
    prominent_components: List[Tuple[float, float]]
    mttd: MttdResult
    alarm_trace_index: Optional[int]
    localization: LocalizationResult
    identification: IdentificationResult
    monitor_sensor: int


class CrossDomainAnalyzer:
    """Drives detection, localization and identification.

    Parameters
    ----------
    chip:
        Device under test.
    psa:
        Its programmable sensor array.
    analyzer:
        Spectrum analyzer model.
    detector_config:
        Run-time detector tuning.
    mttd_model:
        Per-trace timing model.
    monitor_sensor:
        Sensor watched by the streaming detector.
    """

    def __init__(
        self,
        chip: TestChip,
        psa: ProgrammableSensorArray,
        analyzer: Optional[SpectrumAnalyzer] = None,
        detector_config: Optional[DetectorConfig] = None,
        mttd_model: Optional[MttdModel] = None,
        monitor_sensor: int = DEFAULT_MONITOR_SENSOR,
    ):
        self.chip = chip
        self.psa = psa
        self.analyzer = analyzer or SpectrumAnalyzer()
        self.detector_config = detector_config or DetectorConfig(warmup=6)
        self.mttd_model = mttd_model or MttdModel()
        self.monitor_sensor = monitor_sensor
        self.campaign = MeasurementCampaign(chip, psa)
        self.identifier = TrojanIdentifier(
            self.analyzer, f_probe=sideband_frequencies(chip.config)[0]
        )
        self.localizer = Localizer(psa, self.analyzer)

    # -- feature stream -----------------------------------------------------------

    def monitor_stream(
        self, scenario_name: str, n_baseline: int, n_active: int
    ) -> Tuple[List[float], List[Trace], int]:
        """Build the runtime stream: baseline traces, then activation.

        Delegates to the streaming subsystem: the scripted
        :class:`~repro.runtime.sources.ActivationSchedule` renders
        through a :class:`~repro.runtime.sources.LiveSource` and the
        shared chunk featurizer — the exact machinery behind
        ``repro monitor``.  The engine's determinism contract keeps
        it bit-identical to one render of every capture.  Returns
        ``(features, active_traces, trigger_index)``.
        """
        # Function-level imports: repro.runtime and repro.detectors
        # sit above the analysis package (they compose its stages), so
        # the delegation must not run at module-import time.
        from ...detectors import make_detector
        from ...runtime.pipeline import chunk_features
        from ...runtime.sources import ActivationSchedule, LiveSource

        schedule = ActivationSchedule.step(
            scenario_name,
            n_baseline=n_baseline,
            n_active=n_active,
            active_offset=500,
        )
        source = LiveSource(
            self.campaign,
            schedule,
            sensors=[self.monitor_sensor],
            chunk=max(1, n_baseline + n_active),
        )
        reducer = make_detector("welford", 1)
        features: List[float] = []
        active_traces: List[Trace] = []
        for chunk in source.chunks():
            block = chunk_features(
                chunk, self.analyzer, self.chip.config, reducer
            )
            features.extend(float(value) for value in block[0])
            for offset in range(chunk.n_windows):
                if chunk.start + offset >= n_baseline:
                    active_traces.append(chunk.trace(0, offset))
        return features, active_traces, n_baseline

    # -- the full flow -----------------------------------------------------------------

    def run(
        self,
        scenario_name: str,
        n_baseline: int = 8,
        n_active: int = 8,
        refine_localization: bool = True,
    ) -> CrossDomainReport:
        """Run the complete cross-domain analysis for one Trojan.

        Parameters
        ----------
        scenario_name:
            ``"T1"``..``"T4"``.
        n_baseline:
            Pre-activation traces (detector warm-up; the paper's flow
            needs fewer than ten in total).
        n_active:
            Post-activation traces available to the pipeline.
        refine_localization:
            Whether to run the quadrant-refinement stage.
        """
        scenario = scenario_by_name(scenario_name)
        if scenario.idle or not scenario.active:
            raise AnalysisError(
                f"scenario {scenario_name!r} has no Trojan to analyze"
            )

        from ...detectors import make_detector  # sits above analysis

        # 1+2: stream features through the golden-model-free detector.
        features, active_traces, trigger = self.monitor_stream(
            scenario_name, n_baseline, n_active
        )
        detector = make_detector("welford", 1, self.detector_config)
        alarm_index = detector.process(features).first_alarm()
        mttd = mttd_from_alarm(
            alarm_index, trigger, self.chip.config, self.mttd_model
        )

        # Frequency-domain stage: prominent components from 5-trace
        # averaged spectra (the paper's display setting).  Both
        # populations render as one engine batch on the monitor sensor.
        reference = reference_for(scenario_name)
        base_records = [self.campaign.record(reference, 100 + i) for i in range(5)]
        act_records = [self.campaign.record(scenario, 600 + i) for i in range(5)]
        display_batch = self.psa.render(
            base_records + act_records,
            trace_indices=[100 + i for i in range(5)]
            + [600 + i for i in range(5)],
            sensors=[self.monitor_sensor],
        )
        spectra = self.analyzer.display_spectra(
            display_batch.samples[0], display_batch.fs
        )
        base_avg = average_spectra(spectra[:5])
        act_avg = average_spectra(spectra[5:])
        prominent = find_prominent_components(
            act_avg, base_avg, self.chip.config
        )

        # 3: localization over the full sensor map.
        localization = self.localizer.localize(
            base_records, act_records, refine=refine_localization
        )

        # 4: identification from a detection-positive trace's envelope.
        if not active_traces:
            raise AnalysisError("no active traces available to identify")
        identification = self.identifier.classify(active_traces[-1])

        return CrossDomainReport(
            scenario=scenario_name,
            prominent_components=prominent,
            mttd=mttd,
            alarm_trace_index=alarm_index,
            localization=localization,
            identification=identification,
            monitor_sensor=self.monitor_sensor,
        )
