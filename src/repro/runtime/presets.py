"""Named run-time monitoring presets (CLI ``repro monitor --preset``).

A preset scripts one complete monitoring session — stream lengths,
chunking, detector tuning — and scales to a fleet by cycling the
catalog Trojans over the members (chip ``i`` gets Trojan ``T{(i % 4) +
1}`` and seed ``base_seed + i``), so ``repro monitor --fleet 4``
exercises all four archetypes concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import SimConfig
from ..core.analysis.detector import DEFAULT_MONITOR_SENSOR, DetectorConfig
from ..errors import AnalysisError, unknown_name_error
from ..store import ArtifactStore
from .events import EventBus
from .fleet import ChipSpec, FleetScheduler, build_chip_monitor
from .pipeline import PipelineConfig

#: The four catalog Trojans, in paper order (fleet cycling order).
FLEET_TROJANS: Tuple[str, ...] = ("T1", "T2", "T3", "T4")


@dataclass(frozen=True)
class MonitorPreset:
    """One named monitoring configuration.

    Attributes
    ----------
    name:
        Preset identity.
    trojan:
        Trojan of a single-chip session (fleets cycle the catalog).
    n_baseline, n_active:
        Span lengths of the scripted stream.
    chunk:
        Windows per rendered chunk.
    warmup:
        Detector warm-up traces.
    detector_name:
        Registered detection method of the MONITOR stage (see
        :mod:`repro.detectors`; the CLI's ``--detector`` overrides
        this per session).
    localize:
        Run the LOCALIZE stage on escalation.
    localize_records:
        Records per population in the LOCALIZE stage.
    description:
        Human-readable summary.
    """

    name: str
    trojan: str = "T4"
    n_baseline: int = 8
    n_active: int = 6
    chunk: int = 8
    warmup: int = 6
    detector_name: str = "welford"
    localize: bool = True
    localize_records: int = 2
    description: str = ""

    def detector(self) -> DetectorConfig:
        """Detector tuning of the preset."""
        return DetectorConfig(warmup=self.warmup)

    def pipeline_config(self) -> PipelineConfig:
        """Stage tuning of the preset.

        ``quantize`` stays on: the RASC ADC digitizes the time-domain
        windows the pipeline is fed (replay, serve uploads), while a
        live session featurizes rendered rFFT columns, which no ADC
        touches.
        """
        return PipelineConfig(
            detector=self.detector(),
            detector_name=self.detector_name,
            localize=self.localize,
            localize_records=self.localize_records,
        )

    def specs(
        self, n_chips: int, base_seed: Optional[int] = None
    ) -> Tuple[ChipSpec, ...]:
        """Fleet member recipes: Trojans cycle, seeds step.

        A single chip (``n_chips=1``) keeps the preset's own Trojan;
        fleets cycle the full catalog so every archetype is monitored.

        The ``welford`` self-baseline calibrates itself per stream, so
        it watches every sensor.  A reference-free method compares
        against an absolute threshold calibrated for the run-time
        monitor sensor's placement — sensors over the AES core see
        40+ dB of legitimate block-harmonic excess — so those presets
        monitor that sensor only.
        """
        if n_chips < 1:
            raise AnalysisError("need at least one chip")
        sensors = None if self.detector_name == "welford" else (DEFAULT_MONITOR_SENSOR,)
        seed = SimConfig().seed if base_seed is None else base_seed
        specs = []
        for index in range(n_chips):
            trojan = (
                self.trojan
                if n_chips == 1
                else FLEET_TROJANS[index % len(FLEET_TROJANS)]
            )
            specs.append(
                ChipSpec(
                    chip_id=f"chip{index}",
                    trojan=trojan,
                    seed=seed + index,
                    n_baseline=self.n_baseline,
                    n_active=self.n_active,
                    sensors=sensors,
                    chunk=self.chunk,
                )
            )
        return tuple(specs)


#: Named presets.
MONITOR_PRESETS: Dict[str, MonitorPreset] = {
    preset.name: preset
    for preset in [
        MonitorPreset(
            name="smoke",
            trojan="T4",
            n_baseline=6,
            n_active=4,
            chunk=4,
            warmup=4,
            localize_records=2,
            description="tiny CI stream (T4, 10 windows)",
        ),
        MonitorPreset(
            name="paper",
            description=(
                "Section VI-D monitoring stream (8 quiet + 6 active "
                "windows, warm-up 6)"
            ),
        ),
        MonitorPreset(
            name="soak",
            n_baseline=24,
            n_active=12,
            chunk=16,
            warmup=8,
            description="longer self-baseline soak (36 windows per chip)",
        ),
    ]
}


def build_preset(name: str) -> MonitorPreset:
    """Look up a named preset."""
    if name not in MONITOR_PRESETS:
        raise unknown_name_error(
            "monitor preset", name, sorted(MONITOR_PRESETS)
        )
    return MONITOR_PRESETS[name]


def build_fleet(
    preset: "str | MonitorPreset",
    n_chips: int = 1,
    config: Optional[SimConfig] = None,
    bus: Optional[EventBus] = None,
    store: Optional[ArtifactStore] = None,
) -> FleetScheduler:
    """Assemble a ready-to-run fleet from a preset.

    Parameters
    ----------
    preset:
        Preset name or instance.
    n_chips:
        Fleet size (1 = single-chip session).
    config:
        Base simulation config of every member (each runs on its own
        seed).
    bus:
        Event bus shared by every member (e.g. one JSONL sink for the
        whole fleet).
    store:
        Optional :class:`~repro.store.ArtifactStore` shared by every
        member's record memo (warm-starts repeated sessions).
    """
    if isinstance(preset, str):
        preset = build_preset(preset)
    tuning = preset.pipeline_config()
    monitors = [
        build_chip_monitor(
            spec, config=config, pipeline_config=tuning, bus=bus, store=store
        )
        for spec in preset.specs(n_chips, base_seed=(config or SimConfig()).seed)
    ]
    return FleetScheduler(monitors)
