"""PSA-EM: programmable on-chip EM sensor array simulation.

A full-stack reproduction of *"Programmable EM Sensor Array for
Golden-Model Free Run-time Trojan Detection and Localization"*
(Wang et al., DATE 2024): the AES-128 test chip with its four hardware
Trojans, the physical EM substrate, the programmable sensor array, the
comparison baselines, and the cross-domain detection / localization /
identification pipeline.

Quickstart — a run-time monitoring session on four chips, one per
catalog Trojan::

    from repro.runtime import build_fleet

    report = build_fleet("paper", n_chips=4).run()
    print(report.format())
"""

from ._version import __version__
from .config import DEFAULT_CONFIG, SimConfig
from .errors import ReproError
from .traces import Trace
from .chip.testchip import TestChip
from .chip.floorplan import Floorplan, Rect, default_floorplan
from .core.array import ProgrammableSensorArray
from .core.grid import PsaGrid
from .core.coil import Coil, synthesize_rect_coil
from .engine import MeasurementEngine, TraceBatch
from .instruments.spectrum_analyzer import SpectrumAnalyzer
from .store import ArtifactStore
from .workloads.campaign import MeasurementCampaign
from .traceio import load_traces, save_traces

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "SimConfig",
    "ReproError",
    "Trace",
    "TestChip",
    "Floorplan",
    "Rect",
    "default_floorplan",
    "ProgrammableSensorArray",
    "PsaGrid",
    "Coil",
    "synthesize_rect_coil",
    "MeasurementEngine",
    "TraceBatch",
    "ArtifactStore",
    "SpectrumAnalyzer",
    "MeasurementCampaign",
    "load_traces",
    "save_traces",
]
