"""Run-time cross-domain analysis (Section VI-D): the stages.

The paper's flow, stage by stage:

1. **Frequency domain** — per-sensor spectra are screened for
   prominent components that appear only when a Trojan is active; with
   the paper's clocking these are the 48 MHz / 84 MHz sidebands of the
   1st/3rd clock harmonics (:mod:`~repro.core.analysis.spectral`).
   The run-time detector reads exactly those sidebands;
   :func:`~repro.core.analysis.spectral.find_prominent_components`
   screens averaged spectra for them (the Figure 4 experiment).
2. **Detection** — a golden-model-free change detector z-scores each
   new trace's sideband feature against a self-learned baseline
   (the ``welford`` plugin of :mod:`repro.detectors`, tuned by
   :mod:`~repro.core.analysis.detector`), needing fewer than ten
   traces (:mod:`~repro.core.analysis.mttd` converts that to MTTD).
3. **Localization** — the per-sensor score map pins the hot sensor;
   reprogramming the lattice into quadrant coils refines the position
   (:mod:`~repro.core.analysis.localizer`).
4. **Identification** — zero-span envelopes at a prominent sideband are
   classified by modulation signature, without full supervision
   (:mod:`~repro.core.analysis.identifier`).

:class:`repro.runtime.EscalationPipeline` drives stages 2-4 at run
time, over a live or recorded window stream (``repro monitor``, the
fleet and ``repro serve``).
"""

from .spectral import (
    IMAGE_OFFSET_HARMONICS,
    clock_harmonics,
    find_prominent_components,
    sideband_feature_db,
    sideband_frequencies,
)
from .detector import DetectorConfig
from .localizer import LocalizationResult, Localizer
from .identifier import TrojanIdentifier, IdentificationResult
from .mttd import MttdModel, MttdResult
from .scanner import AdaptiveScanner, ScanResult, ScanWindow

__all__ = [
    "IMAGE_OFFSET_HARMONICS",
    "clock_harmonics",
    "find_prominent_components",
    "sideband_feature_db",
    "sideband_frequencies",
    "DetectorConfig",
    "LocalizationResult",
    "Localizer",
    "TrojanIdentifier",
    "IdentificationResult",
    "MttdModel",
    "MttdResult",
    "AdaptiveScanner",
    "ScanResult",
    "ScanWindow",
]
