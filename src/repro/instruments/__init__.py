"""Bench and run-time instrumentation models.

* :class:`SpectrumAnalyzer` — sweep mode (DC-120 MHz, 2000 display
  points, trace averaging) and zero-span mode (time-domain envelope at
  a tuned frequency), as used in Section VI;
* :class:`AdcSpec` / :func:`quantize` — ADC quantization;
* :func:`chirp` — the 70 mV frequency-sweeping source of the
  Section VI-C current-response experiment;
* :data:`~repro.instruments.rasc.RASC_ADC` — the converter of the
  RASC-style on-board monitor that replaces the bench instruments in
  deployment (the monitor itself is
  :class:`repro.runtime.EscalationPipeline` with
  ``PipelineConfig(quantize=True)``).
"""

from .adc import AdcSpec, quantize
from .spectrum_analyzer import SpectrumAnalyzer, ZeroSpanResult
from .signal_gen import chirp

__all__ = [
    "AdcSpec",
    "quantize",
    "SpectrumAnalyzer",
    "ZeroSpanResult",
    "chirp",
]
