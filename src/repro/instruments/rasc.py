"""RASC-style on-board run-time monitor front-end.

Section II-A: the RASCv2 board replaces the oscilloscope for run-time
side-channel verification — ADCs sample the sensor output, an FPGA
processes the traces, and only processed verdicts leave the board
(which is also why the PSA does not enable remote side-channel attacks:
raw traces never cross a communication channel).

The monitor itself is the run-time subsystem's MONITOR stage
(:class:`repro.runtime.EscalationPipeline` with
``PipelineConfig(quantize=True)``); this module holds the converter it
digitizes time-domain windows with (replay, serve uploads and sweep
cells).  A live session's MONITOR chunks are rendered rFFT columns and
skip it.
"""

from __future__ import annotations

from .adc import AdcSpec

#: The monitor's converter: +-10 V at 12 bits swallows the 50 dB-
#: amplified sensor output without clipping while keeping quantization
#: ~5 mV, far below the sideband features of interest.  Canonical here;
#: batch consumers (repro.sweep) share the same spec.
RASC_ADC = AdcSpec(n_bits=12, full_scale=10.0)

#: Auto-range headroom above each trace's peak (the programmable-gain
#: attenuator's safety margin).
AUTO_RANGE_HEADROOM = 1.25
