"""The batched trace container produced by the measurement engine.

A :class:`TraceBatch` holds every rendered sample of a render call in
one ``(n_receivers, n_traces, n_samples)`` array plus the metadata
needed to reconstruct individual :class:`~repro.traces.Trace` objects
on demand.  Downstream vectorized consumers (batched spectra, feature
extraction) operate on the array directly; legacy consumers convert
lazily via :meth:`TraceBatch.trace`.  A column render holds the
captures' spectra at a few rFFT columns instead of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dsp.transforms import RfftColumns
from ..errors import MeasurementError
from ..traces import Trace


@dataclass(frozen=True)
class TraceBatch:
    """Rendered traces for a set of receivers over a set of captures.

    Attributes
    ----------
    samples:
        Voltage samples [V], shape ``(n_receivers, n_traces, n_samples)``;
        None for a column render.
    fs:
        Sampling rate [Hz].
    labels:
        Receiver name per receiver axis entry.
    scenarios:
        Workload scenario per trace axis entry.
    trace_indices:
        Capture index per trace axis entry (the RNG stream index).
    receiver_meta:
        Static per-receiver metadata merged into every constructed
        :class:`~repro.traces.Trace` (series resistance, turn count).
    spectra:
        A column render's output in place of ``samples``: complex
        spectra of shape ``(n_receivers, n_traces, n_columns)``.
    """

    samples: Optional[np.ndarray]
    fs: float
    labels: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    trace_indices: Tuple[int, ...]
    receiver_meta: Tuple[Dict[str, object], ...]
    spectra: Optional[RfftColumns] = None

    def __post_init__(self) -> None:
        if (self.samples is None) == (self.spectra is None):
            raise MeasurementError("a TraceBatch holds samples or spectra")
        data = self.samples if self.spectra is None else self.spectra.values
        if data.ndim != 3:
            raise MeasurementError(
                "TraceBatch samples must be (n_receivers, n_traces, "
                f"n_samples), got shape {data.shape}"
            )
        n_receivers, n_traces, _ = data.shape
        if len(self.labels) != n_receivers:
            raise MeasurementError("one label per receiver required")
        if len(self.receiver_meta) != n_receivers:
            raise MeasurementError("one meta dict per receiver required")
        if len(self.scenarios) != n_traces or len(self.trace_indices) != n_traces:
            raise MeasurementError("one scenario/index per trace required")

    # -- shape ---------------------------------------------------------------

    @property
    def n_receivers(self) -> int:
        """Receivers along the first axis."""
        return len(self.labels)

    @property
    def n_traces(self) -> int:
        """Captures along the second axis."""
        return len(self.trace_indices)

    @property
    def n_samples(self) -> int:
        """Fast-time samples per trace."""
        if self.spectra is not None:
            return self.spectra.n_samples
        return int(self.samples.shape[2])

    # -- conversion ----------------------------------------------------------

    def trace(self, receiver: int, index: int) -> Trace:
        """One capture as a legacy :class:`~repro.traces.Trace`."""
        if self.samples is None:
            raise MeasurementError("a column render holds no samples")
        if not 0 <= receiver < self.n_receivers:
            raise MeasurementError(
                f"receiver {receiver} outside 0..{self.n_receivers - 1}"
            )
        if not 0 <= index < self.n_traces:
            raise MeasurementError(
                f"trace {index} outside 0..{self.n_traces - 1}"
            )
        meta: Dict[str, object] = {"trace_index": self.trace_indices[index]}
        meta.update(self.receiver_meta[receiver])
        return Trace(
            samples=self.samples[receiver, index],
            fs=self.fs,
            label=self.labels[receiver],
            scenario=self.scenarios[index],
            meta=meta,
        )

    def traces(self, receiver: int) -> List[Trace]:
        """All captures of one receiver, in trace-axis order."""
        return [self.trace(receiver, index) for index in range(self.n_traces)]
