"""The batched measurement engine subsystem.

Everything between an :class:`~repro.chip.power.ActivityRecord` and an
analyzed voltage trace routes through here:

* :class:`MeasurementEngine` — the vectorized EMF→trace renderer
  (spectral synthesis, folded noise, one irFFT per trace);
* :class:`TraceBatch` — the ``(n_receivers, n_traces, n_samples)``
  result container with lazy per-trace conversion;
* :class:`RenderPlan` — the fused dispatch layer: enqueue many
  logical renders (sweep cells, fleet chips, scan levels) and execute
  them as one mega-batched engine pass, demultiplexed bit-identically;
* :mod:`~repro.engine.cache` — administration of the content-keyed
  coupling-geometry cache.

Every standalone render (``MeasurementEngine.render``,
``ProgrammableSensorArray.render``/``measure``, the baselines'
``ReceiverBench``) is one request on a fresh plan, so per-trace,
batched and fused outputs are identical bit-for-bit.
"""

from .batch import TraceBatch
from .cache import (
    clear_coupling_cache,
    coupling_cache_stats,
    coupling_geometry_key,
    kernel_spectrum_stats,
)
from .engine import MeasurementEngine, ReceiverPlan, render_stream_name
from .plan import RenderPlan, RenderTicket

__all__ = [
    "TraceBatch",
    "clear_coupling_cache",
    "coupling_cache_stats",
    "coupling_geometry_key",
    "kernel_spectrum_stats",
    "MeasurementEngine",
    "ReceiverPlan",
    "RenderPlan",
    "RenderTicket",
    "render_stream_name",
]
