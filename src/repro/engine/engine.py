"""The batched measurement engine — the EMF→trace hot path.

One render call turns activity records plus a coupling matrix into a
:class:`~repro.engine.batch.TraceBatch` for any subset of receivers
and any list of capture indices.  The whole signal chain is evaluated
in the frequency domain and inverse-transformed once per trace:

1. **EMF synthesis** — :func:`repro.em.coupling.emf_rfft` builds each
   record's per-receiver EMF spectrum from the closed-form impulse-
   train DFT and the cached kernel spectrum; the result is computed
   once per distinct record and *reused across every trace index* that
   renders it.
2. **Noise** — the white components of the chain (coil Johnson +
   broadband ambient, referred through the amplifier's input divider,
   plus the amplifier's own input noise) fold into a single Gaussian
   drawn directly in the frequency domain
   (:func:`repro.em.noise.fill_white_noise_rfft`, with the gain curve
   folded into the per-bin scales); the narrowband ambient tones are
   single spectral lines with per-capture random phase.
3. **Band shaping** — the amplifier's cached gain curve multiplies the
   assembled spectra; one batched irFFT produces the final samples.

Per-receiver constants (the :class:`ReceiverPlan`, white-noise scales
and tone lines) are memoized across render calls in a content-keyed
**capture-plan cache**, so steady-state dispatches skip the planning
arithmetic entirely; :meth:`MeasurementEngine.plan_cache_stats`
exposes the hit counters.

Determinism contract
--------------------
Every random draw for capture ``(receiver, trace_index)`` comes from
the stream ``render/{scenario}/{receiver}/{trace_index}`` of the config
seed, with a fixed draw order (optional gain-jitter scalar, then the
white spectrum, then one phase per ambient tone).  Rendering is
therefore bit-for-bit independent of batch composition: a trace comes
out identical whether rendered alone, inside any batch, fused with
unrelated renders through a :class:`~repro.engine.plan.RenderPlan`,
through ``measure``/``measure_all`` compatibility wrappers, or on any
execution backend / worker count.  Samples are always float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.power import ActivityRecord
from ..config import SimConfig
from ..em.amplifier import MeasurementAmplifier
from ..em.coupling import CouplingMatrix, CouplingStack, Receiver, emf_rfft
from ..em.noise import (
    NoiseModel,
    add_tone_spectrum,
    fill_white_noise_rfft,
    tone_bin,
    tone_line,
    white_noise_scales,
)
from ..errors import MeasurementError
from ..rng import stream
from .backends import ExecutionBackend, SerialBackend, resolve_backend
from .batch import TraceBatch

#: Spectrum rows converted to time per irFFT call, across receivers:
#: the default batch is ``max(1, IRFFT_ROWS // n_receivers)`` traces,
#: so a 16-receiver PSA render converts 2 traces per call and a
#: one-sensor render 32.  32 rows amortize the call overhead (a one-row
#: irFFT costs ~1.4x more per capture) while the complex scratch stays
#: at 32 x 4225 bins, ~2.2 MB at the PSA's 8448-sample window, small
#: enough for L2.  The irFFT writes straight into the output, so the
#: scratch is the only per-chunk buffer.
IRFFT_ROWS = 32

#: Entries kept in the per-engine capture-plan cache before it resets.
#: Receiver populations are small (an array plus programmed scan
#: coils); the cap only guards against pathological name churn.
_PLAN_CACHE_LIMIT = 512


def render_stream_name(scenario: str, receiver: str, trace_index: int) -> str:
    """RNG stream identity of one rendered capture."""
    return f"render/{scenario}/{receiver}/{trace_index}"


@dataclass(frozen=True)
class ReceiverPlan:
    """Per-receiver constants precomputed once per render.

    Attributes
    ----------
    name:
        Receiver identity (trace label and RNG stream component).
    divider:
        Amplifier input divider for this receiver's source impedance.
    white_rms_eff:
        RMS of the folded white noise at the amplifier input: the
        receiver-side white noise through the divider combined with
        the amplifier's input-referred noise.
    tones:
        Ambient interferers as ``(freq, input_amplitude)`` pairs,
        already referred through the divider.
    gain_jitter:
        Per-capture relative gain drift (external probes only).
    r_series, n_turns:
        Metadata propagated onto constructed traces.
    """

    name: str
    divider: float
    white_rms_eff: float
    tones: Tuple[Tuple[float, float], ...]
    gain_jitter: float
    r_series: float
    n_turns: int


def _render_shard(payload: tuple) -> np.ndarray:
    """Process-pool entry point: render one shard serially."""
    engine, coupling, records, trace_indices, receiver_indices = payload
    return engine._render_serial(
        coupling, records, trace_indices, receiver_indices
    )


class MeasurementEngine:
    """Vectorized renderer from activity records to trace batches.

    Parameters
    ----------
    config:
        Simulation configuration (seed, sampling grid, temperature).
    amplifier:
        Measurement front-end shared by every rendered channel.
    backend:
        Execution backend: an instance, a name (``"serial"`` /
        ``"shared"``), or None to follow
        ``config.engine_backend``.  Named specs resolve to process-wide
        sessions shared across engines (see
        :func:`repro.engine.backends.resolve_backend`).
    workers:
        Worker count for the ``shared`` pool (0 = follow
        ``config.engine_workers``, which defaults to the CPU count).
    chunk_traces:
        Traces per irFFT chunk (memory/throughput trade-off); None
        sizes each render's batch to :data:`IRFFT_ROWS` rows.
    """

    def __init__(
        self,
        config: SimConfig,
        amplifier: Optional[MeasurementAmplifier] = None,
        backend: "str | ExecutionBackend | None" = None,
        workers: int = 0,
        chunk_traces: Optional[int] = None,
    ):
        if chunk_traces is not None and chunk_traces < 1:
            raise MeasurementError("chunk_traces must be >= 1")
        self.config = config
        self.amplifier = amplifier or MeasurementAmplifier()
        if backend is None:
            backend = config.engine_backend
        if not workers:
            workers = config.engine_workers
        self.backend = resolve_backend(backend, workers)
        self.chunk_traces = chunk_traces
        self._plan_cache: Dict[tuple, tuple] = {}
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (pool, shared arena) and memos.

        Safe to call repeatedly; the next render transparently
        restarts whatever it needs.  Note that named backends are
        process-wide sessions — closing one engine closes the shared
        session, and the next dispatch from *any* engine restarts it.
        """
        self.backend.close()
        self._plan_cache.clear()

    def __enter__(self) -> "MeasurementEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pickling (workers render their shards serially) ---------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["backend"] = SerialBackend()
        # Workers rebuild their own plan memo (cheap, content-keyed).
        state["_plan_cache"] = {}
        state["_plan_cache_hits"] = 0
        state["_plan_cache_misses"] = 0
        return state

    # -- planning ------------------------------------------------------------

    def _plan(self, receiver: Receiver) -> ReceiverPlan:
        config = self.config
        fs = config.fs
        noise = NoiseModel(
            resistance=receiver.r_series,
            temperature_c=config.temperature_c,
            ambient_area=receiver.ambient_gain,
        )
        divider = self.amplifier.source_divider(receiver.r_series)
        white_eff = math.sqrt(
            (noise.white_rms(fs) * divider) ** 2
            + self.amplifier.input_noise_rms(fs) ** 2
        )
        tones = tuple(
            (freq, amplitude * divider) for freq, amplitude in noise.tones(fs)
        )
        return ReceiverPlan(
            name=receiver.name,
            divider=divider,
            white_rms_eff=white_eff,
            tones=tones,
            gain_jitter=receiver.gain_jitter,
            r_series=receiver.r_series,
            n_turns=len(receiver.turns),
        )

    def _capture_plan(self, receiver: Receiver) -> tuple:
        """Per-receiver render constants, memoized across dispatches.

        Returns ``(plan, noise_scales, tone_plan)`` where the scales
        and tone lines already fold in the amplifier gain curve.  The
        cache key is the receiver *content* that feeds the planning
        arithmetic (everything else — config, amplifier, sampling grid
        — is fixed per engine), so programmed coils that share a name
        but differ in geometry still hit when their electrical
        parameters match: the plan depends on nothing else.
        """
        key = (
            receiver.name,
            receiver.r_series,
            receiver.ambient_gain,
            receiver.gain_jitter,
            len(receiver.turns),
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            self._plan_cache_hits += 1
            return cached
        self._plan_cache_misses += 1
        config = self.config
        n = config.n_samples
        fs = config.fs
        plan = self._plan(receiver)
        gain = self.amplifier.gain_curve(fs, n)
        scales = white_noise_scales(n, plan.white_rms_eff, bin_gain=gain)
        tone_plan = []
        for freq, amplitude in plan.tones:
            bin_index = tone_bin(n, fs, freq)
            if bin_index is not None:
                tone_plan.append((bin_index, amplitude * gain[bin_index]))
            else:
                tone_plan.append((None, (freq, amplitude)))
        entry = (plan, scales, tuple(tone_plan))
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = entry
        return entry

    def plan_cache_stats(self) -> Dict[str, int]:
        """Capture-plan cache counters: ``hits``, ``misses``, ``size``."""
        return {
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "size": len(self._plan_cache),
        }

    # -- rendering -----------------------------------------------------------

    def render(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
        receiver_indices: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Render a batch of captures into a :class:`TraceBatch`.

        A convenience wrapper over a single-request
        :class:`~repro.engine.plan.RenderPlan`, so standalone renders
        and fused mega-batches go through the exact same dispatch
        layer (and are bit-identical by construction).

        Parameters
        ----------
        coupling:
            Coupling matrix of the candidate receivers, or a
            :class:`~repro.em.coupling.CouplingStack` of independently
            synthesized coils (arbitrary programmed windows render in
            one batch, each row bit-identical to its standalone
            render).
        records:
            Either one record per capture, or a single record reused
            for every capture (fresh noise per trace index).
        trace_indices:
            RNG stream index per capture (defaults to ``0..n-1``).
        receiver_indices:
            Subset of ``coupling.receivers`` to render (default: all).

        Returns
        -------
        TraceBatch
            ``(n_receivers, n_traces, n_samples)`` voltage samples plus
            per-receiver/per-capture metadata.
        """
        from .plan import RenderPlan

        plan = RenderPlan()
        ticket = plan.add(
            coupling,
            records,
            trace_indices=trace_indices,
            receiver_indices=receiver_indices,
            engine=self,
        )
        plan.execute()
        return ticket.result()

    def _normalize(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]],
        receiver_indices: Optional[Sequence[int]],
    ) -> Tuple[List[ActivityRecord], List[int], List[int]]:
        """Validate and expand one render request's arguments."""
        records = list(records)
        if not records:
            raise MeasurementError("no records to render")
        if trace_indices is None:
            trace_indices = list(range(len(records)))
        else:
            trace_indices = [int(index) for index in trace_indices]
        if len(records) == 1 and len(trace_indices) > 1:
            records = records * len(trace_indices)
        if len(records) != len(trace_indices):
            raise MeasurementError(
                f"{len(records)} records for {len(trace_indices)} trace "
                "indices (pass one record, or one per index)"
            )
        for record in records:
            if record.config.n_samples != self.config.n_samples:
                raise MeasurementError(
                    "record sampling grid does not match the engine config"
                )
        if receiver_indices is None:
            receiver_indices = list(range(coupling.n_receivers))
        else:
            receiver_indices = [int(index) for index in receiver_indices]
        for index in receiver_indices:
            if not 0 <= index < coupling.n_receivers:
                raise MeasurementError(
                    f"receiver index {index} outside the coupling matrix"
                )
        return records, trace_indices, receiver_indices

    def _finalize(
        self,
        samples: np.ndarray,
        coupling: "CouplingMatrix | CouplingStack",
        records: List[ActivityRecord],
        trace_indices: List[int],
        receiver_indices: List[int],
    ) -> TraceBatch:
        """Wrap rendered samples with their capture metadata."""
        plans = [
            self._capture_plan(coupling.receivers[i])[0]
            for i in receiver_indices
        ]
        return TraceBatch(
            samples=samples,
            fs=self.config.fs,
            labels=tuple(plan.name for plan in plans),
            scenarios=tuple(record.scenario for record in records),
            trace_indices=tuple(trace_indices),
            receiver_meta=tuple(
                {"r_series": plan.r_series, "turns": plan.n_turns}
                for plan in plans
            ),
        )

    def _shard_payloads(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: List[ActivityRecord],
        trace_indices: List[int],
        receiver_indices: List[int],
    ) -> "Tuple[List[tuple], np.ndarray] | None":
        """Split one render into backend shard payloads.

        Returns ``(payloads, bounds)`` — shard ``i`` renders trace
        columns ``bounds[i]:bounds[i+1]`` — or None when the render
        should stay in-process (serial backend, or fewer traces than
        would fill two shards).
        """
        n_traces = len(trace_indices)
        n_shards = min(self.backend.parallelism, n_traces)
        if n_shards <= 1:
            return None
        bounds = np.linspace(0, n_traces, n_shards + 1).astype(int)
        payloads = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            payloads.append(
                (
                    self,
                    coupling,
                    records[lo:hi],
                    trace_indices[lo:hi],
                    receiver_indices,
                )
            )
        return payloads, bounds

    def _render_serial(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: List[ActivityRecord],
        trace_indices: List[int],
        receiver_indices: List[int],
    ) -> np.ndarray:
        """Reference implementation: one process, chunked irFFTs.

        The amplifier's gain curve is folded into every pre-computed
        scale (EMF rows, per-bin white-noise scales, tone lines), so
        each capture assembles its final filtered spectrum directly and
        the only remaining full-spectrum passes are the per-bin writes
        and one batched irFFT per chunk.
        """
        config = self.config
        n = config.n_samples
        fs = config.fs
        n_bins = n // 2 + 1
        n_traces = len(trace_indices)
        n_receivers = len(receiver_indices)
        captures = [
            self._capture_plan(coupling.receivers[i])
            for i in receiver_indices
        ]
        plans = [capture[0] for capture in captures]
        noise_scales = [capture[1] for capture in captures]
        tone_plans = [capture[2] for capture in captures]
        gain = self.amplifier.gain_curve(fs, n)

        # EMF spectra once per distinct record, reused across captures,
        # with divider and gain curve folded in per receiver, and
        # dropped after the record's last capture.
        emf_scale = np.array([plan.divider for plan in plans])[:, None] * gain
        emf_cache: Dict[int, np.ndarray] = {}
        last_use = {id(record): p for p, record in enumerate(records)}

        def emf_rows(record: ActivityRecord, position: int) -> np.ndarray:
            key = id(record)
            rows = emf_cache.get(key)
            if rows is None:
                rows = emf_rfft(coupling, record)[receiver_indices]
                rows *= emf_scale
                emf_cache[key] = rows
            if last_use[key] == position:
                del emf_cache[key]
            return rows

        out = np.empty((n_receivers, n_traces, n))
        chunk = self.chunk_traces or max(1, IRFFT_ROWS // n_receivers)
        chunk = min(chunk, n_traces)
        scratch = np.empty((n_receivers, chunk, n_bins), dtype=complex)
        z_buffer = np.empty(n)
        jitter_buffer = np.empty(n_bins, dtype=complex)
        two_pi = 2.0 * math.pi
        seed = config.seed
        # One (name, jitter, scales, tones) row per receiver, zipped
        # once — the capture loop below runs per (trace, receiver).
        row_plans = [
            (plan.name, plan.gain_jitter, noise_scales[i], tone_plans[i])
            for i, plan in enumerate(plans)
        ]
        for lo in range(0, n_traces, chunk):
            hi = min(lo + chunk, n_traces)
            spec = scratch[:, : hi - lo]
            for offset in range(hi - lo):
                position = lo + offset
                record = records[position]
                scenario = record.scenario
                trace_index = trace_indices[position]
                emf = emf_rows(record, position)
                for row_index, (name, gain_jitter, scales, tones) in (
                    enumerate(row_plans)
                ):
                    row = spec[row_index, offset]
                    rng = stream(
                        seed,
                        render_stream_name(scenario, name, trace_index),
                    )
                    jitter = 1.0
                    if gain_jitter > 0.0:
                        jitter = (
                            1.0 + gain_jitter * rng.standard_normal()
                        )
                    z = rng.standard_normal(n, out=z_buffer)
                    fill_white_noise_rfft(row, z, *scales)
                    for bin_index, payload in tones:
                        phase = rng.uniform(0.0, two_pi)
                        if bin_index is not None:
                            row[bin_index] += tone_line(payload, n, phase)
                        else:
                            freq, amplitude = payload
                            tone = np.zeros(n_bins, dtype=complex)
                            add_tone_spectrum(
                                tone, n, fs, freq, amplitude, phase
                            )
                            row += gain * tone
                    if jitter != 1.0:
                        # jitter * emf without the temporary (IEEE
                        # multiplication commutes, so the bits match).
                        np.multiply(
                            emf[row_index], jitter, out=jitter_buffer
                        )
                        row += jitter_buffer
                    else:
                        row += emf[row_index]
            np.fft.irfft(spec, n=n, axis=-1, out=out[:, lo:hi])
        return out
