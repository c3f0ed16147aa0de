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
or split across any number of irFFT chunks.  Samples are always
float64.

A *column render* (``columns=`` on :meth:`MeasurementEngine.render`
and :meth:`~repro.engine.plan.RenderPlan.add`) runs the same capture
loop and writes only the requested rFFT columns of each spectrum, with
no irFFT.  It draws each stream in the same order, but only as far as
the columns read: when no tone line of a receiver lands on them, its
captures draw the jitter scalar and the prefix of normals up to the
last one the columns' noise reads, and no tone phases; when one does
(an off-grid tone lands on every column), the whole stream as the full
render draws it.  A normal depends only on the stream before it, so a
column's noise is the full render's, drawn the same whichever other
columns are requested (its EMF, a matmul over the requested columns,
may round differently with their count).  Its values are the full
render's spectrum at those columns up to the rounding of the irFFT →
rFFT round trip, and are byte-identical in any batch; the full render
is untouched by it.

Execution
---------
A render pass runs on its calling thread.  It walks its captures in
contiguous blocks of :data:`IRFFT_ROWS` spectrum rows, each assembled
in one scratch and inverse-transformed straight into its slice of the
one preallocated output (a column render assembles them in the output
itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.power import ActivityRecord
from ..config import SimConfig
from ..em.amplifier import MeasurementAmplifier
from ..dsp.transforms import RfftColumns
from ..em.coupling import CouplingMatrix, CouplingStack, Receiver, emf_rfft
from ..em.noise import (
    NoiseModel,
    fill_white_noise_columns,
    fill_white_noise_rfft,
    tone_bin,
    tone_line,
    white_noise_columns,
    white_noise_scales,
)
from ..errors import MeasurementError
from ..rng import stream
from .batch import TraceBatch
from .plan import RenderPlan, execute_one

#: Spectrum rows converted to time per irFFT call, across receivers:
#: a pass converts ``max(1, IRFFT_ROWS // n_receivers)`` traces per
#: call, so a 16-receiver PSA render converts 2.  32 rows amortize the
#: call overhead (a one-row irFFT costs ~1.4x more per capture) while
#: the complex scratch stays at 32 x 4225 bins, ~2.2 MB at the PSA's
#: 8448-sample window.  The irFFT writes straight into the output, so
#: the scratch is the only per-chunk buffer.
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


class MeasurementEngine:
    """Vectorized renderer from activity records to trace batches.

    Parameters
    ----------
    config:
        Simulation configuration (seed, sampling grid, temperature).
    amplifier:
        Measurement front-end shared by every rendered channel.
    """

    def __init__(
        self,
        config: SimConfig,
        amplifier: Optional[MeasurementAmplifier] = None,
    ):
        self.config = config
        self.amplifier = amplifier or MeasurementAmplifier()
        self._plan_cache: Dict[tuple, tuple] = {}
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop the capture-plan memo (the next render rebuilds it).

        Safe to call repeatedly.
        """
        self._plan_cache.clear()

    def __enter__(self) -> "MeasurementEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        columns: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Render a batch of captures into a :class:`TraceBatch`.

        :meth:`RenderPlan.add <repro.engine.plan.RenderPlan.add>` on a
        fresh plan plus one execute, so standalone renders and fused
        mega-batches go through the exact same dispatch layer (and are
        bit-identical by construction).

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
        columns:
            Strictly increasing rFFT columns to render instead of the
            samples: only these columns of each capture's spectrum are
            written, it is never inverse-transformed, and it draws its
            stream only as far as they read (see the module docstring).

        Returns
        -------
        TraceBatch
            ``(n_receivers, n_traces, n_samples)`` voltage samples, or
            with ``columns`` the captures' complex spectra at those
            columns (:attr:`TraceBatch.spectra`), plus
            per-receiver/per-capture metadata.
        """
        return execute_one(
            RenderPlan.add,
            coupling,
            records,
            trace_indices=trace_indices,
            receiver_indices=receiver_indices,
            engine=self,
            columns=columns,
        )

    def _normalize(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]],
        receiver_indices: Optional[Sequence[int]],
        columns: Optional[Sequence[int]] = None,
    ) -> Tuple[List[ActivityRecord], List[int], List[int], Optional[np.ndarray]]:
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
        if columns is not None:
            columns = np.array(columns, dtype=np.intp)
            n_bins = self.config.n_samples // 2 + 1
            if (
                columns.ndim != 1
                or columns.size == 0
                or columns[0] < 0
                or columns[-1] >= n_bins
                or np.count_nonzero(np.diff(columns) <= 0)
            ):
                raise MeasurementError(
                    "columns must be strictly increasing rFFT bins in "
                    f"0..{n_bins - 1}"
                )
            columns.setflags(write=False)
        return records, trace_indices, receiver_indices, columns

    def _finalize(
        self,
        samples: np.ndarray,
        coupling: "CouplingMatrix | CouplingStack",
        records: List[ActivityRecord],
        trace_indices: List[int],
        receiver_indices: List[int],
        columns: Optional[np.ndarray] = None,
    ) -> TraceBatch:
        """Wrap a pass's output with its capture metadata."""
        plans = [
            self._capture_plan(coupling.receivers[i])[0]
            for i in receiver_indices
        ]
        spectra = None
        if columns is not None:
            spectra = RfftColumns(samples, columns, self.config.n_samples)
            samples = None
        return TraceBatch(
            samples=samples,
            spectra=spectra,
            fs=self.config.fs,
            labels=tuple(plan.name for plan in plans),
            scenarios=tuple(record.scenario for record in records),
            trace_indices=tuple(trace_indices),
            receiver_meta=tuple(
                {"r_series": plan.r_series, "turns": plan.n_turns}
                for plan in plans
            ),
        )

    def _render_pass(
        self,
        coupling: "CouplingMatrix | CouplingStack",
        records: List[ActivityRecord],
        trace_indices: List[int],
        receiver_indices: List[int],
        columns: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One job's output, rendered in irFFT blocks of captures.

        The amplifier's gain curve is folded into every pre-computed
        scale (EMF rows, per-bin white-noise scales, tone lines), so
        each capture assembles its final filtered spectrum directly and
        the only remaining full-spectrum passes are the per-bin writes
        and one batched irFFT per chunk.  With ``columns`` the same
        loop writes only those columns of each spectrum, straight into
        the complex output, and skips the irFFT.
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
        gain = self.amplifier.gain_curve(fs, n)
        # The spectrum bins this pass writes: all, or the columns.
        take = slice(None) if columns is None else columns
        # EMF rows get each receiver's divider and the gain curve.
        emf_scale = (
            np.array([plan.divider for plan, _, _ in captures])[:, None]
            * gain[take]
        )
        every_receiver = receiver_indices == list(range(coupling.n_receivers))
        # One (name, jitter, noise fill, tones, normals drawn) row per
        # receiver, built once — the capture loop below runs per
        # (trace, receiver).
        if columns is not None:
            column_at = {int(column): k for k, column in enumerate(columns)}
        row_plans = []
        for plan, scales, tones in captures:
            n_draw = n
            if columns is None:
                dc, nyquist, body = scales
                fill = partial(
                    fill_white_noise_rfft,
                    dc_scale=dc,
                    nyquist_scale=nyquist,
                    body_scale=body,
                )
            else:
                layout = white_noise_columns(n, columns, *scales)
                fill = partial(fill_white_noise_columns, layout=layout)
                # Each tone's position among the columns: -1 writes it
                # nowhere; an off-grid tone (None) lands on every column.
                tones = tuple(
                    (
                        None if bin_index is None else column_at.get(bin_index, -1),
                        payload,
                    )
                    for bin_index, payload in tones
                )
                if all(bin_index == -1 for bin_index, _ in tones):
                    # No tone lands: the columns read nothing past their
                    # last normal, so draw only that prefix, no phases.
                    n_draw = int(max(layout[0].max(), layout[1].max())) + 1
                    tones = ()
            row_plans.append((plan.name, plan.gain_jitter, fill, tones, n_draw))
        two_pi = 2.0 * math.pi
        seed = config.seed

        width = n_bins if columns is None else len(columns)
        chunk = max(1, IRFFT_ROWS // n_receivers)
        scratch = None
        if columns is None:
            out = np.empty((n_receivers, n_traces, n))
            scratch = np.empty((n_receivers, min(chunk, n_traces), n_bins), dtype=complex)
        else:
            out = np.empty((n_receivers, n_traces, width), dtype=complex)
        z_buffer = np.empty(n)
        jitter_buffer = np.empty(width, dtype=complex)
        # EMF spectra once per distinct record, reused across its
        # captures and dropped after the record's last capture.
        last_use = {id(record): p for p, record in enumerate(records)}
        emf_cache: Dict[int, np.ndarray] = {}

        def emf_rows(record: ActivityRecord, position: int) -> np.ndarray:
            key = id(record)
            rows = emf_cache.get(key)
            if rows is None:
                rows = emf_rfft(coupling, record, columns=columns)
                if not every_receiver:
                    rows = rows[receiver_indices]
                rows *= emf_scale
                emf_cache[key] = rows
            if last_use[key] == position:
                del emf_cache[key]
            return rows

        for lo in range(0, n_traces, chunk):
            hi = min(lo + chunk, n_traces)
            spec = out[:, lo:hi] if scratch is None else scratch[:, : hi - lo]
            for offset in range(hi - lo):
                position = lo + offset
                record = records[position]
                scenario = record.scenario
                trace_index = trace_indices[position]
                emf = emf_rows(record, position)
                for row_index, (
                    name, gain_jitter, fill_noise, tones, n_draw
                ) in enumerate(row_plans):
                    row = spec[row_index, offset]
                    rng = stream(seed, render_stream_name(scenario, name, trace_index))
                    jitter = 1.0
                    if gain_jitter > 0.0:
                        jitter = 1.0 + gain_jitter * rng.standard_normal()
                    z = rng.standard_normal(n_draw, out=z_buffer[:n_draw])
                    fill_noise(row, z)
                    # One call draws every tone phase: the same values
                    # as one call per tone, with one lock and GIL round
                    # trip instead of several.
                    phases = rng.uniform(0.0, two_pi, len(tones)).tolist() if tones else ()
                    for (bin_index, payload), phase in zip(tones, phases):
                        if bin_index is None:
                            # Off-grid: the sine in time, transformed alone.
                            freq, amplitude = payload
                            t = np.arange(n) / fs
                            tone = np.zeros(n_bins, dtype=complex)
                            tone += np.fft.rfft(amplitude * np.sin(two_pi * freq * t + phase))
                            row += (gain * tone)[take]
                        elif bin_index >= 0:
                            row[bin_index] += tone_line(payload, n, phase)
                    if jitter != 1.0:
                        # jitter * emf without the temporary (IEEE
                        # multiplication commutes, so the bits match).
                        np.multiply(emf[row_index], jitter, out=jitter_buffer)
                        row += jitter_buffer
                    else:
                        row += emf[row_index]
            if scratch is not None:
                np.fft.irfft(spec, n=n, axis=-1, out=out[:, lo:hi])
        return out
