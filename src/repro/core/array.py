"""The Programmable Sensor Array measurement facade.

Couples the lattice/coil model to the EM substrate: given an
:class:`~repro.chip.power.ActivityRecord` from the test chip, the PSA
renders amplified, noisy voltage traces for any programmed sensor —
the 16 standard sensors of Section V-A or ad-hoc refinement coils.

All rendering routes through one :class:`~repro.engine.MeasurementEngine`:
each render entry is its ``enqueue*`` twin on a fresh
:class:`~repro.engine.RenderPlan` plus one execute, and ``measure`` is
a one-capture :meth:`render` behind the decoder check, so per-trace,
batched and fused output are identical bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..calibration import COUPLING_SCALE
from ..chip.power import ActivityRecord
from ..chip.testchip import TestChip
from ..em.amplifier import MeasurementAmplifier
from ..em.coupling import CouplingMatrix, CouplingStack
from ..engine import MeasurementEngine, TraceBatch
from ..engine.plan import execute_one
from ..errors import MeasurementError
from ..traces import Trace
from .coil import Coil
from .decoder import PsaDecoder
from .grid import PsaGrid
from .sensors import N_SENSORS, standard_sensor_coil


class ProgrammableSensorArray:
    """The on-chip PSA, electrically attached to a test chip.

    Parameters
    ----------
    chip:
        The test chip the lattice is fabricated on.
    turns:
        Turns per standard sensor coil (5 = the deepest spiral the
        symmetric 11-pitch sensor supports; see repro.core.sensors).
    amplifier:
        Measurement front-end (defaults to the THS4504 model).
    coupling_scale:
        Absolute coupling calibration (see :mod:`repro.calibration`).
    engine:
        Measurement engine override (defaults to a fresh engine on the
        chip config).
    n_sensors:
        Standard sensors to program (default: all 16).  Smaller arrays
        take the first ``n_sensors`` standard coil positions — useful
        for partial deployments and cheap test fixtures; consumers must
        derive sensor counts from the array, never assume 16.
    """

    def __init__(
        self,
        chip: TestChip,
        turns: int = 5,
        amplifier: Optional[MeasurementAmplifier] = None,
        coupling_scale: float = COUPLING_SCALE,
        engine: Optional[MeasurementEngine] = None,
        n_sensors: Optional[int] = None,
    ):
        if n_sensors is None:
            n_sensors = N_SENSORS
        if not 1 <= n_sensors <= N_SENSORS:
            raise MeasurementError(
                f"n_sensors must be in 1..{N_SENSORS}, got {n_sensors}"
            )
        self.chip = chip
        self.config = chip.config
        self.grid = PsaGrid()
        self.decoder = PsaDecoder()
        self.amplifier = amplifier or MeasurementAmplifier()
        self.coupling_scale = coupling_scale
        self.engine = engine or MeasurementEngine(
            chip.config, amplifier=self.amplifier
        )
        self.sensor_coils: List[Coil] = [
            standard_sensor_coil(index, turns) for index in range(n_sensors)
        ]
        receivers = [
            coil.to_receiver(self.config.vdd, self.config.temperature_c)
            for coil in self.sensor_coils
        ]
        self._coupling = CouplingMatrix(chip.floorplan, receivers, scale=coupling_scale)
        self._custom_couplings: Dict[str, CouplingMatrix] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def n_sensors(self) -> int:
        """Programmed standard sensors."""
        return len(self.sensor_coils)

    @property
    def coupling(self) -> CouplingMatrix:
        """Coupling matrix of the programmed standard sensors."""
        return self._coupling

    def sensor_coil(self, index: int) -> Coil:
        """Standard coil of one sensor."""
        if not 0 <= index < self.n_sensors:
            raise MeasurementError(
                f"sensor index {index} outside 0..{self.n_sensors - 1}"
            )
        return self.sensor_coils[index]

    # -- batched measurement ---------------------------------------------------

    def render(
        self,
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
        sensors: Optional[Sequence[int]] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Render a batch of captures from the standard sensors.

        :meth:`enqueue` on a fresh plan plus one execute.

        Parameters
        ----------
        records:
            One activity record per capture, or a single record reused
            for every capture (independent noise per trace index).
        trace_indices:
            RNG stream index per capture (defaults to ``0..n-1``).
        sensors:
            Sensor indices to render (default: every programmed sensor).
        columns:
            rFFT columns to render in place of the samples (see
            :meth:`~repro.engine.MeasurementEngine.render`).
        """
        return execute_one(
            self.enqueue, records, trace_indices, sensors, columns=columns
        )

    def enqueue(
        self,
        plan,
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
        sensors: Optional[Sequence[int]] = None,
        tag: Optional[str] = None,
        columns: Optional[Sequence[int]] = None,
    ):
        """Enqueue a standard-sensor render on a fused dispatch plan.

        Same arguments as :meth:`render`, which it validates, but the
        render joins ``plan`` (a :class:`~repro.engine.RenderPlan`)
        instead of executing immediately; the returned ticket resolves
        to the identical :class:`TraceBatch` after ``plan.execute()``.
        """
        if sensors is not None:
            for index in sensors:
                if not 0 <= index < self.n_sensors:
                    raise MeasurementError(
                        f"sensor index {index} outside 0..{self.n_sensors - 1}"
                    )
        return plan.add(
            self._coupling,
            records,
            trace_indices=trace_indices,
            receiver_indices=sensors,
            engine=self.engine,
            tag=tag,
            columns=columns,
        )

    def enqueue_coils(
        self,
        plan,
        coils: Sequence[Coil],
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
        tag: Optional[str] = None,
        columns: Optional[Sequence[int]] = None,
    ):
        """Enqueue an ad-hoc multi-coil render on a fused dispatch plan.

        The plan-joining twin of :meth:`measure_coils_batch`: coils are
        programmed/released (ownership-checked) and their coupling
        stack built at enqueue time; the render itself happens inside
        ``plan.execute()``, fused with everything else on the plan.
        """
        coils = list(coils)
        if not coils:
            raise MeasurementError("no coils to render")
        names = [coil.name for coil in coils]
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise MeasurementError(
                f"duplicate coil name {duplicate!r} in batched render"
            )
        for coil in coils:
            coil.program(self.grid)
            coil.release(self.grid)
        stack = CouplingStack([self._coupling_for(coil) for coil in coils])
        return plan.add(
            stack,
            records,
            trace_indices=trace_indices,
            engine=self.engine,
            tag=tag,
            columns=columns,
        )

    def close(self) -> None:
        """Drop the engine's capture-plan memo (see engine.close)."""
        self.engine.close()

    def measure_coils_batch(
        self,
        coils: Sequence[Coil],
        records: Sequence[ActivityRecord],
        trace_indices: Optional[Sequence[int]] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Render a batch of captures from several ad-hoc programmed coils.

        The physical array measures programmed windows sequentially
        (overlapping windows cannot even coexist on the lattice), so
        each coil is programmed and released in turn — the ownership
        check still guards against unsynthesizable windows — while the
        *simulation* renders every (coil, record) capture in a single
        engine pass over a :class:`~repro.em.coupling.CouplingStack`.

        Each coil's coupling geometry is built (and content-cached)
        independently, so windows revisited across calls — quadrant
        coils, repeated scan levels — never recompute their flux
        integrals, and every rendered row is bit-identical to the
        one-coil render of that (coil, record, trace_index).

        Parameters
        ----------
        coils:
            The synthesized coils, one receiver row each, in order.
            Names must be unique (they key RNG streams and coupling
            cache entries).
        records:
            One activity record per capture, or a single record reused
            for every capture.
        trace_indices:
            RNG stream index per capture (defaults to ``0..n-1``).
        columns:
            rFFT columns to render in place of the samples (see
            :meth:`~repro.engine.MeasurementEngine.render`).

        Returns
        -------
        TraceBatch
            ``(n_coils, n_traces, n_samples)`` samples (or the spectra
            at ``columns``), coil order preserved.
        """
        return execute_one(
            self.enqueue_coils, coils, records, trace_indices, columns=columns
        )

    # -- single capture ------------------------------------------------------------

    def measure(
        self, record: ActivityRecord, sensor_index: int, trace_index: int = 0
    ) -> Trace:
        """Capture one trace from one standard sensor.

        The gate-level decoder performs the selection, so a tampered
        decoder would surface here.
        """
        if not 0 <= sensor_index < self.n_sensors:
            raise MeasurementError(
                f"sensor index {sensor_index} outside 0..{self.n_sensors - 1}"
            )
        self.decoder.select(sensor_index)
        if self.decoder.selected() != sensor_index:
            raise MeasurementError("decoder selection mismatch")
        batch = self.render(
            [record], trace_indices=[trace_index], sensors=[sensor_index]
        )
        return batch.trace(0, 0)

    # -- internals -------------------------------------------------------------

    def _coupling_for(self, coil: Coil) -> CouplingMatrix:
        key = coil.name
        cached = self._custom_couplings.get(key)
        if cached is None:
            cached = CouplingMatrix(
                self.chip.floorplan,
                [coil.to_receiver(self.config.vdd, self.config.temperature_c)],
                scale=self.coupling_scale,
            )
            self._custom_couplings[key] = cached
        return cached
