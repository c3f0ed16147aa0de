"""The assembled AES-128 test chip.

:class:`TestChip` wires together the netlist inventory, the floorplan,
the AES-LUT core cycle model, the UART and the four Trojans, and renders
one measurement window into an :class:`~repro.chip.power.ActivityRecord`
(per-region toggle matrices) for the EM stage.

All four Trojans are always *present* (their trigger circuits tick every
cycle); the ``active`` set controls which payloads can fire, mirroring
the paper's five measurement scenarios (no active HT, T1..T4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..config import SimConfig
from ..crypto.lut_core import AesLutCore
from ..errors import WorkloadError
from ..trojans.always_on import (
    ALWAYS_ON_NAMES,
    T1AContinuousCarrier,
    T2AContinuousLeaker,
    TPParametricDrift,
)
from ..trojans.base import CycleWindow, Trojan
from ..trojans.t1_am_carrier import T1AmCarrier, T1_TERMINAL
from ..trojans.t2_leakage import T2KeyLeakInverters
from ..trojans.t3_cdma import T3CdmaLeaker
from ..trojans.t4_dos import T4DosHeater
from ..uart.uart import Uart
from .floorplan import Floorplan, default_floorplan
from .power import ActivityRecord

#: Scenario labels accepted by :meth:`TestChip.run_trace`.
TROJAN_NAMES = ("T1", "T2", "T3", "T4")

#: Always-on variant factories (instantiated only when requested; the
#: fabricated chip carries exactly T1..T4, so a variant scenario
#: models a *different* chip carrying that implant instead).
_VARIANT_FACTORIES = {
    "T1A": T1AContinuousCarrier,
    "T2A": T2AContinuousLeaker,
    "TP": TPParametricDrift,
}
assert set(_VARIANT_FACTORIES) == set(ALWAYS_ON_NAMES)


class TestChip:
    """The fabricated test chip, as a simulation object.

    Parameters
    ----------
    key:
        AES-128 key programmed into the core.
    config:
        Simulation configuration.
    floorplan:
        Module placement (defaults to the paper's Figure 2 layout).
    """

    def __init__(
        self,
        key: bytes,
        config: SimConfig,
        floorplan: Optional[Floorplan] = None,
    ):
        self.key = bytes(key)
        self.config = config
        self.floorplan = floorplan or default_floorplan()
        self.core = AesLutCore(key, config)
        self.uart = Uart(config)
        self._module_weights = self._build_weight_matrix()
        # The UART datapath spreads evenly over its two modules; built
        # once so every record shares one weights object (which lets
        # the engine memoize its coupling projection by identity).
        self._uart_weights = 0.5 * (
            self._module_weights["uart_core"]
            + self._module_weights["uart_fifo"]
        )
        self._uart_weights.setflags(write=False)

    # -- construction helpers --------------------------------------------------

    def _build_weight_matrix(self) -> Dict[str, np.ndarray]:
        """Region weights for every placed module."""
        weights = {}
        for module in self.floorplan.placements:
            weights[module] = self.floorplan.module_weights(module)
        return weights

    def factor_weights(self, name: str) -> np.ndarray:
        """The shared, read-only region weights of one activity factor.

        A placed module maps to its floorplan weights, ``"uart"`` to
        the UART datapath's, and an always-on variant to its host
        site's (T1A sits in T1's rect).  Every record of this chip
        carries these very objects, so the store rebuilds a record
        from its toggles alone.
        """
        if name == "uart":
            return self._uart_weights
        variant = _VARIANT_FACTORIES.get(name)
        if variant is not None:
            name = variant.site or name
        return self._module_weights[name]

    def make_trojans(self, active: Iterable[str]) -> List[Trojan]:
        """Instantiate the Trojans present in a measurement scenario.

        ``active`` lists the Trojans whose payloads should fire in this
        window: T1 gets its counter parked at the terminal count (the
        experimentalist waits for an activation; we fast-forward to it),
        T2 is armed (the workload must supply matching plaintext), and
        T3/T4 get their external enables asserted.

        The four catalog Trojans are always present (their trigger
        circuits tick even when inactive).  An always-on *variant*
        (``"T1A"``/``"T2A"``/``"TP"``) is additionally fabricated into
        the chip only when named — it has no off state, so a chip
        carrying one can never produce a Trojan-quiet record.
        """
        active_set = frozenset(active)
        unknown = active_set.difference(TROJAN_NAMES, _VARIANT_FACTORIES)
        if unknown:
            raise WorkloadError(f"unknown Trojans requested: {sorted(unknown)}")
        trojans: List[Trojan] = [
            T1AmCarrier(
                enabled="T1" in active_set,
                start_count=T1_TERMINAL if "T1" in active_set else 0,
            ),
            T2KeyLeakInverters(enabled="T2" in active_set),
            T3CdmaLeaker(enabled="T3" in active_set, key=self.key),
            T4DosHeater(enabled="T4" in active_set),
        ]
        for name in ALWAYS_ON_NAMES:
            if name in active_set:
                trojans.append(_VARIANT_FACTORIES[name]())
        return trojans

    # -- simulation --------------------------------------------------------------

    def run_trace(
        self,
        plaintexts: Sequence[bytes],
        active: Iterable[str] = (),
        idle: bool = False,
        scenario: str | None = None,
    ) -> ActivityRecord:
        """Simulate one measurement window.

        Parameters
        ----------
        plaintexts:
            Plaintext blocks fed over UART (recycled as needed).
        active:
            Trojan payloads allowed to fire (subset of T1..T4).
        idle:
            Powered-but-not-encrypting window (the SNR noise
            condition).
        scenario:
            Label stored on the record (defaults to the active set).
        """
        config = self.config
        core_activity = self.core.run(plaintexts, idle=idle)

        main_factors = [
            (module, self.factor_weights(module), toggles)
            for module, toggles in core_activity.toggles.items()
        ]
        if not idle:
            uart_toggles = np.asarray(
                self.uart.activity(transmitting=True), float
            )
            main_factors.append(("uart", self.factor_weights("uart"), uart_toggles))

        if idle:
            # Clock-gated idle: the Trojan trigger circuits do not tick
            # either (the paper's noise condition is a quiet chip).
            return ActivityRecord(
                config=config,
                scenario=scenario if scenario is not None else "idle",
                meta={"active": (), "idle": True},
                factors={"main": main_factors},
            )
        history = core_activity.history
        cycles = np.arange(config.n_cycles)
        blocks = core_activity.block_of_cycle
        phases = core_activity.phase_of_cycle
        window = CycleWindow(
            cycle=cycles,
            block=blocks,
            phase=phases,
            block_cycles=config.block_cycles,
            time_s=cycles * config.t_clock,
            plaintext=history.plaintexts[blocks % len(history)],
            key_hd=self.core.key_hd[phases],
            aes_norm=lambda: _normalized_activity(main_factors),
        )
        trojan_factors = []
        rising_factors = []
        for trj in self.make_trojans(active):
            trj.reset()
            toggles = trj.window_toggles(window)
            if not toggles.any():
                continue
            weights = self.factor_weights(trj.name)
            if trj.clock_phase == "rising":
                rising_factors.append((trj.name, weights, toggles))
            else:
                trojan_factors.append((trj.name, weights, toggles))

        label = scenario
        if label is None:
            label = "+".join(sorted(active)) or "baseline"
        factors = {"main": main_factors}
        if trojan_factors:
            factors["trojan"] = trojan_factors
        if rising_factors:
            factors["trojan_rising"] = rising_factors
        return ActivityRecord(
            config=config,
            scenario=label,
            meta={"active": tuple(sorted(active)), "idle": idle},
            factors=factors,
        )


def _normalized_activity(main_factors) -> np.ndarray:
    """Main-circuit activity per cycle over its trace maximum (0..1).

    The region sum of a ``weights x toggles`` factor is ``sum(weights)
    * toggles``, so the total reads the per-module totals, accumulated
    in factor order (the sums :func:`repro.em.coupling._amplitudes`
    weighs the bond term with); no dense matrix is built.  Only windows
    whose Trojans read it pay for it.
    """
    aes_total = sum(float(weights.sum()) * toggles for _name, weights, toggles in main_factors)
    aes_peak = float(aes_total.max()) or 1.0
    return aes_total / aes_peak
