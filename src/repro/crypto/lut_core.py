"""Cycle-accurate activity model of the AES-128-LUT core.

The paper's core spends 11 clock cycles per block (one load cycle plus
ten rounds) at 33 MHz, so the block rate is 3 MHz.  Each cycle, the
combinational cone (S-box bank, MixColumns network, AddRoundKey XORs)
and the state registers toggle in proportion to the Hamming distance of
the data moving through them — the standard dynamic-power abstraction.

:class:`AesLutCore` turns a plaintext stream into per-module toggle
counts per cycle; those feed the floorplan/EM model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..config import SimConfig
from ..errors import WorkloadError
from ..netlist.builder import MAIN_MODULE_TOTALS
from .cipher import BlockHistories, encrypt_blocks_with_history
from .key_schedule import expand_key
from .sbox import bit_hamming

#: Cycles per AES block in the LUT core (load + 10 rounds).
BLOCK_CYCLES = 11

#: Toggling cells per unit normalized Hamming activity, per module.
#: Values > 1 reflect glitching in deep XOR cones (MixColumns), < 1
#: reflect partially idle logic.
_ACTIVITY_FACTORS: Dict[str, float] = {
    "aes_sbox_bank": 1.10,
    "aes_key_expand": 0.55,
    "aes_mixcolumns": 1.45,
    "aes_addroundkey": 0.95,
    "aes_state_regs": 0.50,
    "aes_round_ctrl": 0.30,
}

#: Constant per-cycle activity fractions (clocking, control).
_BASELINE_FRACTIONS: Dict[str, float] = {
    "aes_round_ctrl": 0.15,
    "clock_tree": 0.90,
    "uart_core": 0.02,
    "uart_fifo": 0.01,
    "psa_control": 0.01,
    "io_ring": 0.02,
}

#: Clock-tree activity fraction when the core is idle but powered
#: (clock gated at the root; only a residual stub toggles).
_IDLE_CLOCK_FRACTION = 0.004


@dataclass(frozen=True)
class CoreActivity:
    """Per-module toggle counts per cycle.

    Attributes
    ----------
    toggles:
        Mapping from module name to an array of shape ``(n_cycles,)``
        with the expected number of cell output toggles in that cycle.
    history:
        The encryption histories that generated the activity (one per
        block; ``None`` for an idle window), useful for Trojan models
        that key off the processed data.
    block_of_cycle:
        For each cycle, the block index being processed.
    phase_of_cycle:
        For each cycle, the position within the block (0 = load cycle).
    """

    toggles: Dict[str, np.ndarray]
    history: Optional[BlockHistories]
    block_of_cycle: np.ndarray
    phase_of_cycle: np.ndarray


class AesLutCore:
    """Behavioural AES-128-LUT core with an activity model.

    Parameters
    ----------
    key:
        The 16-byte AES key stored in the core.
    config:
        Simulation configuration (clock, cycles per trace).

    Notes
    -----
    The core encrypts back-to-back: a new block starts every
    ``BLOCK_CYCLES`` cycles, matching the paper's evaluation where the
    chip continuously receives plaintext over UART and streams
    ciphertext back.
    """

    def __init__(self, key: bytes, config: SimConfig):
        if len(key) != 16:
            raise WorkloadError(f"AES-128 key must be 16 bytes, got {len(key)}")
        if config.block_cycles != BLOCK_CYCLES:
            raise WorkloadError(
                f"config.block_cycles={config.block_cycles} does not match "
                f"the LUT core's {BLOCK_CYCLES}-cycle block"
            )
        self.key = bytes(key)
        self.config = config
        # Fixed key => one schedule for every encrypted block, and one
        # key-expand datapath swing per block phase.  Phase 0 is the
        # load cycle: the datapath swings from the last round key back
        # to rk0.
        self._round_keys = expand_key(self.key)
        self.key_hd = bit_hamming(
            np.stack(self._round_keys[-1:] + self._round_keys[:-1]),
            np.stack(self._round_keys),
        )
        self.key_hd.setflags(write=False)

    # -- public API ----------------------------------------------------------

    def run(self, plaintexts: Sequence[bytes], idle: bool = False) -> CoreActivity:
        """Simulate one trace window.

        Parameters
        ----------
        plaintexts:
            Blocks to encrypt, consumed in order and recycled if the
            window needs more blocks than supplied.
        idle:
            If True the core is powered but not encrypting (the paper's
            noise-measurement condition): only residual clock activity.
        """
        config = self.config
        n_cycles = config.n_cycles
        cycles = np.arange(n_cycles)
        block_of_cycle = cycles // BLOCK_CYCLES
        phase_of_cycle = cycles % BLOCK_CYCLES

        toggles: Dict[str, np.ndarray] = {
            module: np.zeros(n_cycles) for module in MAIN_MODULE_TOTALS
        }

        if idle:
            clock_cells = MAIN_MODULE_TOTALS["clock_tree"]
            toggles["clock_tree"] += clock_cells * _IDLE_CLOCK_FRACTION
            return CoreActivity(
                toggles=toggles,
                history=None,
                block_of_cycle=block_of_cycle,
                phase_of_cycle=phase_of_cycle,
            )

        if not plaintexts:
            raise WorkloadError("plaintext stream is empty")

        # Constant baseline activity.
        for module, fraction in _BASELINE_FRACTIONS.items():
            toggles[module] += MAIN_MODULE_TOTALS[module] * fraction

        n_blocks = int(block_of_cycle[-1]) + 1
        stream = b"".join(
            bytes(plaintexts[block % len(plaintexts)]) for block in range(n_blocks)
        )
        history = encrypt_blocks_with_history(
            np.frombuffer(stream, dtype=np.uint8).reshape(n_blocks, 16),
            self.key,
            round_keys=self._round_keys,
        )
        # Data-dependent activity, one value per (block, phase): every
        # cycle receives exactly one addition, as in a per-cycle loop.
        for module, hd in self._hamming_activity(history).items():
            factor = _ACTIVITY_FACTORS[module]
            activity = hd.reshape(-1)[:n_cycles] / 128.0
            toggles[module] += MAIN_MODULE_TOTALS[module] * factor * activity
        toggles["aes_round_ctrl"] += (
            MAIN_MODULE_TOTALS["aes_round_ctrl"]
            * _ACTIVITY_FACTORS["aes_round_ctrl"]
            * 0.5
        )

        return CoreActivity(
            toggles=toggles,
            history=history,
            block_of_cycle=block_of_cycle,
            phase_of_cycle=phase_of_cycle,
        )

    # -- internals -----------------------------------------------------------

    def _hamming_activity(self, history: BlockHistories) -> Dict[str, np.ndarray]:
        """Per-module Hamming distances, shape ``(blocks, BLOCK_CYCLES)``.

        Load cycle (phase 0): the state register swings from the
        previous block's ciphertext (zeros before the first block) to
        plaintext ^ rk0, and the S-box inputs swing with it.  Round
        cycles: state-register, S-box and MixColumns swings of that
        round (round 10 has no MixColumns, so its swing is 0).
        """
        states = history.states
        previous = np.zeros_like(states[:, :1])
        previous[1:, 0] = states[:-1, 10]
        hd_state = bit_hamming(
            np.concatenate([previous, states[:, :-1]], axis=1), states
        )
        hd_sbox = hd_state.copy()
        hd_sbox[:, 1:] = bit_hamming(states[:, :-1], history.after_subbytes)
        hd_mix = np.zeros_like(hd_state)
        hd_mix[:, 1:] = bit_hamming(
            history.after_shiftrows, history.after_mixcolumns
        )
        hd_key = np.broadcast_to(self.key_hd, hd_state.shape)
        return {
            "aes_sbox_bank": hd_sbox,
            "aes_key_expand": hd_key,
            "aes_mixcolumns": hd_mix,
            "aes_addroundkey": hd_state,
            "aes_state_regs": hd_state,
        }
