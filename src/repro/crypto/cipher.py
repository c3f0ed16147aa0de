"""AES-128 block cipher with full round-state history.

The cycle-accurate activity model needs the intermediate state after
every round, so :func:`encrypt_blocks_with_history` records them all
for a whole batch of blocks at once.
State layout: a flat 16-byte array in the standard AES column-major
order (byte ``i`` is row ``i % 4``, column ``i // 4``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigError
from .key_schedule import expand_key
from .sbox import SBOX, gf_mul

# Byte-index permutation implementing ShiftRows on the flat
# column-major state (value = source index for each destination).
_SHIFT_ROWS = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)

# Multiplication by x (i.e. by 2) in GF(2^8), as a byte table.
_XTIME = np.array([gf_mul(value, 2) for value in range(256)], dtype=np.uint8)

# Flat column-major index of the byte one row further down the same
# column, cyclically: state[..., _NEXT_ROW][i] is a_{row+1}.
_NEXT_ROW = np.array([4 * (i // 4) + (i + 1) % 4 for i in range(16)], dtype=np.intp)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """MixColumns over the last axis of ``(..., 16)`` states.

    Each output byte of the circulant ``[2 3 1 1]`` product is
    ``a_i ^ t ^ xtime(a_i ^ a_{i+1})``, with ``t`` the XOR of the
    column's four bytes, so every column of every block mixes in one
    pass of exact byte arithmetic.
    """
    columns = state.reshape(state.shape[:-1] + (4, 4))
    total = np.bitwise_xor.reduce(columns, axis=-1, keepdims=True)
    out = (columns ^ total).reshape(state.shape)
    out ^= _XTIME[state ^ state[..., _NEXT_ROW]]
    return out


@dataclass(frozen=True)
class BlockHistories:
    """State evolution of a batch of block encryptions.

    Every array is indexed by block first; the byte axis is last.

    Attributes
    ----------
    plaintexts:
        Input blocks, shape ``(blocks, 16)``.
    states:
        State register at each core cycle, shape ``(blocks, 11, 16)``:
        index 0 is the load cycle (plaintext ^ rk0), 1..10 the round
        outputs (index 10 is the ciphertext).
    after_subbytes, after_shiftrows, after_mixcolumns:
        Round intermediates, shape ``(blocks, 10, 16)`` (round ``r`` at
        index ``r - 1``; round 10 has no MixColumns).
    round_keys:
        The 11 round keys.
    """

    plaintexts: np.ndarray
    states: np.ndarray
    after_subbytes: np.ndarray
    after_shiftrows: np.ndarray
    after_mixcolumns: np.ndarray
    round_keys: List[np.ndarray]

    def __len__(self) -> int:
        return int(self.plaintexts.shape[0])


def encrypt_blocks_with_history(
    plaintexts: np.ndarray,
    key: bytes,
    round_keys: List[np.ndarray] | None = None,
) -> BlockHistories:
    """Encrypt a ``(blocks, 16)`` uint8 batch, recording every state.

    All blocks advance through the rounds together as integer table
    lookups, so every row equals its one-row batch.
    ``round_keys`` lets callers with a fixed key expand the schedule
    once; when given it must equal ``expand_key(key)``.
    """
    blocks = np.asarray(plaintexts, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != 16:
        raise ConfigError(f"AES blocks must have shape (n, 16), got {blocks.shape}")
    if round_keys is None:
        round_keys = expand_key(key)
    n_blocks = blocks.shape[0]
    states = np.empty((n_blocks, 11, 16), dtype=np.uint8)
    after_mix = np.empty((n_blocks, 10, 16), dtype=np.uint8)
    state = states[:, 0] = blocks ^ round_keys[0]
    for r in range(1, 11):
        # SubBytes is bytewise, so it commutes with ShiftRows: the round
        # loop carries only the shifted bytes it needs.
        mixed = SBOX[state[:, _SHIFT_ROWS]]
        if r < 10:
            mixed = _mix_columns(mixed)
        after_mix[:, r - 1] = mixed
        state = states[:, r] = mixed ^ round_keys[r]
    after_sub = SBOX[states[:, :10]]
    after_shift = after_sub[:, :, _SHIFT_ROWS]
    return BlockHistories(
        plaintexts=blocks.copy(),
        states=states,
        after_subbytes=after_sub,
        after_shiftrows=after_shift,
        after_mixcolumns=after_mix,
        round_keys=round_keys,
    )
