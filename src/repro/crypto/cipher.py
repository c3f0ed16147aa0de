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
from .sbox import INV_SBOX, SBOX, gf_mul

# Byte-index permutation implementing ShiftRows on the flat
# column-major state (value = source index for each destination).
_SHIFT_ROWS = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)
_INV_SHIFT_ROWS = np.argsort(_SHIFT_ROWS)

# Multiplication by x (i.e. by 2) in GF(2^8), as a byte table.
_XTIME = np.array([gf_mul(value, 2) for value in range(256)], dtype=np.uint8)
# ... and by x^2 (by 4), used by InvMixColumns' pre-step.
_XTIME2 = _XTIME[_XTIME]

# Flat column-major index of the byte one (two) rows further down the
# same column, cyclically: state[..., _NEXT_ROW][i] is a_{row+1}.
_NEXT_ROW = np.array([4 * (i // 4) + (i + 1) % 4 for i in range(16)], dtype=np.intp)
_ROW_AFTER_NEXT = _NEXT_ROW[_NEXT_ROW]


def _as_state(data: bytes | np.ndarray) -> np.ndarray:
    array = np.frombuffer(bytes(data), dtype=np.uint8).copy() if isinstance(
        data, (bytes, bytearray)
    ) else np.asarray(data, dtype=np.uint8).copy()
    if array.shape != (16,):
        raise ConfigError(f"AES state must be 16 bytes, got shape {array.shape}")
    return array


def _mix_columns(state: np.ndarray, inverse: bool = False) -> np.ndarray:
    """(Inv)MixColumns over the last axis of ``(..., 16)`` states.

    Each output byte of the circulant ``[2 3 1 1]`` product is
    ``a_i ^ t ^ xtime(a_i ^ a_{i+1})``, with ``t`` the XOR of the
    column's four bytes, so every column of every block mixes in one
    pass of exact byte arithmetic.  The inverse ``[14 11 13 9]`` is
    the forward matrix after the pre-step ``a_i ^= 4 * (a_i ^
    a_{i+2})``.
    """
    if inverse:
        state = state ^ _XTIME2[state ^ state[..., _ROW_AFTER_NEXT]]
    columns = state.reshape(state.shape[:-1] + (4, 4))
    total = np.bitwise_xor.reduce(columns, axis=-1, keepdims=True)
    out = (columns ^ total).reshape(state.shape)
    out ^= _XTIME[state ^ state[..., _NEXT_ROW]]
    return out


@dataclass(frozen=True)
class RoundTrace:
    """Intermediate values of one AES round.

    Attributes
    ----------
    round_index:
        1..10.
    state_in:
        State entering the round.
    after_subbytes, after_shiftrows, after_mixcolumns:
        Intermediate states (``after_mixcolumns`` equals
        ``after_shiftrows`` in round 10, which has no MixColumns).
    state_out:
        State after AddRoundKey, i.e. entering the next round.
    """

    round_index: int
    state_in: np.ndarray
    after_subbytes: np.ndarray
    after_shiftrows: np.ndarray
    after_mixcolumns: np.ndarray
    state_out: np.ndarray


@dataclass(frozen=True)
class EncryptionHistory:
    """Complete state evolution of one block encryption.

    Attributes
    ----------
    plaintext, ciphertext:
        Input and output blocks (16-byte uint8 arrays).
    initial_state:
        State after the initial AddRoundKey (the LUT core's load cycle).
    rounds:
        Ten :class:`RoundTrace` records.
    round_keys:
        The 11 round keys.
    """

    plaintext: np.ndarray
    ciphertext: np.ndarray
    initial_state: np.ndarray
    rounds: List[RoundTrace]
    round_keys: List[np.ndarray]

    def cycle_states(self) -> List[np.ndarray]:
        """State captured in the state register at each core cycle.

        Index 0 is the load cycle (plaintext ^ rk0); indices 1..10 are
        the round outputs.  Length is 11 = the paper core's cycles per
        block.
        """
        return [self.initial_state] + [r.state_out for r in self.rounds]


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

    def block(self, index: int) -> EncryptionHistory:
        """The per-block view of one encryption."""
        states = self.states[index]
        rounds = [
            RoundTrace(
                round_index=r,
                state_in=states[r - 1],
                after_subbytes=self.after_subbytes[index, r - 1],
                after_shiftrows=self.after_shiftrows[index, r - 1],
                after_mixcolumns=self.after_mixcolumns[index, r - 1],
                state_out=states[r],
            )
            for r in range(1, 11)
        ]
        return EncryptionHistory(
            plaintext=self.plaintexts[index],
            ciphertext=states[10],
            initial_state=states[0],
            rounds=rounds,
            round_keys=self.round_keys,
        )


def encrypt_blocks_with_history(
    plaintexts: np.ndarray,
    key: bytes,
    round_keys: List[np.ndarray] | None = None,
) -> BlockHistories:
    """Encrypt a ``(blocks, 16)`` uint8 batch, recording every state.

    All blocks advance through the rounds together as integer table
    lookups, so every byte equals the one-block computation.
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


def encrypt_block_with_history(
    plaintext: bytes | np.ndarray,
    key: bytes,
    round_keys: List[np.ndarray] | None = None,
) -> EncryptionHistory:
    """Encrypt one block, recording every intermediate state.

    The one-block case of :func:`encrypt_blocks_with_history`.
    """
    return encrypt_blocks_with_history(
        _as_state(plaintext)[None], key, round_keys
    ).block(0)


def encrypt_block(plaintext: bytes | np.ndarray, key: bytes) -> bytes:
    """Encrypt one 16-byte block; returns the 16-byte ciphertext."""
    return bytes(encrypt_block_with_history(plaintext, key).ciphertext)


def decrypt_block(ciphertext: bytes | np.ndarray, key: bytes) -> bytes:
    """Decrypt one 16-byte block; returns the 16-byte plaintext."""
    state = _as_state(ciphertext)
    round_keys = expand_key(key)
    state = state ^ round_keys[10]
    for round_index in range(10, 0, -1):
        state = INV_SBOX[state[_INV_SHIFT_ROWS]]
        state = state ^ round_keys[round_index - 1]
        if round_index > 1:
            state = _mix_columns(state, inverse=True)
    return bytes(state)
