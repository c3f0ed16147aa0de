"""Plaintext sources.

A Galois LFSR mirrors the test chip's on-board pattern generator (the
``en_LFSR`` pin in Figure 2); :class:`PlaintextGenerator` layers the
policies the experiments need on top of it — uniform random blocks, or
streams with a controlled fraction of T2-trigger (0xAAAA-prefixed)
blocks.
"""

from __future__ import annotations

from typing import List

from ..errors import WorkloadError

#: Maximal-length taps for a 32-bit Galois LFSR (x^32+x^22+x^2+x+1).
_TAPS_32 = 0x80400003


def _step(state: int) -> tuple[int, int]:
    """One Galois step: ``(next_state, output_bit)``."""
    out = state & 1
    state >>= 1
    if out:
        state ^= _TAPS_32
    return state, out


def _byte_tables() -> tuple[list[int], list[int]]:
    """Eight steps at once, indexed by the state's low byte.

    The step is linear over GF(2), and within eight steps no tap above
    bit 1 reaches bit 0, so the output byte depends only on the low
    byte and eight steps map ``state`` to
    ``(state >> 8) ^ feedback[state & 0xFF]``.
    """
    feedback, output = [], []
    for low in range(256):
        state, value = low, 0
        for bit in range(8):
            state, out = _step(state)
            value |= out << bit
        feedback.append(state)
        output.append(value)
    return feedback, output


_FEEDBACK, _OUTPUT = _byte_tables()


class GaloisLfsr:
    """32-bit Galois LFSR producing a deterministic byte stream."""

    def __init__(self, seed: int = 0xACE1_2024):
        if not 0 < seed < (1 << 32):
            raise WorkloadError(f"seed must be a nonzero 32-bit value, got {seed:#x}")
        self.state = seed

    def step(self) -> int:
        """Advance one bit; returns the output bit."""
        self.state, out = _step(self.state)
        return out

    def next_byte(self) -> int:
        """Next eight output bits as a byte (first bit in the LSB)."""
        low = self.state & 0xFF
        self.state = (self.state >> 8) ^ _FEEDBACK[low]
        return _OUTPUT[low]

    def next_block(self) -> bytes:
        """Next 16 bytes (one AES block): :meth:`next_byte` 16 times."""
        state = self.state
        block = bytearray(16)
        for position in range(16):
            low = state & 0xFF
            state = (state >> 8) ^ _FEEDBACK[low]
            block[position] = _OUTPUT[low]
        self.state = state
        return bytes(block)


class PlaintextGenerator:
    """Plaintext policies over an LFSR stream.

    Parameters
    ----------
    seed:
        LFSR seed; different traces use different seeds so each capture
        sees fresh data (as the chip would over UART).
    """

    def __init__(self, seed: int = 0xACE1_2024):
        self._lfsr = GaloisLfsr(seed)

    def random_blocks(self, n_blocks: int) -> List[bytes]:
        """Uniformly pseudo-random plaintext blocks.

        Any block that happens to start with the T2 trigger prefix is
        re-drawn, so "random" streams never arm T2 by accident.
        """
        if n_blocks < 1:
            raise WorkloadError("need at least one block")
        blocks = []
        while len(blocks) < n_blocks:
            block = self._lfsr.next_block()
            if block[:2] == b"\xaa\xaa":
                continue
            blocks.append(block)
        return blocks

    def t2_trigger_blocks(
        self, n_blocks: int, match_fraction: float = 0.5
    ) -> List[bytes]:
        """Blocks with a deterministic fraction of T2-trigger prefixes.

        Matching blocks are interleaved evenly (alternating at 0.5), so
        the zero-span envelope shows the regular on/off gating of
        Figure 5b.
        """
        if not 0.0 < match_fraction <= 1.0:
            raise WorkloadError("match_fraction must be in (0, 1]")
        blocks = []
        accumulator = 0.0
        for _ in range(n_blocks):
            block = self._lfsr.next_block()
            accumulator += match_fraction
            if accumulator >= 1.0:
                accumulator -= 1.0
                block = b"\xaa\xaa" + block[2:]
            elif block[:2] == b"\xaa\xaa":
                block = b"\x00\x55" + block[2:]
            blocks.append(block)
        return blocks
