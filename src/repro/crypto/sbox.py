"""AES S-box, derived from first principles.

The S-box is computed (not transcribed): multiplicative inverse in
GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1, followed by the
affine transformation.  Deriving it keeps the implementation honest and
gives the test suite a strong cross-check against the published table.
"""

from __future__ import annotations

import numpy as np

AES_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def gf_mul(a: int, b: int) -> int:
    """Multiply two GF(2^8) elements modulo the AES polynomial."""
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_POLY
        b >>= 1
    return result & 0xFF


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    # Fermat: a^(254) = a^(-1) in GF(2^8).
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        exponent >>= 1
    return result


def _affine(value: int) -> int:
    """The AES affine transformation over GF(2)."""
    result = 0
    for bit in range(8):
        parity = (
            (value >> bit)
            ^ (value >> ((bit + 4) % 8))
            ^ (value >> ((bit + 5) % 8))
            ^ (value >> ((bit + 6) % 8))
            ^ (value >> ((bit + 7) % 8))
            ^ (0x63 >> bit)
        ) & 1
        result |= parity << bit
    return result


def _build_sbox() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint8)
    for value in range(256):
        table[value] = _affine(gf_inverse(value))
    return table


#: Forward S-box as a 256-entry lookup table.
SBOX: np.ndarray = _build_sbox()
SBOX.setflags(write=False)

#: Bit-population count per byte value (popcount lookup).
POPCOUNT: np.ndarray = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)
POPCOUNT.setflags(write=False)


def bit_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-level Hamming distance over the last (byte) axis.

    A table lookup per byte (no bit unpacking), exactly equal to
    ``np.unpackbits(a ^ b, axis=-1).sum(axis=-1)``.
    """
    return POPCOUNT[np.bitwise_xor(a, b)].sum(axis=-1)
