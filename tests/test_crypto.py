"""AES-128 correctness (FIPS-197 vectors + properties)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import encrypt_blocks_with_history
from repro.crypto.key_schedule import expand_key
from repro.crypto.sbox import SBOX, gf_inverse, gf_mul

# FIPS-197 Appendix B.
FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PLAINTEXT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS_CIPHERTEXT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
# Appendix B's state at the start of rounds 1 and 2 (column-major).
FIPS_ROUND1_START = bytes.fromhex("193de3bea0f4e22b9ac68d2ae9f84808")
FIPS_ROUND2_START = bytes.fromhex("a49c7ff2689f352b6b5bea43026a5049")

# FIPS-197 Appendix C.1.
C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
C1_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
C1_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def _blocks(*blocks: bytes) -> np.ndarray:
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)


def _ciphertexts(plaintexts: np.ndarray, key: bytes) -> list:
    """Each row's ciphertext: the state register after round 10."""
    states = encrypt_blocks_with_history(plaintexts, key).states
    return [bytes(row) for row in states[:, 10]]


def test_sbox_known_entries():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x01] == 0x7C
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_sbox_is_a_permutation():
    assert sorted(SBOX.tolist()) == list(range(256))


def test_gf_arithmetic():
    # Classic example: 0x57 * 0x83 = 0xC1 in GF(2^8).
    assert gf_mul(0x57, 0x83) == 0xC1
    assert gf_mul(0x57, 0x13) == 0xFE
    for value in (1, 2, 0x53, 0xCA, 0xFF):
        assert gf_mul(value, gf_inverse(value)) == 1
    assert gf_inverse(0) == 0


def test_key_schedule_fips_vector():
    round_keys = expand_key(FIPS_KEY)
    assert len(round_keys) == 11
    assert bytes(round_keys[0]) == FIPS_KEY
    assert bytes(round_keys[10]) == bytes.fromhex(
        "d014f9a8c9ee2589e13f0cc8b6630ca6"
    )


def test_encrypt_fips_appendix_b():
    assert _ciphertexts(_blocks(FIPS_PLAINTEXT), FIPS_KEY) == [FIPS_CIPHERTEXT]
    states = encrypt_blocks_with_history(_blocks(FIPS_PLAINTEXT), FIPS_KEY).states
    assert bytes(states[0, 0]) == FIPS_ROUND1_START
    assert bytes(states[0, 1]) == FIPS_ROUND2_START


def test_encrypt_fips_appendix_c1():
    assert _ciphertexts(_blocks(C1_PLAINTEXT), C1_KEY) == [C1_CIPHERTEXT]


def test_encrypt_known_answers_in_multi_row_batches():
    """A known-answer row reads the same wherever it sits in a batch."""
    fips = _ciphertexts(_blocks(FIPS_PLAINTEXT, C1_PLAINTEXT, FIPS_PLAINTEXT), FIPS_KEY)
    assert fips[0] == fips[2] == FIPS_CIPHERTEXT
    assert fips[1] == _ciphertexts(_blocks(C1_PLAINTEXT), FIPS_KEY)[0]
    c1 = _ciphertexts(_blocks(FIPS_PLAINTEXT, C1_PLAINTEXT), C1_KEY)
    assert c1[1] == C1_CIPHERTEXT
    assert c1[0] == _ciphertexts(_blocks(FIPS_PLAINTEXT), C1_KEY)[0]


@settings(max_examples=50, deadline=None)
@given(
    plaintexts=st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=6),
    key=st.binary(min_size=16, max_size=16),
)
def test_batch_rows_equal_one_row_batches(plaintexts, key):
    """Every array of a batch history equals its one-row batches'."""
    batch = encrypt_blocks_with_history(_blocks(*plaintexts), key)
    for index, plaintext in enumerate(plaintexts):
        single = encrypt_blocks_with_history(_blocks(plaintext), key)
        for field in (
            "plaintexts",
            "states",
            "after_subbytes",
            "after_shiftrows",
            "after_mixcolumns",
        ):
            assert np.array_equal(getattr(batch, field)[index], getattr(single, field)[0])
    # Encryption under one key is a permutation of blocks.
    assert len(set(_ciphertexts(_blocks(*plaintexts), key))) == len(set(plaintexts))


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=16, max_size=16))
def test_history_is_consistent(key):
    history = encrypt_blocks_with_history(_blocks(FIPS_PLAINTEXT, C1_PLAINTEXT), key)
    assert len(history) == 2
    assert history.states.shape == (2, 11, 16)
    assert history.after_mixcolumns.shape == (2, 10, 16)
    # Load cycle = plaintext ^ rk0.
    expected = _blocks(FIPS_PLAINTEXT, C1_PLAINTEXT) ^ history.round_keys[0]
    assert np.array_equal(history.states[:, 0], expected)
    # Each round's output is its MixColumns result plus the round key.
    for r in range(1, 11):
        assert np.array_equal(
            history.states[:, r], history.after_mixcolumns[:, r - 1] ^ history.round_keys[r]
        )
    # SubBytes and ShiftRows act on the state entering the round.
    assert np.array_equal(history.after_subbytes, SBOX[history.states[:, :10]])
    # Round 10 has no MixColumns.
    assert np.array_equal(history.after_mixcolumns[:, 9], history.after_shiftrows[:, 9])


def test_avalanche_effect():
    """Flipping one plaintext bit flips ~half the ciphertext bits."""
    flipped = bytearray(FIPS_PLAINTEXT)
    flipped[0] ^= 0x01
    reference, changed = encrypt_blocks_with_history(
        _blocks(FIPS_PLAINTEXT, bytes(flipped)), FIPS_KEY
    ).states[:, 10]
    distance = int(np.unpackbits(reference ^ changed).sum())
    assert 40 <= distance <= 88
