"""AES-128 substrate: cipher, key schedule, and the LUT-core cycle model.

The paper's main circuit is an AES-128-LUT core (Morioka/Satoh S-box
architecture) clocked at 33 MHz.  This package implements AES-128 from
scratch — S-box derived from GF(2^8) inversion plus the affine map, key
schedule, batched block encryption with a full round-state history —
and a cycle-accurate activity model that converts that history into
per-module toggle counts (the input of the EM simulation).
"""

from .sbox import SBOX
from .key_schedule import expand_key
from .cipher import BlockHistories, encrypt_blocks_with_history
from .lut_core import AesLutCore, CoreActivity, BLOCK_CYCLES

__all__ = [
    "SBOX",
    "expand_key",
    "encrypt_blocks_with_history",
    "BlockHistories",
    "AesLutCore",
    "CoreActivity",
    "BLOCK_CYCLES",
]
