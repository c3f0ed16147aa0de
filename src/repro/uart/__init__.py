"""RS232 UART substrate.

The test chip receives plaintext from, and returns ciphertext to, a
laptop over a serial link (Section V-A).  This package models the
UART's (small) switching activity at a configurable baud rate for the
EM model.
"""

from .uart import FRAME_BITS, Uart, UartConfig

__all__ = [
    "FRAME_BITS",
    "Uart",
    "UartConfig",
]
