"""Global simulation configuration.

A single frozen :class:`SimConfig` instance threads through the whole
signal chain so that every module agrees on the clock frequency, the
fast-time sampling grid and the trace length.

Defaults reproduce the paper's test setup: a 33 MHz crystal clock, an
AES-128-LUT core that spends 11 cycles per block (10 rounds + load), and
a trace window that is an integer number of blocks so that the clock
harmonics and the Trojan sidebands land exactly on FFT bins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .units import MHZ


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation setup.

    Parameters
    ----------
    f_clock:
        Main circuit clock frequency [Hz].  The paper uses a 33 MHz
        crystal oscillator.
    oversample:
        Fast-time samples per clock cycle.  16 gives fs = 528 MHz, i.e.
        a 264 MHz Nyquist frequency comfortably above the 120 MHz
        analysis band.
    n_cycles:
        Clock cycles per captured trace.  The default 528 cycles = 48
        AES blocks = 16 us, giving a 62.5 kHz FFT bin width with the
        48 MHz / 84 MHz sidebands exactly on bins.
    block_cycles:
        Clock cycles per AES-128 block (load + 10 rounds).
    vdd:
        Supply voltage [V] (0.8 - 1.2 V for TSMC 65 nm).
    temperature_c:
        Ambient temperature [Celsius].
    seed:
        Root seed for every random stream derived from this config.
    """

    f_clock: float = 33.0 * MHZ
    oversample: int = 16
    n_cycles: int = 528
    block_cycles: int = 11
    vdd: float = 1.2
    temperature_c: float = 25.0
    seed: int = 20240122

    def __post_init__(self) -> None:
        if self.f_clock <= 0:
            raise ConfigError(f"f_clock must be positive, got {self.f_clock}")
        if self.oversample < 4:
            raise ConfigError(
                "oversample must be >= 4 to resolve the current kernel, "
                f"got {self.oversample}"
            )
        if self.oversample % 2:
            raise ConfigError(
                "oversample must be even so the Trojan half-cycle phase "
                f"offset is an integer number of samples, got {self.oversample}"
            )
        if self.n_cycles < self.block_cycles:
            raise ConfigError(
                f"n_cycles ({self.n_cycles}) must cover at least one AES "
                f"block ({self.block_cycles} cycles)"
            )
        if self.block_cycles <= 0:
            raise ConfigError("block_cycles must be positive")
        if not 0.5 <= self.vdd <= 1.5:
            raise ConfigError(
                f"vdd {self.vdd} V outside the modeled 0.5-1.5 V range"
            )
        if not -55.0 <= self.temperature_c <= 150.0:
            raise ConfigError(
                f"temperature {self.temperature_c} C outside -55..150 C"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def t_clock(self) -> float:
        """Clock period [s]."""
        return 1.0 / self.f_clock

    @property
    def fs(self) -> float:
        """Fast-time sampling rate [Hz]."""
        return self.f_clock * self.oversample

    @property
    def dt(self) -> float:
        """Fast-time sample spacing [s]."""
        return 1.0 / self.fs

    @property
    def n_samples(self) -> int:
        """Fast-time samples per trace."""
        return self.n_cycles * self.oversample

    @property
    def duration(self) -> float:
        """Trace duration [s]."""
        return self.n_cycles * self.t_clock

    @property
    def f_block(self) -> float:
        """AES block rate [Hz] (3 MHz with the defaults)."""
        return self.f_clock / self.block_cycles

    @property
    def n_blocks(self) -> int:
        """Whole AES blocks that fit in one trace."""
        return self.n_cycles // self.block_cycles

    # -- convenience --------------------------------------------------------

    def with_(self, **changes) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Shared default configuration (the paper's setup).
DEFAULT_CONFIG = SimConfig()
