"""UART cycle model."""

import pytest

from repro.config import SimConfig
from repro.errors import WorkloadError
from repro.uart.uart import Uart, UartConfig


def test_uart_activity_shape_and_magnitude():
    config = SimConfig()
    uart = Uart(config)
    activity = uart.activity(transmitting=True)
    assert activity.shape == (config.n_cycles,)
    assert activity.min() > 0.0
    # The UART is a small contributor: far below one toggle per cell.
    assert activity.max() < 500


def test_uart_idle_activity_lower():
    config = SimConfig()
    uart = Uart(config)
    idle = uart.activity(transmitting=False)
    busy = uart.activity(transmitting=True)
    assert idle.sum() < busy.sum()


def test_cycles_per_bit():
    config = SimConfig()
    uart_config = UartConfig(baud_rate=115200.0)
    cycles = uart_config.cycles_per_bit(config)
    assert cycles == round(33e6 / 115200)
    with pytest.raises(WorkloadError):
        UartConfig(baud_rate=1e9).cycles_per_bit(config)
