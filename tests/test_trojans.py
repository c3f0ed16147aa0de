"""Trojan trigger and payload models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.trojans.always_on import (
    T1AContinuousCarrier,
    T2AContinuousLeaker,
    TPParametricDrift,
)
from repro.trojans.base import (
    SIDEBAND_BLOCK_HARMONIC,
    CycleWindow,
    ExternallyEnabledTrojan,
    block_pattern,
)
from repro.trojans.catalog import TROJAN_CATALOG
from repro.trojans.t1_am_carrier import T1_TERMINAL, T1AmCarrier
from repro.trojans.t2_leakage import T2KeyLeakInverters
from repro.trojans.t3_cdma import PN_PERIOD, PN_SEQUENCE, T3CdmaLeaker
from repro.trojans.t4_dos import T4DosHeater


def _window(cycles=(0,), plaintext=b"\x00" * 16, key_hd=64, aes_norm=0.5):
    """A window over ``cycles`` of one plaintext, key distance and droop."""
    cycle = np.asarray(cycles)
    n = cycle.size
    return CycleWindow(
        cycle=cycle,
        block=cycle // 11,
        phase=cycle % 11,
        block_cycles=11,
        time_s=cycle / 33e6,
        plaintext=np.tile(np.frombuffer(plaintext, dtype=np.uint8), (n, 1)),
        key_hd=np.full(n, key_hd),
        aes_norm=lambda: np.full(n, aes_norm, dtype=float),
    )


def _active(trojan, cycle=0, **observed) -> bool:
    return bool(trojan.active_window(_window((cycle,), **observed))[0])


def _payload(trojan, cycle=0, **observed) -> float:
    return float(trojan.payload_window(_window((cycle,), **observed))[0])


def test_block_pattern_concentrates_fifth_harmonic():
    """The burst pattern's discrete spectrum peaks at harmonic 5."""
    pattern = np.array([block_pattern(p, 11) for p in range(11)])
    spectrum = np.abs(np.fft.rfft(pattern - pattern.mean()))
    assert int(np.argmax(spectrum[1:])) + 1 == SIDEBAND_BLOCK_HARMONIC


def test_t1_counter_period_matches_paper():
    """0x1FFFFF terminal at 33 MHz -> ~63.6 ms activation period."""
    period_s = (T1_TERMINAL + 1) / 33e6
    assert period_s == pytest.approx(63.6e-3, rel=0.01)


def test_t1_fires_at_terminal_count():
    trojan = T1AmCarrier(enabled=True, start_count=T1_TERMINAL, burst_cycles=100)
    assert _active(trojan, cycle=0)
    assert _active(trojan, cycle=99)
    assert not _active(trojan, cycle=100)


def test_t1_never_fires_when_disabled():
    trojan = T1AmCarrier(enabled=False, start_count=T1_TERMINAL)
    assert not any(_active(trojan, cycle=c) for c in range(200))


def test_t1_payload_carries_750khz_envelope():
    trojan = T1AmCarrier(enabled=True, start_count=T1_TERMINAL)
    # Payload at the carrier's peak vs trough (same block phase).
    quarter = int(33e6 / 750e3 / 4)
    cycles = [11 * (quarter // 11), 11 * ((3 * quarter) // 11)]
    peaks = [_payload(trojan, cycle=c) for c in cycles]
    assert max(peaks) > 2 * min(peaks) or min(peaks) == 0.0


def test_t1_out_of_order_cycles_rejected():
    trojan = T1AmCarrier(enabled=True)
    _active(trojan, cycle=10)
    with pytest.raises(WorkloadError):
        _active(trojan, cycle=5)
    trojan.reset()
    assert not _active(trojan, cycle=0)


def test_t2_trigger_condition():
    trojan = T2KeyLeakInverters(enabled=True)
    assert _active(trojan, plaintext=b"\xaa\xaa" + b"\x00" * 14)
    assert not _active(trojan, plaintext=b"\xaa\xab" + b"\x00" * 14)
    assert not _active(trojan, plaintext=b"\x00" * 16)


def test_t2_payload_scales_with_key_hd():
    trojan = T2KeyLeakInverters(enabled=True)
    plaintext = b"\xaa\xaa" + b"\x00" * 14
    assert _payload(trojan, cycle=1, plaintext=plaintext, key_hd=64) == pytest.approx(
        4 * _payload(trojan, cycle=1, plaintext=plaintext, key_hd=16)
    )


def test_pn_sequence_is_maximal():
    assert len(PN_SEQUENCE) == PN_PERIOD == 63
    assert sum(PN_SEQUENCE) == 32  # balanced m-sequence: 32 ones, 31 zeros
    # The sequence must not be constant or short-period.
    for period in (1, 3, 7, 9, 21):
        assert PN_SEQUENCE != PN_SEQUENCE[period:] + PN_SEQUENCE[:period]


def test_t3_chip_stream_follows_pn():
    trojan = T3CdmaLeaker(enabled=True, key=b"\x00" * 16, chip_cycles=22)
    payload = trojan.payload_window(_window(np.arange(PN_PERIOD) * 22))
    assert (payload > 0).astype(int).tolist() == PN_SEQUENCE  # key bit 0 -> chip = pn


def test_t3_key_bit_inverts_chips():
    key_one = b"\x01" + b"\x00" * 15  # first key bit = 1
    trojan = T3CdmaLeaker(enabled=True, key=key_one, chip_cycles=22)
    payload = trojan.payload_window(_window(np.arange(PN_PERIOD) * 22))
    assert (payload > 0).astype(int).tolist() == [1 - bit for bit in PN_SEQUENCE]


def test_t3_payload_gated_by_chip():
    trojan = T3CdmaLeaker(enabled=True, key=b"\x00" * 16)
    active = [
        _payload(trojan, cycle=c) for c in range(0, 22 * 8, 22)
    ]
    assert any(v == 0.0 for v in active)
    assert any(v > 0.0 for v in active)


def test_t4_droop_modulation():
    trojan = T4DosHeater(enabled=True, droop_coupling=0.3)
    quiet = _payload(trojan, aes_norm=0.0)
    busy = _payload(trojan, aes_norm=1.0)
    assert quiet == pytest.approx(trojan.n_cells * trojan.ro_toggle_rate)
    assert busy == pytest.approx(quiet * 0.7)


def test_t4_default_droop_detectable():
    """The default coupling leaves a clear AES-correlated ripple."""
    trojan = T4DosHeater(enabled=True)
    quiet = _payload(trojan, aes_norm=0.0)
    busy = _payload(trojan, aes_norm=1.0)
    assert (quiet - busy) / quiet == pytest.approx(
        trojan.droop_coupling, rel=1e-9
    )


def test_always_on_flags():
    flags = [TROJAN_CATALOG[name].always_on for name in ("T1", "T2", "T3", "T4")]
    assert flags == [False, False, True, True]
    assert not isinstance(T1AmCarrier(), ExternallyEnabledTrojan)
    assert not isinstance(T2KeyLeakInverters(), ExternallyEnabledTrojan)
    assert isinstance(T3CdmaLeaker(), ExternallyEnabledTrojan)
    assert isinstance(T4DosHeater(), ExternallyEnabledTrojan)


def test_clock_phases():
    """T4's power virus is main-clock synchronous; the rest strobe on
    the inverted clock."""
    assert T4DosHeater().clock_phase == "rising"
    for trojan in (T1AmCarrier(), T2KeyLeakInverters(), T3CdmaLeaker()):
        assert trojan.clock_phase == "falling"


def test_inactive_trojans_still_tick():
    """Trigger circuits keep a tiny, nonzero footprint when inactive."""
    inactive = (
        T1AmCarrier(enabled=True, start_count=0),
        T2KeyLeakInverters(enabled=True),
        T3CdmaLeaker(enabled=False),
        T4DosHeater(enabled=False),
    )
    for trojan in inactive:
        toggles = float(trojan.window_toggles(_window())[0])
        assert 0.0 < toggles < 10.0


def test_catalog_matches_table2():
    assert set(TROJAN_CATALOG) == {"T1", "T2", "T3", "T4"}
    assert TROJAN_CATALOG["T3"].n_cells == 329
    assert TROJAN_CATALOG["T1"].trigger.startswith("21-bit counter")


def test_parameter_validation():
    with pytest.raises(WorkloadError):
        T1AmCarrier(start_count=-1)
    with pytest.raises(WorkloadError):
        T1AmCarrier(burst_cycles=0)
    with pytest.raises(WorkloadError):
        T2KeyLeakInverters(payload_fraction=0.0)
    with pytest.raises(WorkloadError):
        T3CdmaLeaker(key=b"\x00" * 8)
    with pytest.raises(WorkloadError):
        T4DosHeater(droop_coupling=1.5)


# -- always-on variant family (T1A / T2A / TP) --------------------------------


def test_variant_catalog_contents():
    from repro.trojans.always_on import ALWAYS_ON_CELLS, ALWAYS_ON_NAMES
    from repro.trojans.catalog import VARIANT_CATALOG

    assert tuple(VARIANT_CATALOG) == ALWAYS_ON_NAMES
    # Deliberately disjoint from Table II: the fabricated chip carries
    # exactly T1..T4 and the gate-count artifacts account only those.
    assert not set(VARIANT_CATALOG) & set(TROJAN_CATALOG)
    for name, info in VARIANT_CATALOG.items():
        assert info.always_on
        assert info.n_cells == ALWAYS_ON_CELLS[name]
        assert "power-on" in info.trigger or "parametric" in info.trigger


def test_variants_have_no_trigger_and_emit_from_cycle_zero():
    for cls in (T1AContinuousCarrier, T2AContinuousLeaker, TPParametricDrift):
        trojan = cls()
        assert trojan.enabled
        window = _window(range(44))
        assert trojan.active_window(window).all()
        assert not trojan.trigger_window(window).any()
        assert trojan.payload_window(window).sum() > 0.0  # leaking within the first blocks


def test_tp_drift_ramps_then_saturates():
    trojan = TPParametricDrift(drift_floor=0.2, drift_cycles=128)
    # Compare equal block phases so only the thermal drift differs.
    phase_period = 11
    cold = _payload(trojan, cycle=phase_period)
    warm = _payload(trojan, cycle=128 + phase_period)
    hot = _payload(trojan, cycle=1280 + phase_period)
    assert cold < warm
    assert warm == pytest.approx(hot)  # saturated past drift_cycles


def test_variant_parameter_validation():
    with pytest.raises(WorkloadError):
        T1AContinuousCarrier(payload_fraction=0.0)
    with pytest.raises(WorkloadError):
        T2AContinuousLeaker(payload_fraction=1.5)
    with pytest.raises(WorkloadError):
        TPParametricDrift(drift_floor=-0.1)
    with pytest.raises(WorkloadError):
        TPParametricDrift(drift_cycles=0)
