"""Numerical equivalence of the batched engine and the legacy APIs.

The engine's determinism contract: a capture is identified by
(scenario, receiver, trace index) and renders bit-for-bit identically
whether produced alone, inside any batch or one capture at a time
(thread splits: ``test_engine_threads.py``).
"""

import numpy as np
import pytest

from repro.chip.power import MEAN_SWITCH_CAP, charge_per_toggle, emf_kernel
from repro.core.array import ProgrammableSensorArray
from repro.core.sensors import quadrant_coil
from repro.em.coupling import CouplingMatrix, CouplingStack, emf_rfft
from repro.em.noise import fill_white_noise_rfft, white_noise_scales
from repro.engine import coupling_cache_stats
from repro.errors import MeasurementError
from repro.rng import stream

ALL_SCENARIOS = ("idle", "baseline", "T1", "T2", "T3", "T4")


# -- batched vs. per-trace wrappers -----------------------------------------


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_batch_matches_measure_all(psa, records, scenario):
    """One batched render == per-capture measure of all 16 sensors."""
    recs = records[scenario]
    batch = psa.render(recs, trace_indices=[500, 501])
    for t, record in enumerate(recs):
        for sensor in range(16):
            single = psa.measure(record, sensor, trace_index=500 + t)
            assert np.array_equal(
                batch.samples[sensor, t], single.samples
            ), f"{scenario} sensor {sensor} trace {t}"


def test_single_sensor_render_matches_full(psa, records):
    """Rendering a sensor subset equals the same rows of a full render."""
    record = records["T2"][0]
    full = psa.render([record], trace_indices=[42])
    subset = psa.render([record], trace_indices=[42], sensors=[10, 3])
    assert np.array_equal(subset.samples[0], full.samples[10])
    assert np.array_equal(subset.samples[1], full.samples[3])
    assert subset.labels == ("psa_sensor_10", "psa_sensor_3")


def test_measure_matches_batch_row(psa, records):
    record = records["T3"][1]
    trace = psa.measure(record, 7, trace_index=13)
    batch = psa.render([record], trace_indices=[13])
    assert np.array_equal(trace.samples, batch.samples[7, 0])


def test_measure_coil_matches_batch(psa, records):
    coil = quadrant_coil(10, "ne")
    single = psa.measure_coils_batch(
        [coil], [records["T1"][0]], trace_indices=[5]
    )
    batch = psa.measure_coils_batch([coil], records["T1"], trace_indices=[5, 6])
    assert np.array_equal(single.samples[0, 0], batch.samples[0, 0])


def test_shared_record_reuses_emf_with_fresh_noise(psa, records):
    """One record over many indices: same signal, independent noise."""
    record = records["baseline"][0]
    batch = psa.render([record], trace_indices=[0, 1, 2])
    assert batch.n_traces == 3
    assert not np.array_equal(batch.samples[10, 0], batch.samples[10, 1])
    again = psa.measure(record, 10, trace_index=2)
    assert np.array_equal(again.samples, batch.samples[10, 2])


def test_trace_metadata_parity(psa, records):
    batch = psa.render([records["T1"][0]], trace_indices=[7])
    trace = batch.trace(5, 0)
    assert trace.label == "psa_sensor_5"
    assert trace.scenario == "T1"
    assert trace.meta["trace_index"] == 7
    assert trace.meta["turns"] == 5
    assert trace.meta["r_series"] > 100.0


# -- chunking ----------------------------------------------------------------


def test_chunking_does_not_change_output(psa, records, monkeypatch):
    """irFFT batches of 1, 2, 3 or 16 traces render the same bits.

    A 16-receiver render converts ``IRFFT_ROWS // 16`` traces per irFFT
    call, so 16, 32, 48 and 256 rows make those
    chunks.  Records repeat out of order, so a record's EMF rows are
    dropped after its last capture while others are still in use.
    """
    recs = (records["T2"] + records["T1"]) * 2 + records["T2"][:1]
    indices = range(len(recs))
    reference = psa.engine.render(psa.coupling, recs, trace_indices=indices)
    for rows in (16, 32, 48, 256):
        monkeypatch.setattr("repro.engine.engine.IRFFT_ROWS", rows)
        samples = psa.engine.render(
            psa.coupling, recs, trace_indices=indices
        ).samples
        assert samples.tobytes() == reference.samples.tobytes()
    monkeypatch.undo()
    # One receiver: the default batch grows to IRFFT_ROWS traces.
    one = psa.engine.render(
        psa.coupling, recs, trace_indices=indices, receiver_indices=[9]
    )
    assert one.samples.tobytes() == reference.samples[9:10].tobytes()


# -- coupling-geometry cache -------------------------------------------------


def test_coupling_cache_hits_for_identical_geometry(chip):
    before = coupling_cache_stats()
    second = ProgrammableSensorArray(chip)
    after = coupling_cache_stats()
    assert after["hits"] >= before["hits"] + 1
    assert after["misses"] == before["misses"]
    # The cached geometry arrays are shared, not recomputed.
    first = ProgrammableSensorArray(chip)
    assert second.coupling.matrix is first.coupling.matrix
    assert second.coupling.bond_row is first.coupling.bond_row


def test_coupling_cache_misses_on_different_geometry(chip, psa):
    before = coupling_cache_stats()["misses"]
    CouplingMatrix(
        chip.floorplan,
        psa.coupling.receivers,
        scale=2.0 * psa.coupling_scale,
    )
    assert coupling_cache_stats()["misses"] == before + 1


# -- spectral building blocks ------------------------------------------------


def _reference_emf(coupling, record):
    """Time-domain EMF from the dense toggle matrices: the full region
    matmul, one impulse train per clock phase (falling half a cycle
    late) and a linear convolution with the EMF kernel, truncated to
    the trace.  Shares no code with :func:`emf_rfft`."""
    config = record.config
    q = charge_per_toggle(config.vdd, MEAN_SWITCH_CAP)
    kernel = emf_kernel(config)
    n = config.n_samples
    emf = np.zeros((coupling.n_receivers, n))
    phases = ((record.main + record.trojan_rising, 0), (record.trojan, config.oversample // 2))
    for toggles, offset in phases:
        charge = coupling.matrix @ (toggles * q)
        charge += np.outer(coupling.bond_row, toggles.sum(axis=0) * q)
        positions = np.arange(config.n_cycles) * config.oversample + offset
        train = np.zeros_like(emf)
        train[:, positions[positions < n]] = charge[:, : np.count_nonzero(positions < n)]
        emf += np.array([np.convolve(row, kernel)[:n] for row in train])
    return emf


def test_emf_rfft_matches_time_domain(psa, records):
    """The spectral EMF equals the linear-convolution reference away
    from the (deliberate) one-kernel circular wrap at the trace head,
    for rising-phase (T4) and falling-phase (T1) Trojan activity."""
    for scenario in ("T1", "T4"):
        record = records[scenario][0]
        config = record.config
        spectral = np.fft.irfft(
            emf_rfft(psa.coupling, record), n=config.n_samples, axis=-1
        )
        reference = _reference_emf(psa.coupling, record)
        scale = np.abs(reference).max()
        wrap = 2 * config.oversample
        assert (
            np.abs(spectral[:, wrap:] - reference[:, wrap:]).max() < 1e-9 * scale
        )


def test_white_noise_spectrum_is_white_gaussian():
    """The engine's frequency-domain noise draw is white Gaussian time noise."""
    n, rms = 4096, 2.5e-3
    rng = stream(1234, "whiteness")
    scales = white_noise_scales(n, rms)
    spec = np.empty(n // 2 + 1, dtype=complex)
    realizations = np.empty((64, n))
    for index in range(64):
        fill_white_noise_rfft(spec, rng.standard_normal(n), *scales)
        realizations[index] = np.fft.irfft(spec, n=n)
    measured = realizations.std()
    assert measured == pytest.approx(rms, rel=0.02)
    # Spectrally flat: band powers agree within sampling tolerance.
    power = np.abs(np.fft.rfft(realizations, axis=-1)) ** 2
    body = power[:, 1:-1]
    usable = body.shape[1] - body.shape[1] % 4
    bands = body[:, :usable].reshape(64, 4, -1).mean(axis=(0, 2))
    assert bands.max() / bands.min() < 1.1


# -- column renders ------------------------------------------------------------

#: rFFT columns with the DC and Nyquist bins, an ambient-tone line
#: (30 MHz is bin 480 of an 8448-sample window at 528 MHz) and the
#: 48 MHz sideband region.
COLUMNS = np.array([0, 3, 480, 767, 768, 769, 4224])


def _full_columns(batch, columns):
    return np.fft.rfft(batch.samples, axis=-1)[..., columns]


def test_column_render_is_the_full_spectrum_at_its_columns(psa, records):
    """A column render holds the rFFT of the full render at its
    columns, up to the rounding of the irFFT -> rFFT round trip, for
    falling-phase (T1) and rising-phase (T4) Trojan activity."""
    recs = records["T1"] + records["T4"]
    full = psa.render(recs, trace_indices=[3, 4, 5, 6])
    tapped = psa.render(recs, trace_indices=[3, 4, 5, 6], columns=COLUMNS)
    assert tapped.samples is None
    assert np.array_equal(tapped.spectra.columns, COLUMNS)
    assert tapped.spectra.n_samples == full.n_samples
    assert (tapped.n_receivers, tapped.n_traces) == (full.n_receivers, full.n_traces)
    reference = _full_columns(full, COLUMNS)
    scale = np.abs(reference).max()
    assert np.abs(tapped.spectra.values - reference).max() < 1e-12 * scale
    with pytest.raises(MeasurementError):
        tapped.trace(0, 0)


def test_column_render_of_stacks_and_jittered_probes(chip, psa, records):
    """Coupling stacks and gain-jittered probes render columns too."""
    from repro.baselines.common import ReceiverBench
    from repro.em.probes import langer_lf1_probe

    bench = ReceiverBench(chip, langer_lf1_probe())
    coils = [quadrant_coil(10, "nw"), quadrant_coil(10, "se")]
    for engine, coupling in (
        (bench.engine, bench.coupling),
        (psa.engine, CouplingStack([psa._coupling_for(coil) for coil in coils])),
    ):
        full = engine.render(coupling, records["T2"] * 2, trace_indices=[0, 1, 2, 3])
        tapped = engine.render(
            coupling, records["T2"] * 2, trace_indices=[0, 1, 2, 3], columns=COLUMNS
        )
        reference = _full_columns(full, COLUMNS)
        scale = np.abs(reference).max()
        assert np.abs(tapped.spectra.values - reference).max() < 1e-12 * scale


@pytest.mark.parametrize("columns", [[], [5, 5], [9, 4], [-1], [4225]])
def test_column_render_rejects_bad_columns(psa, records, columns):
    with pytest.raises(MeasurementError, match="columns"):
        psa.render(records["T1"], columns=columns)


def test_white_noise_columns_lay_out_the_full_fill():
    """The column layout takes the full fill's products, bit for bit."""
    from repro.em.noise import fill_white_noise_columns, white_noise_columns

    for n in (4096, 4097):
        n_bins = n // 2 + 1
        scales = white_noise_scales(n, 1.5e-3, bin_gain=np.linspace(0.5, 2.0, n_bins))
        z = stream(99, "columns").standard_normal(n)
        full = fill_white_noise_rfft(np.empty(n_bins, dtype=complex), z, *scales)
        columns = np.array([0, 1, 2, 700, n_bins - 2, n_bins - 1])
        out = np.empty(columns.size, dtype=complex)
        fill_white_noise_columns(out, z, white_noise_columns(n, columns, *scales))
        assert out.real.tobytes() == full.real[columns].tobytes()
        assert np.array_equal(out.imag, full.imag[columns])


# -- the prefix draw -------------------------------------------------------------

#: Sideband columns of the soak sensors' 48 MHz region, a later
#: column (a longer normal prefix), the Nyquist bin (read from the
#: stream's head) and the 88 MHz ambient-tone line (a full draw).
PREFIX_COLUMNS = ([764], [764, 1348], [764, 4224], [764, 1408])


def _assert_full_columns(tapped, full, columns):
    """Each column equals the full render's rFFT there, to its own scale."""
    reference = _full_columns(full, columns)
    for k, column in enumerate(columns):
        scale = np.abs(reference[..., k]).max()
        error = np.abs(tapped.spectra.values[..., k] - reference[..., k]).max()
        assert error < 1e-9 * scale, f"column {column}"


def test_column_bytes_do_not_depend_on_the_other_columns(
    psa, records, monkeypatch
):
    """A column render draws each stream only as far as its columns
    read, and a normal depends only on the stream before it: column
    764's draws are the same bytes whatever is requested with it, and
    with the EMF in, the full render's spectrum there.

    The byte check zeroes the EMF synthesis, whose cycle-DFT matmul
    rounds differently at different column counts (a property of the
    BLAS kernels, not of the draws).
    """
    recs = records["T1"] + records["T4"]
    indices = [3, 4, 5, 6]
    alone = psa.render(recs, trace_indices=indices, columns=[764])
    _assert_full_columns(alone, psa.render(recs, trace_indices=indices), [764])
    monkeypatch.setattr(
        "repro.engine.engine.emf_rfft",
        lambda coupling, record, columns: np.zeros(
            (coupling.n_receivers, len(columns)), dtype=complex
        ),
    )
    draws = [
        psa.render(recs, trace_indices=indices, columns=columns).spectra.values
        for columns in PREFIX_COLUMNS
    ]
    for columns, values in zip(PREFIX_COLUMNS[1:], draws[1:]):
        assert values[..., 0].tobytes() == draws[0][..., 0].tobytes(), columns


@pytest.mark.parametrize("tone", [480, 1408])
def test_column_render_on_a_tone_line_draws_the_phases(psa, records, tone):
    """Columns holding an ambient-tone line (30 MHz is bin 480, 88 MHz
    bin 1408) draw the whole stream and every tone phase: the line and
    its neighbours match the full render."""
    recs = records["T2"] + records["T3"]
    columns = sorted([tone - 1, tone, tone + 1, 764])
    full = psa.render(recs, trace_indices=[7, 8, 9, 10])
    tapped = psa.render(recs, trace_indices=[7, 8, 9, 10], columns=columns)
    _assert_full_columns(tapped, full, columns)


@pytest.fixture(scope="module")
def off_grid():
    """A two-sensor array on 55-cycle windows: 88 and 100 MHz fall
    between rFFT bins, 30 MHz on bin 50."""
    from repro.chip.testchip import TestChip
    from repro.config import SimConfig
    from repro.em.noise import tone_bin
    from repro.workloads.campaign import MeasurementCampaign, StreamSegment

    config = SimConfig(n_cycles=55)
    assert [tone_bin(config.n_samples, config.fs, f) for f in (30e6, 88e6, 100e6)] == [
        50, None, None,
    ]
    chip = TestChip(bytes(range(16)), config)
    small = ProgrammableSensorArray(chip, n_sensors=2)
    campaign = MeasurementCampaign(chip, small)
    return small, campaign.stream_records([StreamSegment("T1", 2, 0)])


@pytest.mark.parametrize("columns", [[3, 147], [3, 50, 147]])
def test_column_render_with_an_off_grid_tone_draws_the_phases(off_grid, columns):
    """An off-grid tone spreads over every column, so its receiver
    draws the whole stream and every phase even when no on-grid line
    lands on the columns (bin 50 is left out of the first set)."""
    small, recs = off_grid
    full = small.render(recs, trace_indices=[1, 2])
    tapped = small.render(recs, trace_indices=[1, 2], columns=columns)
    _assert_full_columns(tapped, full, columns)
