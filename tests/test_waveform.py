import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uwbloc import waveform
from uwbloc.waveform import (
    SINC_HALF_WIDTH,
    GridMismatchError,
    Waveform,
    _fractional_delay_kernel,
    add_awgn,
    check_grid,
    delay,
    json_number,
    read_csv,
    waveform_from_csv,
    waveform_from_json,
    write_csv,
)

from conftest import waveform_to_csv, waveform_to_json
from oracles import cross_correlate, energy

DT = 50e-12


def bl_pulse(n=400, f0=1.5e9, bw=0.8e9, dt=DT, t_center=None):
    """Gaussian-windowed tone: band-limited, well inside Nyquist."""
    t = np.arange(n) * dt
    tc = t_center if t_center is not None else t[n // 2]
    sigma = 0.5 / bw
    return Waveform(np.cos(2 * np.pi * f0 * (t - tc)) * np.exp(-0.5 * ((t - tc) / sigma) ** 2), dt)


class TestWaveform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), DT)
        with pytest.raises(ValueError):
            Waveform(np.ones(4), -1.0)
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, np.inf]), DT)
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, np.nan]), DT)

    def test_times_and_duration(self):
        w = Waveform(np.ones(3), 2.0)
        assert np.array_equal(w.times, [0.0, 2.0, 4.0])

    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(Waveform)] == ["samples", "dt"]


class TestEnergy:
    def test_zero(self):
        assert energy(Waveform(np.zeros(10), DT)) == 0.0

    def test_single_sample(self):
        a = 3.7
        assert energy(Waveform(np.array([a]), DT)) == pytest.approx(a * a * DT)

    def test_designed_pulse_matches_set_energy(self, default_pulses):
        for p in default_pulses.pulses:
            assert energy(p) == pytest.approx(default_pulses.energy_es, rel=1e-9)


class TestCheckGrid:
    def test_mismatched_dt_raises(self):
        a = Waveform(np.ones(4), DT)
        b = Waveform(np.ones(4), 2 * DT)
        with pytest.raises(GridMismatchError):
            cross_correlate(a, b)
        with pytest.raises(GridMismatchError):
            check_grid(a, b)
        check_grid(a, Waveform(np.ones(2), DT * (1 + 1e-13)))  # rounding is the same grid


class TestDelay:
    def test_zero_identity(self):
        w = bl_pulse()
        d = delay(w, 0.0)
        assert np.array_equal(d.samples, w.samples)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            delay(bl_pulse(), -1e-12)

    def test_integer_shift_exact(self):
        w = bl_pulse()
        k = 17
        d = delay(w, k * DT)
        assert np.array_equal(d.samples[k : k + len(w)], w.samples)
        assert np.array_equal(d.samples[:k], np.zeros(k))

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 300), tau=st.floats(0.0, 800.0))
    @example(size=5, tau=17.0)
    @example(size=5, tau=17.0 + 5e-10)  # within 1e-9 of a whole sample: an exact shift
    @example(size=5, tau=17.0 - 5e-10)
    @example(size=5, tau=0.3)  # fewer whole samples than the interpolator's half-width
    @example(size=5, tau=40.7)
    def test_delayed_size_is_the_output_length(self, size, tau):
        # channel.propagate sizes its record by it before delaying
        w = Waveform(np.ones(size), DT)
        assert waveform._delayed_size(size, tau * DT, DT) == len(delay(w, tau * DT))

    def test_energy_preserved_for_band_limited(self):
        w = bl_pulse()
        for tau in [0.3 * DT, 0.5 * DT, 12.71 * DT]:
            assert energy(delay(w, tau)) == pytest.approx(energy(w), rel=0.01)

    @settings(max_examples=100, deadline=None)
    @given(sigma=st.floats(3.0, 6.0), a=st.floats(0.0, 8.0), b=st.floats(0.0, 8.0))
    def test_composition(self, sigma, a, b):
        # a Gaussian of sigma >= 3 samples is band-limited to well inside Nyquist,
        # where the interpolator is accurate; the worst case measured over 3000
        # random draws is 1.9e-5 of the peak
        n = np.arange(int(16 * sigma) + 1)
        w = Waveform(np.exp(-0.5 * ((n - n[-1] / 2) / sigma) ** 2), DT)
        twice = delay(delay(w, a * DT), b * DT).samples
        once = delay(w, (a + b) * DT).samples
        m = max(twice.size, once.size)
        diff = np.pad(twice, (0, m - twice.size)) - np.pad(once, (0, m - once.size))
        assert np.max(np.abs(diff)) <= 1e-4 * np.max(w.samples)

    def test_half_sample_delay_against_dense_reference(self):
        # oracle: the same pulse sampled 50x finer, shifted by an exact
        # integer number of fine samples (= 0.5 coarse samples)
        ratio = 50
        fine_dt = DT / ratio
        fine = bl_pulse(n=400 * ratio, dt=fine_dt)
        coarse = Waveform(fine.samples[::ratio].copy(), DT)
        shifted_fine = np.concatenate([np.zeros(ratio // 2), fine.samples])

        d = delay(coarse, 0.5 * DT)
        # locate the peak of the cross-correlation on the fine grid
        ref_on_coarse = shifted_fine[::ratio]
        m = min(d.samples.size, ref_on_coarse.size)
        err = d.samples[:m] - ref_on_coarse[:m]
        rel = np.sqrt(np.sum(err**2) / np.sum(ref_on_coarse[:m] ** 2))
        assert rel < 0.01

        lags, vals = cross_correlate(coarse, d)
        i = int(np.argmax(vals))
        y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
        vertex = lags[i] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * DT
        assert vertex == pytest.approx(0.5 * DT, abs=0.01 * DT)


def sinc_kernel_reference(frac):
    """The interpolation kernel through ``np.sinc``'s zero guard, with a window cut-off."""
    x = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1) - frac
    window = 0.5 * (1.0 + np.cos(np.pi * x / (SINC_HALF_WIDTH + 1)))
    window[np.abs(x) > SINC_HALF_WIDTH + 1] = 0.0
    return np.sinc(x) * window


class TestFractionalDelayKernel:
    @settings(max_examples=300, deadline=None)
    @given(frac=st.floats(1e-9, 1.0, exclude_max=True))
    @example(frac=1e-9)
    @example(frac=0.5)
    @example(frac=1.0 - 1e-9)
    @example(frac=float(np.nextafter(1.0, 0.0)))
    def test_equals_guarded_sinc(self, frac):
        # delay passes frac in [1e-9, 1): the guard and the cut-off never act
        assert np.array_equal(_fractional_delay_kernel(frac), sinc_kernel_reference(frac))

    @settings(max_examples=100, deadline=None)
    @given(tau=st.floats(0.0, 40.0))
    def test_every_fraction_delay_passes_is_in_range(self, tau):
        seen = []
        original = waveform._fractional_delay_kernel
        try:
            waveform._fractional_delay_kernel = lambda frac: seen.append(frac) or original(frac)
            delay(Waveform(np.ones(3), DT), tau * DT)
        finally:
            waveform._fractional_delay_kernel = original
        assert all(1e-9 <= frac < 1.0 for frac in seen)


def awgn_oracle(w, snr_db, seed):
    """Reference noise formula: the record's own power, noise from ``rng.normal``."""
    power = float(np.mean(w.samples**2))
    sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    return w.samples + np.random.default_rng(seed).normal(0.0, sigma, size=w.samples.size)


class TestAwgn:
    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400),
           snr_db=st.floats(-30.0, 80.0), seed=st.integers(0, 2**64 - 1))
    def test_matches_normal_draw_oracle(self, samples, snr_db, seed):
        w = Waveform(np.array(samples), DT)
        assume(np.mean(w.samples**2) > 0.0)
        assert np.array_equal(add_awgn(w, snr_db, seed).samples, awgn_oracle(w, snr_db, seed))

    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=400),
           cut=st.floats(0.0, 1.0), snr_db=st.floats(-30.0, 80.0),
           seed=st.integers(0, 2**64 - 1))
    def test_prefix_at_record_power_is_prefix_of_noised_record(self, samples, cut, snr_db, seed):
        w = Waveform(np.array(samples), DT)
        power = float(np.mean(w.samples**2))
        assume(power > 0.0)
        k = 1 + int(cut * (len(w) - 1))
        head = add_awgn(Waveform(w.samples[:k], DT), snr_db, seed, power=power)
        assert np.array_equal(head.samples, add_awgn(w, snr_db, seed).samples[:k])

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_invalid_power_rejected(self, power, snr_db):
        with pytest.raises(ValueError, match="power"):
            add_awgn(bl_pulse(), snr_db, seed=0, power=power)

    def test_infinite_snr_identity(self):
        w = bl_pulse()
        out = add_awgn(w, math.inf, seed=0)
        assert np.array_equal(out.samples, w.samples)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(Waveform(np.zeros(8), DT), 10.0, seed=0)

    def test_non_numeric_snr_rejected(self):
        for snr in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="snr_db"):
                add_awgn(bl_pulse(), snr, seed=0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_snr_past_the_noise_scaling_rejected(self, snr_db):
        # 10^(snr/10) leaves the float range: once an OverflowError or a ZeroDivisionError
        with pytest.raises(ValueError, match="snr_db"):
            add_awgn(bl_pulse(), snr_db, seed=0)

    def test_empirical_snr(self):
        n = 200_000
        rng = np.random.default_rng(5)
        w = Waveform(rng.normal(size=n), DT)
        noisy = add_awgn(w, 0.0, seed=7)
        noise = noisy.samples - w.samples
        snr_db = 10 * np.log10(np.mean(w.samples**2) / np.mean(noise**2))
        assert abs(snr_db) <= 0.5

    def test_deterministic(self):
        w = bl_pulse()
        a = add_awgn(w, 20.0, seed=99)
        b = add_awgn(w, 20.0, seed=99)
        assert np.array_equal(a.samples, b.samples)
        c = add_awgn(w, 20.0, seed=100)
        assert not np.array_equal(a.samples, c.samples)


class TestCrossCorrelate:
    def test_autocorrelation_peak_at_zero(self):
        w = bl_pulse()
        lags, vals = cross_correlate(w, w)
        assert lags[int(np.argmax(vals))] == pytest.approx(0.0, abs=1e-15)

    def test_shift_theorem(self):
        w = bl_pulse()
        d = delay(w, 10 * DT)
        lags, vals = cross_correlate(w, d)
        assert lags[int(np.argmax(vals))] == pytest.approx(10 * DT, rel=1e-9)

    def test_lags_span_both_supports(self):
        a, b = Waveform(np.ones(3), DT), Waveform(np.ones(5), DT)
        lags, vals = cross_correlate(a, b)
        assert np.allclose(lags / DT, np.arange(-2, 5), rtol=0.0, atol=1e-9)
        assert np.allclose(vals / DT, [1, 2, 3, 3, 3, 2, 1])

    def test_noisy_peak_within_one_sample(self):
        w = bl_pulse()
        true_lag = 37 * DT
        d = delay(w, true_lag)
        hits = 0
        for seed in range(100):
            a = add_awgn(w, 30.0, seed=2 * seed)
            b = add_awgn(d, 30.0, seed=2 * seed + 1)
            lags, vals = cross_correlate(a, b)
            if abs(lags[int(np.argmax(vals))] - true_lag) <= DT * (1 + 1e-12):
                hits += 1
        assert hits == 100


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        w = bl_pulse(n=64)
        path = tmp_path / "w.csv"
        waveform_to_csv(w, path)
        back = waveform_from_csv(read_csv(path))
        assert back.dt == pytest.approx(w.dt, rel=1e-9)
        assert np.allclose(back.samples, w.samples, atol=1e-11)

    def test_csv_time_column_offset_is_ignored(self, tmp_path):
        # a file whose time column starts at 5 ns: only its spacing is read
        w = bl_pulse(n=64)
        path = tmp_path / "w.csv"
        write_csv(path, ["t", "amplitude"], zip(5e-9 + w.times, w.samples), digits=12)
        back = waveform_from_csv(read_csv(path))
        plain = tmp_path / "plain.csv"
        waveform_to_csv(w, plain)
        ref = waveform_from_csv(read_csv(plain))
        assert np.array_equal(back.samples, ref.samples)
        assert back.dt == pytest.approx(ref.dt, rel=1e-9)

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["n", "x"], [(3, 1.0 / 3.0), (4, np.float64(-2.5))])
        assert path.read_bytes() == b"n,x\r\n3,3.333333333e-01\r\n4,-2.500000000e+00\r\n"
        write_csv(path, ["x"], [(1.0 / 3.0,)], digits=12)
        assert path.read_text().splitlines() == ["x", "3.333333333333e-01"]

    def test_json_round_trip(self, tmp_path):
        w = Waveform(np.array([0.5, -1.25, 2.0]), DT)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(waveform_to_json(w)))
        assert set(json.loads(path.read_text())) == {"dt", "samples"}
        back = waveform_from_json(json.loads(path.read_text()))
        assert back.dt == w.dt
        assert np.array_equal(back.samples, w.samples)

    def test_json_number(self):
        # a number read into a float is a float; an integer field keeps its int
        assert type(json_number(3, "x")) is float and json_number(3, "x") == 3.0
        assert type(json_number(3, "n", integer=True)) is int
        for bad, integer in [("3", False), (True, False), (None, False), (4.9, True)]:
            with pytest.raises(ValueError, match="x must be"):
                json_number(bad, "x", integer)
        with pytest.raises(ValueError, match="x must be a number"):  # beyond the float range
            json_number(10 ** 400, "x")
        assert json_number(10 ** 400, "n", integer=True) == 10 ** 400

    def test_json_with_start_epoch_loads(self):
        # files written before waveforms started at t = 0 carry a "t0" key
        back = waveform_from_json({"dt": DT, "t0": 1e-9, "samples": [0.5, -1.25, 2.0]})
        assert back.dt == DT
        assert np.array_equal(back.samples, [0.5, -1.25, 2.0])
