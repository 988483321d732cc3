import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwbloc

from uwbloc.channel import SPEED_OF_LIGHT, ChannelProfile, propagate, sample_cir
from uwbloc.ranging import (
    _bank_align,
    _calibration,
    _dirty_template_objective,
    _notch_position,
    _reference_notch,
    _slice_correlations,
    TDT_TRAINING_PATTERN,
    ToaEstimate,
    calibration_samples,
    make_burst,
    range_from_toa,
    read_window,
    toa_dirty_template,
)
from uwbloc.waveform import Waveform, add_awgn, delay

from oracles import energy, template_median_offset

DT = 50e-12
TSYM = 50e-9
SYMBOLS = 20


@pytest.fixture(scope="module")
def pulse(default_pulses):
    return default_pulses.pulses[0]


def received(pulse, delay_s, seed=0, snr_db=float("inf"), channel=None, symbols=SYMBOLS):
    burst = make_burst(pulse, TSYM, symbols)
    if delay_s == 0.0:  # propagate takes positive distances only: the burst as sent
        rx = burst
    else:
        cir = sample_cir(channel or ChannelProfile(tap_count_min=1, tap_count_max=1), seed)
        rx = propagate(burst, delay_s * SPEED_OF_LIGHT, cir)
    need = (symbols + 1) * round(TSYM / pulse.dt)
    if rx.samples.size < need:
        rx = Waveform(np.concatenate([rx.samples, np.zeros(need - rx.samples.size)]), rx.dt)
    return add_awgn(rx, snr_db, seed)


class TestMakeBurst:
    def test_two_symbols_spacing(self, pulse):
        burst = make_burst(pulse, TSYM, 2)
        n = round(TSYM / DT)
        assert np.array_equal(burst.samples[: len(pulse)], pulse.samples)
        assert np.array_equal(burst.samples[n : n + len(pulse)], pulse.samples)

    def test_energy_scales_with_symbols(self, pulse):
        burst = make_burst(pulse, TSYM, SYMBOLS)
        assert energy(burst) == pytest.approx(SYMBOLS * energy(pulse), rel=1e-12)

    def test_pattern_signs(self, pulse):
        burst = make_burst(pulse, TSYM, 6)
        n = round(TSYM / DT)
        for k in range(6):
            sign = TDT_TRAINING_PATTERN[k % 4]
            assert np.array_equal(burst.samples[k * n : k * n + len(pulse)], sign * pulse.samples)

    def test_single_symbol_rejected(self, pulse):
        with pytest.raises(ValueError):
            make_burst(pulse, TSYM, 1)

    @settings(max_examples=150, deadline=None)
    @given(samples=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
                            min_size=1, max_size=40),
           spare=st.integers(-39, 30), symbol_count=st.integers(2, 30),
           extra=st.none() | st.integers(-80, 80))
    def test_equals_one_placement_per_symbol(self, samples, spare, symbol_count, extra):
        # every sample, signed zeros included, is what one += per symbol writes;
        # a negative spare makes the pulse longer than a symbol, so copies overlap.
        # A length is the whole burst's plus extra: cut below it, padded above it
        pulse = Waveform(np.asarray(samples), DT)
        n = max(1, len(samples) + spare)
        loop = make_burst_reference(pulse, n, symbol_count)
        if extra is None:
            burst = make_burst(pulse, n * DT, symbol_count).samples
        else:
            length = max(1, loop.size + extra)
            burst = make_burst(pulse, n * DT, symbol_count, length).samples
            loop = np.concatenate([loop[:length], np.zeros(length - min(length, loop.size))])
        assert np.array_equal(burst, loop)
        assert np.array_equal(np.signbit(burst), np.signbit(loop))

    @pytest.mark.parametrize("length", [0, -3])
    def test_empty_length_rejected(self, pulse, length):
        with pytest.raises(ValueError, match="length"):
            make_burst(pulse, TSYM, SYMBOLS, length)


class TestToaDirtyTemplate:
    def test_noiseless_ten_ns(self, pulse):
        rx = received(pulse, 10e-9)
        est = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        assert abs(est.toa - 10e-9) <= DT

    def test_zero_delay(self, pulse):
        burst = make_burst(pulse, TSYM, SYMBOLS)
        need = (SYMBOLS + 1) * round(TSYM / DT)
        rx = Waveform(np.concatenate([burst.samples, np.zeros(need - burst.samples.size)]), DT)
        est = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        err = min(est.toa, TSYM - est.toa)  # zero wraps the ambiguity window
        assert err <= DT

    def test_fractional_delay_subsample(self, pulse):
        true = 13.738e-9
        rx = received(pulse, true)
        est = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        assert abs(est.toa - true) <= 0.1 * DT

    def test_estimate_in_window(self, pulse):
        est = toa_dirty_template(received(pulse, 23e-9, snr_db=10, seed=4), TSYM, SYMBOLS,
                                 template=pulse)
        assert 0.0 <= est.toa < TSYM
        assert isinstance(est, ToaEstimate)
        assert est.objective_peak > 0

    @settings(max_examples=50, deadline=None)
    @given(delay_samples=st.floats(0.01, 1500.0), seed=st.integers(0, 2**16))
    def test_estimate_never_negative(self, pulse, delay_samples, seed):
        # bursts leave at t = 0, so every estimate is a flight time within one
        # symbol (n samples of the grid) and c * toa is never a negative range
        rx = received(pulse, delay_samples * DT, seed, snr_db=10.0, channel=ChannelProfile())
        est = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        assert 0.0 <= est.toa <= round(TSYM / DT) * DT
        assert range_from_toa(est) >= 0.0

    def test_shift_equivariance(self, pulse):
        rx = received(pulse, 10e-9)
        est0 = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        k = 120
        shifted = Waveform(np.concatenate([np.zeros(k), rx.samples]), DT)
        est1 = toa_dirty_template(shifted, TSYM, SYMBOLS, template=pulse)
        delta = (est1.toa - est0.toa) % TSYM
        assert delta == pytest.approx(k * DT, abs=1e-15)

    def test_amplitude_invariance(self, pulse):
        rx = received(pulse, 17e-9, snr_db=20.0, seed=8)
        est1 = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        est2 = toa_dirty_template(Waveform(rx.samples * 7.3, DT), TSYM, SYMBOLS,
                                  template=pulse)
        assert est1.toa == pytest.approx(est2.toa, abs=1e-15)

    def test_multipath_noiseless(self, pulse):
        rx = received(pulse, 15e-9, channel=ChannelProfile(), seed=3)
        est = toa_dirty_template(rx, TSYM, SYMBOLS, template=pulse)
        assert abs(est.toa - 15e-9) <= DT

    def test_too_few_symbols(self, pulse):
        rx = received(pulse, 10e-9)
        with pytest.raises(ValueError):
            toa_dirty_template(rx, TSYM, 1, template=pulse)

    def test_insufficient_coverage(self, pulse):
        short = Waveform(np.ones(5 * round(TSYM / DT)), DT)
        with pytest.raises(ValueError):
            toa_dirty_template(short, TSYM, SYMBOLS, template=pulse)

    def test_symbol_shorter_than_calibration_template(self, pulse):
        # the phase-shifted template is the pulse plus the interpolator's half-width;
        # the first pass would run, then the calibration burst could not be built
        assert calibration_samples(pulse) == len(delay(pulse, 0.37 * DT)) == len(pulse) + 32
        for n in (len(pulse), 40, calibration_samples(pulse) - 1):
            rx = Waveform(np.ones(read_window(n * DT, DT, 4)), DT)
            with pytest.raises(ValueError, match=f"{calibration_samples(pulse)}-sample"):
                toa_dirty_template(rx, n * DT, 4, template=pulse)
        n = calibration_samples(pulse)
        burst = make_burst(delay(pulse, 0.37 * DT), n * DT, 4).samples
        rx = Waveform(np.concatenate([burst, np.zeros(n - 1)]), DT)
        assert 0.0 <= toa_dirty_template(rx, n * DT, 4, template=pulse).toa < n * DT

    def test_no_signal(self, pulse):
        flat = Waveform(np.ones((SYMBOLS + 1) * round(TSYM / DT)), DT)
        with pytest.raises(ValueError):
            toa_dirty_template(flat, TSYM, SYMBOLS, template=pulse)

    def test_overflowing_record_has_no_usable_signal(self, pulse):
        # products past the float range make the objective NaN, so no offset
        # falls below its threshold: a ValueError, which run_trial records
        big = 1e200 * np.random.default_rng(0).standard_normal((SYMBOLS + 1) * round(TSYM / DT))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="no usable signal"):
            toa_dirty_template(Waveform(big, DT), TSYM, SYMBOLS, template=pulse)

    def test_objective_minimum_sits_at_template_median(self, pulse):
        # the cancellation notch bottoms out where the slice boundary splits
        # the pulse energy in half: verifies the objective geometry directly
        from uwbloc.ranging import _dirty_template_objective, _slice_correlations

        true = 10e-9  # integer-sample delay
        rx = received(pulse, true)
        n = round(TSYM / DT)
        g = _slice_correlations(rx.samples, n)
        obj = _dirty_template_objective(g, n, SYMBOLS)
        t_med = template_median_offset(pulse)
        assert int(np.argmin(obj)) * DT == pytest.approx(true + t_med, abs=1.0 * DT)

    def test_estimate_independent_of_earlier_nearby_phase(self, pulse, tmp_path):
        # two arrivals 4e-7 samples apart: their sub-sample phases agree to
        # six decimals, so a phase-keyed calibration cache would be shared
        first = received(pulse, 137.3712345 * DT)
        second = received(pulse, 137.3712349 * DT)
        np.save(tmp_path / "rx.npy", second.samples)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from uwbloc.ranging import toa_dirty_template\n"
            "from uwbloc.simulate import load_default_pulse_set\n"
            "from uwbloc.waveform import Waveform\n"
            f"rx = Waveform(np.load(sys.argv[1]), {DT!r})\n"
            "pulse = load_default_pulse_set().pulses[0]\n"
            f"print(repr(toa_dirty_template(rx, {TSYM!r}, {SYMBOLS}, template=pulse).toa))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(uwbloc.__file__))}
        fresh = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "rx.npy")],
            capture_output=True, text=True, check=True, env=env, timeout=120)
        toa_dirty_template(first, TSYM, SYMBOLS, template=pulse)
        after_first = toa_dirty_template(second, TSYM, SYMBOLS, template=pulse)
        assert repr(after_first.toa) == fresh.stdout.strip()


    def test_reads_no_sample_past_its_window(self, pulse):
        # the objective and the sign fold read the first (symbols + 1) * n - 1
        # samples of the record: whatever follows them cannot move the estimate
        rx = received(pulse, 13.7e-9, seed=2, snr_db=20.0)
        assert read_window(TSYM, DT, SYMBOLS) == (SYMBOLS + 1) * round(TSYM / DT) - 1
        window = rx.samples[: read_window(TSYM, DT, SYMBOLS)]
        garbage = 1e12 * np.random.default_rng(0).standard_normal(3000)
        ests = [toa_dirty_template(Waveform(samples, DT), TSYM, SYMBOLS, template=pulse)
                for samples in (rx.samples, window, np.concatenate([window, garbage]))]
        assert ests[0] == ests[1] == ests[2]
        with pytest.raises(ValueError, match="cover"):
            toa_dirty_template(Waveform(window[:-1], DT), TSYM, SYMBOLS, template=pulse)

    def test_interleaved_calibrations_match_each_alone(self, default_pulses):
        # one calibration per (pulse, dt), whatever the symbol count: estimates
        # for two pulses at 2 and 20 symbols never share one,
        # and build exactly two
        cases = [(p, m) for p in default_pulses.pulses[:2] for m in (2, SYMBOLS)]
        rxs = [received(p, 13.7e-9, seed=5, snr_db=20.0, symbols=m) for p, m in cases]

        def estimate(i):
            (p, m), rx = cases[i], rxs[i]
            est = toa_dirty_template(rx, TSYM, m, template=p)
            return est.toa, est.objective_peak

        alone = []
        for i in range(len(cases)):
            _calibration.cache_clear()
            alone.append(estimate(i))
        _calibration.cache_clear()
        for i in (0, 3, 1, 2, 3, 0, 2, 1):
            assert estimate(i) == alone[i]
        assert _calibration.cache_info().misses == 2


def bank_align_reference(deriv, bank, rel):
    """``_bank_align`` scored phase by phase with ``np.correlate``: the exact oracle."""
    nb = bank.shape[0]
    scores = np.stack([np.correlate(deriv, bank[i], mode="valid") for i in range(nb)])
    pi, lag = divmod(int(np.argmax(scores)), scores.shape[1])

    def score_at(phase_idx, lag_idx):
        q, r = divmod(phase_idx, nb)
        j = lag_idx + q
        return float(scores[r, j]) if 0 <= j < scores.shape[1] else -np.inf

    y0, y1, y2 = score_at(pi - 1, lag), score_at(pi, lag), score_at(pi + 1, lag)
    frac = 0.0
    denom = y0 - 2.0 * y1 + y2
    if np.isfinite(y0) and np.isfinite(y2) and denom < 0.0:
        frac = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return float(rel[lag]) + (pi + frac) / nb


def make_burst_reference(pulse, n, symbol_count):
    """``make_burst``'s samples overlap-added with one += per symbol: its oracle."""
    out = np.zeros((symbol_count - 1) * n + max(n, pulse.samples.size))
    p = pulse.samples
    for k in range(symbol_count):
        out[k * n : k * n + p.size] += TDT_TRAINING_PATTERN[k % 4] * p
    return out


def coarse_notch_reference(obj, n):
    """(peak, falling edge) of the objective, found on a ring gathered from the argmax."""
    peak = float(np.max(obj))
    floor = float(np.min(obj))
    if peak <= 0.0 or peak == floor:
        raise ValueError("objective carries no timing structure; no usable signal")
    thr = peak - 0.5 * (peak - floor)
    start = int(np.argmax(obj))
    ring = obj[(start + np.arange(n)) % n]
    return peak, int((start + np.nonzero(ring < thr)[0][0]) % n)


def notch_position_reference(r, n, symbol_count, bank):
    """``_notch_position`` with a modular ring gather and a fancy-index fold: the oracle."""
    pair_count = symbol_count - 1
    g = _slice_correlations(r, n)
    obj = _dirty_template_objective(g, n, symbol_count)
    peak, notch = coarse_notch_reference(obj, n)
    width = bank.shape[1]
    signs = (-1.0) ** np.arange(pair_count)
    rel = np.arange(-width - 8, width + 9)
    idx = (notch + rel) % n
    folded = signs @ g[idx[None, :] + n * np.arange(pair_count)[:, None]]
    deriv = folded[:-1] - folded[1:]
    return float(notch) + bank_align_reference(deriv, bank, rel), peak


def reference_notch_reference(pulse, bank, n):
    """``_reference_notch`` on a looped burst with its silent symbol concatenated: the oracle."""
    ref = np.concatenate([make_burst_reference(pulse, n, 4), np.zeros(n)])
    return notch_position_reference(ref, n, 4, bank)[0]


def toa_reference(rx, symbol_duration, symbol_count, template):
    """``toa_dirty_template`` composed of the oracles above."""
    n = round(symbol_duration / rx.dt)
    bank = calibration_of(template)[0]
    r = rx.samples[: read_window(symbol_duration, rx.dt, symbol_count)]
    notch, peak = notch_position_reference(r, n, symbol_count, bank)
    phase = (notch - reference_notch_reference(template, bank, n)) % 1.0
    shifted = delay(template, phase * template.dt)
    offset = (notch - reference_notch_reference(shifted, bank, n) + phase) % n
    return ToaEstimate(toa=offset * rx.dt, objective_peak=peak * rx.dt * rx.dt)


def calibration_of(pulse):
    """The pulse's cached (phase bank, fold lag grid, zero-phase notch)."""
    return _calibration(pulse.samples.tobytes(), pulse.dt)


def same_outcome(fn, oracle, *args):
    """``fn(*args)`` equals ``oracle(*args)`` with ``==``, or both raise ``ValueError``."""
    try:
        expected = oracle(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fn(*args)
        return
    assert fn(*args) == expected


def periodic_arrival(pulse, d, symbols, n=round(TSYM / DT)):
    """A pattern-signed record of period n: the pulse over a faint floor, symbols from d.

    The floor fills every sample, so the objective has one strict maximum, at
    offset d, where slice boundaries meet the sign changes; its falling edge
    lies inside the pulse, a few samples after d (modulo n).
    """
    shape = np.full(n, 1e-3 * np.max(np.abs(pulse.samples)))
    shape[: len(pulse)] += pulse.samples
    t = np.arange(read_window(TSYM, DT, symbols))
    signs = np.asarray(TDT_TRAINING_PATTERN)[((t - d) // n) % 4]
    return signs * shape[(t - d) % n]


class TestNotchSearch:
    """The coarse search, sign fold and calibration burst equal the oracles to the bit."""

    @settings(max_examples=100, deadline=None)
    @given(pulse_index=st.integers(0, 3), delay_frac=st.floats(0.0, 1.0, exclude_max=True),
           snr_db=st.floats(-5.0, 60.0) | st.just(float("inf")),
           symbols=st.sampled_from([2, 3, 4, 20]), seed=st.integers(0, 2**32 - 1),
           multipath=st.booleans())
    # notches within the fold's reach of offset 0 and of offset n
    @example(pulse_index=0, delay_frac=0.0, snr_db=float("inf"), symbols=20, seed=0,
             multipath=False)
    @example(pulse_index=1, delay_frac=0.9812, snr_db=30.0, symbols=4, seed=1, multipath=False)
    # argmax at offset 998, falling edge at 8: the coarse search wraps
    @example(pulse_index=0, delay_frac=0.9969, snr_db=10.0, symbols=20, seed=144,
             multipath=True)
    def test_drawn_arrivals(self, default_pulses, pulse_index, delay_frac, snr_db, symbols,
                            seed, multipath):
        pulse = default_pulses.pulses[pulse_index]
        channel = ChannelProfile() if multipath else None
        rx = received(pulse, delay_frac * TSYM, seed, snr_db, channel, symbols)
        n = round(TSYM / DT)
        bank, rel, _ = calibration_of(pulse)
        r = rx.samples[: read_window(TSYM, DT, symbols)]
        same_outcome(lambda: _notch_position(r, n, symbols, bank, rel),
                     lambda: notch_position_reference(r, n, symbols, bank))
        # the calibration burst has symbols of rel.size samples, the oracle's
        # the caller's n
        shifted = delay(pulse, delay_frac * pulse.dt)
        same_outcome(lambda: _reference_notch(shifted, bank, rel),
                     lambda: reference_notch_reference(shifted, bank, n))
        same_outcome(toa_dirty_template, toa_reference, rx, TSYM, symbols, pulse)

    @pytest.mark.parametrize("pulse_index", range(4))
    @pytest.mark.parametrize("d, wraps", [
        (999, "search"),  # argmax in the last offsets, falling edge past offset n - 1
        (997, "search"),
        (995, "search"),
        (960, "fold past n"),  # notch within width + 8 of n
        (930, "fold past n"),
        (0, "fold below 0"),  # notch within width + 8 of 0
        (40, "fold below 0"),
    ])
    def test_constructed_wraps(self, default_pulses, pulse_index, d, wraps):
        pulse = default_pulses.pulses[pulse_index]
        bank, rel, _ = calibration_of(pulse)
        n, reach = round(TSYM / DT), bank.shape[1] + 8
        for symbols in (2, 4, SYMBOLS):
            r = periodic_arrival(pulse, d, symbols)
            obj = _dirty_template_objective(_slice_correlations(r, n), n, symbols)
            notch = coarse_notch_reference(obj, n)[1]
            assert int(np.argmax(obj)) == d
            assert {"search": notch < d, "fold past n": notch + reach >= n,
                    "fold below 0": notch < reach}[wraps]
            assert _notch_position(r, n, symbols, bank, rel) == notch_position_reference(
                r, n, symbols, bank)
        # a calibration-style burst whose notch wraps the same way: a looped
        # burst of n-sample symbols plus a silent one
        shifted = Waveform(np.concatenate([np.zeros(d), pulse.samples]), DT)
        if len(shifted) <= n:
            ref = np.concatenate([make_burst_reference(shifted, n, 4), np.zeros(n)])
            assert _notch_position(ref, n, 4, bank, rel) == notch_position_reference(
                ref, n, 4, bank)
        if len(shifted) <= rel.size:  # it fits a calibration symbol too
            assert (_reference_notch(shifted, bank, rel)
                    == reference_notch_reference(shifted, bank, n))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pulse_index=st.integers(0, 3),
           phase=st.floats(0.0, 1.0, exclude_max=True))
    def test_calibration_record_length_is_immaterial(self, default_pulses, data, pulse_index,
                                                     phase):
        # the fixed rel.size-sample calibration symbol gives the notch that
        # any symbol of n >= rel.size samples gives, to the bit
        pulse = default_pulses.pulses[pulse_index]
        bank, rel, zero_phase = calibration_of(pulse)
        n = data.draw(st.integers(rel.size, 5000), label="n")
        shifted = delay(pulse, phase * pulse.dt)
        assert (_reference_notch(shifted, bank, rel)
                == reference_notch_reference(shifted, bank, n))
        assert zero_phase == reference_notch_reference(pulse, bank, n)


class TestBankAlign:
    """The one-product scoring equals per-phase ``np.correlate`` to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), pulse_index=st.integers(0, 3), exponent=st.integers(-40, 40))
    def test_drawn_traces(self, default_pulses, data, pulse_index, exponent):
        bank, rel, _ = calibration_of(default_pulses.pulses[pulse_index])
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rel.size - 1,
                                    max_size=rel.size - 1))
        deriv = np.asarray(values) * 10.0**exponent
        assert _bank_align(deriv, bank, rel) == bank_align_reference(deriv, bank, rel)

    @pytest.mark.parametrize("pulse_index", range(4))
    def test_constructed_near_ties(self, default_pulses, pulse_index):
        # a bank row placed at a lag ties its neighbours' scores to rounding;
        # the mean of two adjacent rows ties the two phases themselves
        bank, rel, _ = calibration_of(default_pulses.pulses[pulse_index])
        nb, width = bank.shape
        lags = rel.size - width
        rng = np.random.default_rng(pulse_index)
        for i in range(nb):
            for shape in (bank[i], 0.5 * (bank[i] + bank[(i + 1) % nb])):
                for lag in (0, int(rng.integers(1, lags - 1)), lags - 1):
                    for noise in (0.0, 1e-17, 1e-13):
                        deriv = noise * rng.standard_normal(rel.size - 1)
                        deriv[lag : lag + width] += shape
                        assert (_bank_align(deriv, bank, rel)
                                == bank_align_reference(deriv, bank, rel))


class TestRangeFromToa:
    def test_ten_ns(self):
        est = ToaEstimate(toa=10e-9, objective_peak=1.0)
        assert range_from_toa(est) == pytest.approx(2.99792458, rel=1e-12)

    def test_zero(self):
        est = ToaEstimate(toa=0.0, objective_peak=1.0)
        assert range_from_toa(est) == 0.0

    def test_linearity_of_error(self):
        base = ToaEstimate(toa=10e-9, objective_peak=1.0)
        off = ToaEstimate(toa=10.1e-9, objective_peak=1.0)
        delta = range_from_toa(off) - range_from_toa(base)
        assert delta == pytest.approx(0.0299792458, rel=1e-9)
