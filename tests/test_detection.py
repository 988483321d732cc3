import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwbloc.channel import (
    MATERIAL_KINDS,
    MaterialSignature,
    _fast_len,
    _filtered,
    apply_signature,
    material_response,
)
from uwbloc.detection import (
    ARTIFICIAL_FLOOR_DB,
    BAND_DROP_DB,
    NOISE_FLOOR_REL_DB,
    DetectionThresholds,
    _tx_reference,
    _unwrap_angle,
    classify,
    estimate_transfer,
    mean_attenuation,
    phase_nonlinearity,
)
from uwbloc.waveform import Waveform, add_awgn, delay

from conftest import MATERIAL_LABELS

DT = 50e-12


@pytest.fixture(scope="module")
def tx(default_pulses):
    return default_pulses.pulses[0]


def estimate_transfer_reference(tx, rx):
    """``estimate_transfer`` with the TX spectrum, band and floor recomputed per call: the oracle."""
    n = max(tx.samples.size, rx.samples.size)
    tx_spec = np.fft.rfft(tx.samples, n=n)
    rx_spec = np.fft.rfft(rx.samples, n=n)
    tx_mag = np.abs(tx_spec)
    freq = np.fft.rfftfreq(n, d=tx.dt)
    strong = np.nonzero(tx_mag >= tx_mag.max() * 10.0 ** (-BAND_DROP_DB / 20.0))[0]
    f_lo, f_hi = freq[strong[0]], freq[strong[-1]]
    floor = np.max(tx_mag) * 10.0 ** (NOISE_FLOOR_REL_DB / 20.0)
    keep = (freq >= f_lo) & (freq <= f_hi) & (tx_mag >= floor)
    h = rx_spec[keep] / tx_spec[keep]
    attenuation = np.clip(-20.0 * np.log10(np.maximum(np.abs(h), 1e-300)), 0.0, None)
    return MaterialSignature(freq[keep], attenuation, _unwrap_angle(h))


def apply_signature_reference(w, sig):
    """``apply_signature`` with the response and the spectrum recomputed per call: the oracle."""
    group_delay = float(np.max(np.abs(np.gradient(sig.phase_rad, sig.freq_hz))) / (2.0 * math.pi))
    n = _fast_len(w.samples.size + 2 * (int(math.ceil(group_delay / w.dt)) + 64))
    f = np.fft.rfftfreq(n, d=w.dt)
    h = (10.0 ** (-np.interp(f, sig.freq_hz, sig.attenuation_db) / 20.0)
         * np.exp(1j * np.interp(f, sig.freq_hz, sig.phase_rad)))
    return Waveform(np.fft.irfft(np.fft.rfft(w.samples, n=n) * h, n=n), w.dt)


def assert_same_waveform(a, b):
    assert a.dt == b.dt and a.samples.dtype == b.samples.dtype
    assert np.array_equal(a.samples, b.samples)


DETECTION_CACHES = (_filtered, _tx_reference)


def clear_detection_caches():
    for cache in DETECTION_CACHES:
        cache.cache_clear()


def assert_same_signature(a, b):
    for name in ("freq_hz", "attenuation_db", "phase_rad"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestEstimateTransfer:
    def test_identity(self, tx):
        sig = estimate_transfer(tx, tx)
        assert np.allclose(sig.attenuation_db, 0.0, atol=1e-9)
        assert np.allclose(sig.phase_rad, 0.0, atol=1e-9)

    def test_constant_gain(self, tx):
        rx = Waveform(0.1 * tx.samples, tx.dt)
        sig = estimate_transfer(tx, rx)
        assert np.allclose(sig.attenuation_db, 20.0, atol=1e-9)
        assert np.allclose(sig.phase_rad, 0.0, atol=1e-9)

    def test_delay_gives_linear_phase(self, tx):
        tau = 23.5 * DT
        rx = delay(tx, tau)
        sig = estimate_transfer(tx, rx)
        assert abs(mean_attenuation(sig)) < 0.2
        slope = np.polyfit(sig.freq_hz, sig.phase_rad, 1)[0]
        assert slope == pytest.approx(-2 * np.pi * tau, rel=0.01)

    def test_band_below_noise_floor(self):
        # a 3-sample pulse has 2 spectral bins, too few to fit a phase line
        tx = Waveform(np.array([0.0, 1.0, 0.5]), DT)
        with pytest.raises(ValueError, match=r"2 usable rFFT bins of 2 .*needs >= 3"):
            estimate_transfer(tx, tx)

    def test_silent_rx_is_rejected(self, tx):
        # the phase of 0 / TX means nothing, and its 6000 dB once called a human
        for rx in (Waveform(np.zeros(64), tx.dt), Waveform(np.zeros(len(tx)), tx.dt)):
            with pytest.raises(ValueError, match="no signal was received in the TX band"):
                estimate_transfer(tx, rx)

    @pytest.mark.filterwarnings("error")
    def test_zero_tx_is_rejected_before_any_division(self, tx):
        zero = Waveform(np.zeros(64), tx.dt)
        _tx_reference.cache_clear()
        for rx in (tx, zero):
            with pytest.raises(ValueError, match="TX pulse is all zeros"):
                estimate_transfer(zero, rx)
        assert _tx_reference.cache_info().currsize == 0

    def test_mismatched_dt(self, tx):
        rx = Waveform(tx.samples, 2 * tx.dt)
        with pytest.raises(ValueError):
            estimate_transfer(tx, rx)

    def test_default_band_is_strong(self, tx):
        freq = estimate_transfer(tx, tx).freq_hz
        f_lo, f_hi = freq[0], freq[-1]
        assert 0.0 <= f_lo < f_hi <= 0.5 / tx.dt
        assert f_hi - f_lo > 0.2e9
        # both band edges lie within 10 dB of the TX spectrum's peak, and no
        # bin outside the band does
        mag = np.abs(np.fft.rfft(tx.samples))
        bins = np.fft.rfftfreq(len(tx), d=tx.dt)
        strong = mag >= mag.max() * 10.0 ** (-10.0 / 20.0)
        assert strong[bins == f_lo] and strong[bins == f_hi]
        assert not np.any(strong & ((bins < f_lo) | (bins > f_hi)))


EPS = np.finfo(float).eps
TURN = 2.0 * math.pi


def own_rounding_rad(k):
    """Bound on |φ_k - (angle(h_k) - 2π·K_k)| for ``_unwrap_angle``: the turns sum exactly,
    so only rounding K·2π and subtracting it from angle(h_k), each within eps/2 of a value
    of at most 2π·(k + 1/2), can err."""
    return EPS * TURN * (k + 1)


def unwrap_rounding_rad(k):
    """Bound on |np.unwrap(angle(h))_k - (angle(h_k) - 2π·K_k)|. Each of the k corrections,
    (mod(step + π, 2π) - π) - step, rounds values under 3π and errs by under 3·eps·2π; their
    running sum rounds partial sums of size <= 2π·j, adding eps/2·2π·j at step j, so
    eps·2π·k(k+1)/4 in all; adding the sum to angle(h_k) rounds once more."""
    return EPS * TURN * (3 * k + k * (k + 1) / 4 + (k + 1) / 2)


@st.composite
def spectra(draw):
    """Complex bins with any phases, magnitudes over 300 decades, and exact (signed) zeros."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    # a drawn phase slope gives long runs of whole turns, as a delayed record has
    slope = draw(st.floats(-4.0, 4.0))
    phase = slope * np.arange(n) + draw(st.floats(0.0, 10.0)) * rng.standard_normal(n)
    h = 10.0 ** rng.uniform(-150.0, 150.0, n) * np.exp(1j * phase)
    zeros = rng.random(n) < draw(st.floats(0.0, 0.5))
    h[zeros] = rng.choice([0.0, -0.0], zeros.sum()) + 1j * rng.choice([0.0, -0.0], zeros.sum())
    return h


class TestUnwrapAngle:
    @settings(max_examples=300, deadline=None)
    @given(h=spectra())
    def test_matches_unwrap_to_rounding(self, h):
        p = np.angle(h)
        step = np.abs(np.diff(p))
        # within rounding of a tie the two forms may round the step to different turns
        assume(not np.any((step != np.pi) & (np.abs(step - np.pi) <= 1e-9)))
        phase = _unwrap_angle(h)
        k = np.arange(h.size)
        bound = own_rounding_rad(k) + unwrap_rounding_rad(k)
        assert np.all(np.abs(phase - np.unwrap(p)) <= bound)
        # whole turns from angle(h) at every bin, an exactly zero one included
        turns = (phase - p) / TURN
        assert np.all(np.abs(turns - np.round(turns)) * TURN <= 2 * own_rounding_rad(k))
        # no step of more than half a turn is left
        assert np.all(np.abs(np.diff(phase)) <= np.pi + 2 * own_rounding_rad(k[1:]))

    def test_ties_are_corrected_by_zero_as_unwrap_does(self):
        # angle steps of exactly +π and -π, between zero bins and real ones
        h = np.array([1.0, -1.0, 1.0, complex(-1.0, -0.0), 0.0, complex(-0.0, 0.0), 1j])
        p = np.angle(h)
        assert {np.pi, -np.pi} <= set(np.diff(p))
        assert np.array_equal(_unwrap_angle(h), np.unwrap(p))


def unwrap_transfer(tx, rx):
    """``estimate_transfer`` spelled with ``rfftfreq``, out-of-place arithmetic and
    ``np.unwrap``: the outputs its fewer passes must keep."""
    n = max(tx.samples.size, rx.samples.size)
    keep, _ = _tx_reference(tx.samples.tobytes(), tx.dt, n)
    h = np.fft.rfft(rx.samples, n=n)[keep] / np.fft.rfft(tx.samples, n=n)[keep]
    attenuation = np.clip(-20.0 * np.log10(np.maximum(np.abs(h), 1e-300)), 0.0, None)
    return MaterialSignature(np.fft.rfftfreq(n, d=tx.dt)[keep], attenuation,
                             np.unwrap(np.angle(h)))


class TestOutputsMatchUnwrap:
    @pytest.mark.parametrize("kind", MATERIAL_KINDS)
    def test_every_pulse_snr_and_seed(self, default_pulses, kind):
        sig = material_response(kind)
        for pulse in default_pulses.pulses:
            rx = apply_signature(pulse, sig)
            for snr in (30.0, 10.0, 0.0, -10.0, -20.0):
                for seed in range(5):
                    noisy = add_awgn(rx, snr, seed=seed)
                    got, expected = estimate_transfer(pulse, noisy), unwrap_transfer(pulse, noisy)
                    assert np.array_equal(got.freq_hz, expected.freq_hz)
                    assert np.array_equal(got.attenuation_db, expected.attenuation_db)
                    assert classify(got).label == classify(expected).label
                    assert phase_nonlinearity(got) == pytest.approx(
                        phase_nonlinearity(expected), rel=1e-12, abs=0.0)


class TestTxReference:
    @pytest.mark.parametrize("kind", MATERIAL_KINDS)
    def test_bit_identical_to_uncached(self, default_pulses, kind):
        for i, pulse in enumerate(default_pulses.pulses):
            rx = apply_signature(pulse, material_response(kind))
            for noisy in (rx, add_awgn(rx, 30.0, seed=i)):
                assert_same_signature(estimate_transfer(pulse, noisy),
                                      estimate_transfer_reference(pulse, noisy))

    def test_interleaved_pulses_match_each_alone(self, default_pulses):
        a, b = default_pulses.pulses[:2]
        rx = add_awgn(apply_signature(a, material_response("human")), 30.0, seed=4)
        _tx_reference.cache_clear()
        first = estimate_transfer(a, rx)
        other = estimate_transfer(b, rx)
        again = estimate_transfer(a, rx)
        assert_same_signature(first, estimate_transfer_reference(a, rx))
        assert_same_signature(other, estimate_transfer_reference(b, rx))
        assert_same_signature(again, first)
        assert _tx_reference.cache_info().misses == 2

    def test_written_signature_cannot_change_later_result(self, tx):
        rx = apply_signature(tx, material_response("wood_door"))
        expected = estimate_transfer_reference(tx, rx)
        sig = estimate_transfer(tx, rx)
        for values in (sig.freq_hz, sig.attenuation_db, sig.phase_rad):
            values[:] = 99.0
        assert_same_signature(estimate_transfer(tx, rx), expected)

    def test_too_short_pulse_is_not_cached(self):
        tx = Waveform(np.array([0.0, 1.0, 0.5]), DT)
        _tx_reference.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="usable rFFT bins"):
                estimate_transfer(tx, tx)
        assert _tx_reference.cache_info().currsize == 0


class TestSignatureCache:
    @pytest.mark.parametrize("kind", MATERIAL_KINDS)
    def test_bit_identical_to_uncached(self, default_pulses, kind):
        sig = material_response(kind)
        for i, pulse in enumerate(default_pulses.pulses):
            rx = apply_signature(pulse, sig)
            assert_same_waveform(rx, apply_signature_reference(pulse, sig))
            for noisy in (rx, add_awgn(rx, 30.0, seed=i)):
                assert_same_signature(estimate_transfer(pulse, noisy),
                                      estimate_transfer_reference(pulse, noisy))

    def test_interleaved_signatures_and_pulses_match_each_alone(self, default_pulses):
        a, b = default_pulses.pulses[:2]
        pairs = [(a, "human"), (b, "wood_door"), (a, "wood_door"), (b, "human"), (a, "human")]

        def run(pulse, kind):
            rx = apply_signature(pulse, material_response(kind))
            return rx, estimate_transfer(pulse, add_awgn(rx, 30.0, seed=3))

        alone = []
        for pulse, kind in pairs:
            clear_detection_caches()
            alone.append(run(pulse, kind))
        clear_detection_caches()
        interleaved = [run(pulse, kind) for pulse, kind in pairs]
        for (rx, sig), (rx_alone, sig_alone) in zip(interleaved, alone):
            assert_same_waveform(rx, rx_alone)
            assert_same_signature(sig, sig_alone)
        # each distinct (pulse, kind) is one record, and each (pulse, record
        # length) one kept-bin mask with its TX bins
        assert _filtered.cache_info().misses == 4
        assert _tx_reference.cache_info().misses == 4

    def test_every_pair_is_filtered_once(self, default_pulses):
        clear_detection_caches()
        passes = [[apply_signature(pulse, material_response(kind))
                   for pulse in default_pulses.pulses for kind in MATERIAL_KINDS]
                  for _ in range(2)]
        info = _filtered.cache_info()
        assert (info.misses, info.hits, info.currsize) == (24, 24, 24)
        assert all(again is first for first, again in zip(*passes))

    def test_overwritten_signature_gives_the_new_result(self, tx):
        sig = material_response("human")
        before = apply_signature(tx, sig)
        sig.freq_hz[:] = np.linspace(0.0, 12e9, sig.freq_hz.size)
        sig.attenuation_db[:] = 20.0
        sig.phase_rad[:] *= 0.5
        after = apply_signature(tx, sig)
        assert_same_waveform(after, apply_signature_reference(tx, sig))
        assert not np.array_equal(after.samples[:len(before)], before.samples[:len(after)])

    def test_cached_arrays_are_read_only(self, tx):
        sig = material_response("human")
        rx = apply_signature(tx, sig)
        assert apply_signature(tx, sig) is rx
        n = len(rx)
        shared = (rx.samples, *_tx_reference(tx.samples.tobytes(), tx.dt, n))
        for values in shared:
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0
        # noising the shared record makes the caller's own
        assert add_awgn(rx, 30.0, seed=0).samples.flags.writeable

    def test_signature_failing_band_check_is_not_cached(self, tx):
        freq = np.linspace(0.0, 1e9, 64)  # stops far below Nyquist
        sig = MaterialSignature(freq, np.zeros(64), np.zeros(64))
        clear_detection_caches()
        for _ in range(2):
            with pytest.raises(ValueError, match="does not cover the waveform band"):
                apply_signature(tx, sig)
        assert all(cache.cache_info().currsize == 0 for cache in DETECTION_CACHES)


def phase_nonlinearity_reference(sig):
    """RMS residual of the ``lstsq`` fit of phase on [centred f, 1]: the oracle."""
    f = sig.freq_hz - sig.freq_hz.mean()
    basis = np.column_stack([f, np.ones_like(f)])
    coef, *_ = np.linalg.lstsq(basis, sig.phase_rad, rcond=None)
    return float(np.sqrt(np.mean((sig.phase_rad - basis @ coef) ** 2)))


@st.composite
def signatures(draw):
    """A strictly increasing frequency grid, far from 0 Hz or not, with a random phase on it."""
    n = draw(st.integers(3, 300))
    f0 = draw(st.floats(0.0, 10e9))
    step = draw(st.floats(1e5, 1e8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    freq = f0 + step * np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 5.0, n - 1))])
    phase = draw(st.floats(1e-6, 100.0)) * rng.standard_normal(n)
    return MaterialSignature(freq, np.zeros(n), phase)


def phase_scale(phase):
    return float(np.max(np.abs(phase)))


class TestPhaseNonlinearity:
    # Both fits round at about eps·|φ|, so residuals at that level are compared
    # against the phase's scale, not against themselves.
    @settings(max_examples=200, deadline=None)
    @given(sig=signatures())
    def test_matches_lstsq(self, sig):
        expected = phase_nonlinearity_reference(sig)
        assert phase_nonlinearity(sig) == pytest.approx(
            expected, rel=1e-12, abs=1e-12 * phase_scale(sig.phase_rad))

    @settings(max_examples=200, deadline=None)
    @given(sig=signatures(), offset=st.floats(-1e3, 1e3), slope=st.floats(-1e-6, 1e-6))
    def test_affine_phase_is_linear_and_adds_nothing(self, sig, offset, slope):
        affine = offset + slope * sig.freq_hz
        line = MaterialSignature(sig.freq_hz, sig.attenuation_db, affine)
        assert phase_nonlinearity(line) <= 1e-12 * phase_scale(affine)
        shifted = MaterialSignature(sig.freq_hz, sig.attenuation_db, sig.phase_rad + affine)
        scale = phase_scale(sig.phase_rad) + phase_scale(affine)
        assert phase_nonlinearity(shifted) == pytest.approx(
            phase_nonlinearity(sig), rel=1e-12, abs=1e-12 * scale)

    def test_linear_phase_zero(self):
        f = np.linspace(0.5e9, 2.5e9, 301)
        sig = MaterialSignature(f, np.ones(301), -2 * np.pi * 1e-9 * f + 0.7)
        assert phase_nonlinearity(sig) < 1e-9

    def test_constant_phase_zero(self):
        f = np.linspace(0.5e9, 2.5e9, 301)
        sig = MaterialSignature(f, np.ones(301), np.full(301, 0.4))
        assert phase_nonlinearity(sig) < 1e-12

    def test_quadratic_matches_regression_oracle(self):
        f = np.linspace(1.0e9, 1.4e9, 401)
        q = 3e-18
        phase = 0.3 * (f - f[0]) * 1e-9 + q * (f - f.mean()) ** 2
        sig = MaterialSignature(f, np.ones(401), phase)
        # oracle: residual RMS of an independently fitted first-degree polynomial
        coeffs = np.polynomial.polynomial.polyfit(f - f.mean(), phase, 1)
        resid = phase - np.polynomial.polynomial.polyval(f - f.mean(), coeffs)
        assert phase_nonlinearity(sig) == pytest.approx(float(np.sqrt(np.mean(resid**2))), rel=1e-9)

    def test_affine_invariance(self, rng):
        f = np.linspace(0.5e9, 2.5e9, 257)
        wiggle = np.cumsum(rng.normal(size=257)) * 1e-2
        base = MaterialSignature(f, np.ones(257), wiggle)
        shifted = MaterialSignature(f, np.ones(257), wiggle + 3.0 - 2e-9 * f)
        assert phase_nonlinearity(base) == pytest.approx(phase_nonlinearity(shifted), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(sig=signatures(), freq_exp=st.integers(-1000, 980), phase_exp=st.integers(-900, 900))
    def test_a_unit_of_any_size_scales_the_metric_exactly(self, sig, freq_exp, phase_exp):
        # a power-of-two unit is exact, and no square on the way over- or underflows:
        # the same bits in units of 2**-1000 Hz as in hertz (once a NaN or inf)
        scaled = MaterialSignature(np.ldexp(sig.freq_hz, freq_exp), sig.attenuation_db,
                                   np.ldexp(sig.phase_rad, phase_exp))
        assert phase_nonlinearity(scaled) == math.ldexp(phase_nonlinearity(sig), phase_exp)

    def test_subnormal_phase(self):
        # no power of two takes a subnormal into [0.5, 1), and its squares once
        # underflowed to a metric of 0: the residual here is sqrt(2/9) of the bump
        sig = MaterialSignature(np.array([1e9, 2e9, 3e9]), np.zeros(3),
                                np.array([0.0, 1e-310, 0.0]))
        expected = math.sqrt(2 / 9) * 1e-310
        assert phase_nonlinearity(sig) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_too_few_points(self):
        # a line fits any two points, so a signature needs three
        with pytest.raises(ValueError, match=">= 3 points"):
            MaterialSignature(np.array([1e9, 2e9]), np.zeros(2), np.zeros(2))
        f = np.array([1e9, 2e9, 3e9])
        assert phase_nonlinearity(MaterialSignature(f, np.zeros(3), np.zeros(3))) == 0.0


class TestMeanAttenuation:
    def test_flat_values(self):
        f = np.linspace(0.5e9, 2.5e9, 10)
        assert mean_attenuation(MaterialSignature(f, np.full(10, 10.0), np.zeros(10))) == 10.0
        assert mean_attenuation(MaterialSignature(f, np.zeros(10), np.zeros(10))) == 0.0

    def test_human_signature_level(self):
        assert mean_attenuation(material_response("human")) == pytest.approx(50.0, abs=2.0)

    def test_near_the_float_maximum(self):
        # the sum of ten such values once overflowed, and the verdict's inf raised
        f = np.linspace(0.5e9, 2.5e9, 10)
        assert mean_attenuation(MaterialSignature(f, np.full(10, 1.5e308), np.zeros(10))) \
            == 1.5e308


class TestThresholds:
    @pytest.mark.parametrize("kwargs", [
        {"attenuation_db": -5.0},
        {"attenuation_db": ARTIFICIAL_FLOOR_DB - 0.01},
        {"attenuation_db": math.nan},
        {"attenuation_db": math.inf},
        {"attenuation_db": -math.inf},
        {"nonlinearity_rad": 0.0},
        {"nonlinearity_rad": -0.3},
        {"nonlinearity_rad": math.nan},
        {"nonlinearity_rad": math.inf},
        {"nonlinearity_rad": -math.inf},
    ])
    def test_meaningless_threshold_rejected(self, kwargs):
        # inf too: JSON has no inf, so a verdict holding it could not be printed
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"{field} threshold"):
            DetectionThresholds(**kwargs)

    def test_lowest_thresholds_never_call_a_transparent_medium_human(self):
        # the floor itself is accepted; a threshold under it would call the 0 dB medium human
        th = DetectionThresholds(attenuation_db=ARTIFICIAL_FLOOR_DB, nonlinearity_rad=1e-12)
        f = np.linspace(0.5e9, 2.5e9, 301)
        phase = 1e-17 * (f - f.mean()) ** 2
        assert classify(MaterialSignature(f, np.zeros(301), phase), th).label == "free_space"
        assert classify(MaterialSignature(f, np.full(301, 3.0), phase), th).label == "human_present"


class TestClassify:
    def grid(self):
        return np.linspace(0.5e9, 2.5e9, 301)

    def test_human(self):
        f = self.grid()
        phase = 1e-17 * (f - f.mean()) ** 2
        verdict = classify(MaterialSignature(f, np.full(301, 50.0), phase))
        assert verdict.label == "human_present"

    def test_artificial(self):
        f = self.grid()
        verdict = classify(MaterialSignature(f, np.full(301, 10.0), -2e-9 * f))
        assert verdict.label == "artificial_only"

    def test_free_space(self):
        f = self.grid()
        verdict = classify(MaterialSignature(f, np.zeros(301), np.zeros(301)))
        assert verdict.label == "free_space"

    def test_lossy_but_linear_is_artificial(self):
        f = self.grid()
        verdict = classify(MaterialSignature(f, np.full(301, 60.0), -2e-9 * f))
        assert verdict.label == "artificial_only"

    def test_verdict_carries_metrics_and_thresholds(self):
        f = self.grid()
        verdict = classify(MaterialSignature(f, np.full(301, 10.0), np.zeros(301)),
                           DetectionThresholds(attenuation_db=25.0, nonlinearity_rad=0.5))
        assert verdict.mean_attenuation_db == pytest.approx(10.0)
        assert verdict.thresholds == DetectionThresholds(25.0, 0.5)

    def test_verdicts_are_slotted_and_default_to_the_default_thresholds(self):
        f = self.grid()
        verdict = classify(MaterialSignature(f, np.zeros(301), np.zeros(301)))
        assert verdict.thresholds == DetectionThresholds()
        assert not hasattr(verdict, "__dict__") and not hasattr(verdict.thresholds, "__dict__")

    def test_rx_scaling_shifts_attenuation_only(self, tx):
        rx = apply_signature(tx, material_response("wood_door"))
        sig1 = estimate_transfer(tx, rx)
        sig2 = estimate_transfer(tx, Waveform(rx.samples * 0.5, rx.dt))
        shift = mean_attenuation(sig2) - mean_attenuation(sig1)
        assert shift == pytest.approx(-20 * np.log10(0.5), abs=0.01)
        assert phase_nonlinearity(sig1) == pytest.approx(phase_nonlinearity(sig2), abs=1e-6)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["wood_door", "human"])
    def test_apply_then_estimate_recovers(self, tx, kind):
        sig = material_response(kind)
        rx = apply_signature(tx, sig)
        est = estimate_transfer(tx, rx)
        truth_att = np.interp(est.freq_hz, sig.freq_hz, sig.attenuation_db)
        truth_phase = np.interp(est.freq_hz, sig.freq_hz, sig.phase_rad)
        att_err = np.sqrt(np.mean((est.attenuation_db - truth_att) ** 2))
        # the estimated phase may differ by whole turns of the unwrap seed
        dphi = est.phase_rad - truth_phase
        dphi -= 2 * np.pi * np.round(np.mean(dphi) / (2 * np.pi))
        phase_err = np.sqrt(np.mean(dphi**2))
        assert att_err <= 0.5
        assert phase_err <= 0.05

    def test_end_to_end_noiseless_all_kinds(self, tx):
        from uwbloc.channel import MATERIAL_KINDS

        for kind in MATERIAL_KINDS:
            rx = apply_signature(tx, material_response(kind))
            verdict = classify(estimate_transfer(tx, rx))
            assert verdict.label == MATERIAL_LABELS[kind], kind
