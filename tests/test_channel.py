import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwbloc.channel import (
    HUMAN_PHASE_CENTER_HZ,
    HUMAN_PHASE_CURVATURE,
    MAX_TAPS,
    SPEED_OF_LIGHT,
    ChannelProfile,
    ChannelRealization,
    MaterialSignature,
    MATERIAL_KINDS,
    apply_signature,
    cir_to_csv,
    material_response,
    propagate,
    sample_cir,
    signature_from_csv,
    _PHASOR_BLOCK,
    _fast_len,
    _phasor_columns,
    _tap_sum,
)
from uwbloc.detection import phase_nonlinearity
from uwbloc.waveform import Waveform, delay, read_csv

from conftest import signature_to_csv
from oracles import cross_correlate

DT = 50e-12


def probe_pulse(n=256, f0=1.5e9, bw=0.8e9):
    t = np.arange(n) * DT
    tc = t[n // 2]
    sigma = 0.5 / bw
    return Waveform(np.cos(2 * np.pi * f0 * (t - tc)) * np.exp(-0.5 * ((t - tc) / sigma) ** 2), DT)


class TestSampleCir:
    def test_single_tap_profile(self):
        cir = sample_cir(ChannelProfile(tap_count_min=1, tap_count_max=1), seed=0)
        assert cir.taps == ((0.0, 1.0),)
        assert cir.delay_spread == 0.0

    def test_los_reference_and_spread(self):
        profile = ChannelProfile()
        cir = sample_cir(profile, seed=42)
        assert cir.taps[0] == (0.0, 1.0)
        assert cir.delay_spread >= profile.delay_spread_target
        assert cir.delay_spread > 50e-9  # exceeds the symbol duration: ISI regime
        assert len(cir.taps) >= profile.tap_count_min

    def test_min_excess_delay(self):
        profile = ChannelProfile()
        for seed in range(20):
            cir = sample_cir(profile, seed)
            assert cir.taps[1][0] >= profile.min_excess_delay

    def test_deterministic(self):
        a = sample_cir(ChannelProfile(), seed=9)
        b = sample_cir(ChannelProfile(), seed=9)
        assert a == b

    def test_gain_decay_ratio(self):
        # expected |gain| ratio between delay windows Delta apart ~ exp(-Delta/decay)
        profile = ChannelProfile(decay_constant=20e-9)
        lo, hi, delta = 5e-9, 15e-9, 20e-9
        near, far = [], []
        for seed in range(10_000):
            for t, g in sample_cir(profile, seed).taps[1:]:
                if lo <= t < hi:
                    near.append(abs(g))
                elif lo + delta <= t < hi + delta:
                    far.append(abs(g))
        measured = np.mean(far) / np.mean(near)
        # oracle: mean of exp(-t/decay) over a window, ratio between windows
        ts = np.linspace(lo, hi, 2001)
        expect = np.mean(np.exp(-(ts + delta) / 20e-9)) / np.mean(np.exp(-ts / 20e-9))
        assert measured == pytest.approx(expect, rel=0.10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelProfile(tap_count_min=0)
        with pytest.raises(ValueError):
            ChannelRealization(((1e-9, 1.0),))  # missing LOS at zero

    @pytest.mark.parametrize("kwargs, key", [
        # each once ran sample_cir out of memory, or overflowed the SNR reference power
        ({"mean_tap_spacing": 1e-15}, "mean_tap_spacing"),
        ({"tap_count_max": 10**9}, "tap_count_max"),
        ({"tap_count_max": MAX_TAPS + 1}, "tap_count_max"),
        ({"delay_spread_target": 1e-6, "min_excess_delay": 0.0, "mean_tap_spacing": 5e-9},
         "delay_spread_target"),
        ({"mpc_relative_gain": 1e300}, "mpc_relative_gain"),
        ({"mpc_relative_gain": 1.0 + 1e-12}, "mpc_relative_gain"),
        ({"min_excess_delay": -1e-9}, "min_excess_delay"),
    ])
    def test_profile_the_simulator_cannot_run_rejected(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            ChannelProfile(**kwargs)

    def test_profile_limits_are_inclusive(self):
        ChannelProfile(tap_count_min=MAX_TAPS, tap_count_max=MAX_TAPS)
        ChannelProfile(mpc_relative_gain=1.0)
        # power-of-two times, so the mean arrival count is exactly the limit
        spacing = 2.0**-30
        ChannelProfile(min_excess_delay=0.0, mean_tap_spacing=spacing,
                       delay_spread_target=MAX_TAPS // 2 * spacing)
        with pytest.raises(ValueError, match="on average"):
            ChannelProfile(min_excess_delay=0.0, mean_tap_spacing=spacing,
                           delay_spread_target=(MAX_TAPS // 2 + 1) * spacing)

    def test_delay_spread_is_latest_tap(self):
        cir = sample_cir(ChannelProfile(), seed=4)
        assert cir.delay_spread == cir.taps[-1][0] == max(d for d, _ in cir.taps)
        assert ChannelRealization(((0.0, 1.0), (3e-9, 0.2), (1e-9, 0.1))).delay_spread == 3e-9


class TestMaterialResponse:
    def test_free_space(self):
        sig = material_response("free_space")
        assert np.all(sig.attenuation_db == 0.0)
        assert phase_nonlinearity(sig) < 1e-6

    def test_wood_door(self):
        sig = material_response("wood_door")
        assert np.mean(sig.attenuation_db) == pytest.approx(10.0, abs=1.0)
        assert phase_nonlinearity(sig) < 1e-6

    def test_brick_wall_artificial(self):
        sig = material_response("brick_wall")
        assert np.mean(sig.attenuation_db) == pytest.approx(10.8, abs=1.0)
        assert phase_nonlinearity(sig) < 1e-6

    @pytest.mark.parametrize("kind", ["human", "human_behind_door", "human_behind_wall"])
    def test_human_kinds(self, kind):
        sig = material_response(kind)
        assert np.mean(sig.attenuation_db) == pytest.approx(50.0, abs=2.0)
        assert phase_nonlinearity(sig) >= 0.3

    def test_human_window_residual(self):
        # the quadratic term is calibrated to ~1 rad RMS per 200 MHz window
        f = np.linspace(1.4e9, 1.6e9, 501)
        phase = HUMAN_PHASE_CURVATURE * (f - HUMAN_PHASE_CENTER_HZ) ** 2
        sig = MaterialSignature(f, np.zeros_like(f), phase)
        assert phase_nonlinearity(sig) == pytest.approx(1.0, rel=0.05)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            material_response("vacuum")

    def test_kinds_list(self):
        assert set(MATERIAL_KINDS) == {
            "free_space", "wood_door", "brick_wall",
            "human", "human_behind_door", "human_behind_wall",
        }

    def test_signature_validation(self):
        f = np.linspace(0, 1e9, 10)
        with pytest.raises(ValueError):
            MaterialSignature(f, -np.ones(10), np.zeros(10))
        with pytest.raises(ValueError):
            MaterialSignature(f[::-1], np.ones(10), np.zeros(10))
        repeated = f.copy()
        repeated[5] = repeated[4]
        with pytest.raises(ValueError, match="strictly increasing"):
            MaterialSignature(repeated, np.ones(10), np.zeros(10))
        messages = ("strictly increasing", "attenuation must be finite", "phase must be finite")
        for i, message in enumerate(messages):
            for bad in (math.nan, math.inf, -math.inf):
                arrays = [f.copy(), np.ones(10), np.zeros(10)]
                arrays[i][5] = bad
                with pytest.raises(ValueError, match=message):
                    MaterialSignature(*arrays)
        # a grid may increase all the way to +inf or up from -inf
        for index, end in ((0, -math.inf), (0, math.inf), (-1, -math.inf), (-1, math.inf)):
            grid = f.copy()
            grid[index] = end
            with pytest.raises(ValueError, match="frequency grid must be"):
                MaterialSignature(grid, np.ones(10), np.zeros(10))
        # each phase is finite, but the span its line fit leaves is not
        phase = np.zeros(10)
        phase[[0, -1]] = -1e308, 1e308
        with pytest.raises(ValueError, match="phase must be finite"):
            MaterialSignature(f, np.ones(10), phase)


class TestApplySignature:
    def test_free_space_identity(self):
        w = probe_pulse()
        out = apply_signature(w, material_response("free_space"))
        n = len(w)
        scale = np.max(np.abs(w.samples))
        assert np.allclose(out.samples[:n], w.samples, atol=1e-9 * scale)
        assert np.max(np.abs(out.samples[n:])) < 1e-9 * scale

    def test_flat_attenuation(self):
        w = probe_pulse()
        freq = np.linspace(0.0, 0.5 / DT, 257)
        sig = MaterialSignature(freq, np.full(257, 20.0), np.zeros(257))
        out = apply_signature(w, sig)
        assert np.allclose(out.samples[: len(w)], 0.1 * w.samples, atol=1e-9)

    def test_linear_phase_is_delay(self):
        w = probe_pulse()
        tau = 17.25 * DT
        freq = np.linspace(0.0, 0.5 / DT, 4097)
        sig = MaterialSignature(freq, np.zeros(freq.size), -2 * np.pi * tau * freq)
        out = apply_signature(w, sig)
        oracle = delay(w, tau)
        m = min(len(out), len(oracle))
        num = np.sum((out.samples[:m] - oracle.samples[:m]) ** 2)
        assert num / np.sum(oracle.samples[:m] ** 2) < 1e-4

    def test_band_not_covered(self):
        w = probe_pulse()
        freq = np.linspace(0.0, 1e9, 64)  # stops far below Nyquist
        sig = MaterialSignature(freq, np.zeros(64), np.zeros(64))
        with pytest.raises(ValueError):
            apply_signature(w, sig)


def reference_tap_sum(taps, n, dt):
    """The per-tap sum: one complex exponential over the whole rfft grid per tap."""
    f = np.fft.rfftfreq(n, d=dt)
    h = np.zeros(f.size, dtype=complex)
    for tap_delay, gain in taps:
        h += gain * np.exp(-2j * np.pi * f * tap_delay)
    return h


class TestTapSum:
    @settings(max_examples=60, deadline=None)
    @given(
        taps=st.lists(st.tuples(st.floats(0.0, 150e-9), st.floats(-1.0, 1.0)),
                      min_size=1, max_size=40),
        n=st.integers(2, 26000),
    )
    @example(taps=[(150e-9, 1.0)] * 40, n=24576)  # one coherent delay at the longest reach
    @example(taps=[(0.0, 1.0), (37e-9, -0.5)], n=2 * 128 * 5)  # bin count one past a block
    @example(taps=[(1.4750684301739142e-07, 5e-324)], n=258)  # a subnormal gain
    def test_matches_per_tap_sum(self, taps, n):
        ref = reference_tap_sum(taps, n, DT)
        got = _tap_sum(tuple(taps), 1.0 / (n * DT), n // 2 + 1)
        # 1e-12 of the gain sum, plus the rounding of each tap's phase 2*pi*f*delay
        # (thousands of radians at 150 ns), which a float64 per-tap sum carries too,
        # plus one subnormal unit per tap, where the relative terms underflow to 0
        f_max = 0.5 / DT
        phase_ulps = 4 * np.finfo(float).eps * 2 * np.pi * f_max
        tiny = np.nextafter(0.0, 1.0)
        tol = sum(abs(g) * (1e-12 + phase_ulps * d) + tiny for d, g in taps)
        assert np.max(np.abs(got - ref)) <= tol

    @pytest.mark.parametrize("seed", range(10))
    def test_sampled_channels_within_1e12(self, seed):
        taps = sample_cir(ChannelProfile(), seed).taps
        n = 24576
        ref = reference_tap_sum(taps, n, DT)
        got = _tap_sum(taps, 1.0 / (n * DT), n // 2 + 1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bins", [1, 127, 128, 129, 12289])
    def test_unit_los_tap_is_exactly_one(self, bins):
        assert np.array_equal(_tap_sum(((0.0, 1.0),), 1.0 / (24576 * DT), bins), np.ones(bins))


def per_tap_tolerance(taps):
    """``TestTapSum.test_matches_per_tap_sum``'s bound on |_tap_sum - reference_tap_sum|.

    1e-12 of the gain sum, plus the rounding of each tap's phase 2*pi*f*delay
    (thousands of radians at 150 ns), which a float64 per-tap sum carries too,
    plus one subnormal unit per tap, where the relative terms underflow to 0.
    """
    f_max = 0.5 / DT
    phase_ulps = 4 * np.finfo(float).eps * 2 * np.pi * f_max
    tiny = np.nextafter(0.0, 1.0)
    return sum(abs(g) * (1e-12 + phase_ulps * d) + tiny for d, g in taps)


class TestPhasorRestarts:
    def test_long_record_within_the_per_tap_tolerance(self):
        # 16,385 blocks of a 2**21-point record. The middle delay's across-block
        # phasor drifts most, unrestarted, of 4,000 delays tried from 0.5 to 20 ns,
        # but only to 9.3e-13, inside this tolerance: the next test pins the restarts
        taps = ((0.0, 1.0), (17.5765e-9, -0.5), (150e-9, 0.25))
        n = 2**21
        ref = reference_tap_sum(taps, n, DT)
        got = _tap_sum(taps, 1.0 / (n * DT), n // 2 + 1)
        assert np.max(np.abs(got - ref)) <= per_tap_tolerance(taps)

    def test_phasor_columns_restart_every_block(self):
        # no entry is more than _PHASOR_BLOCK - 1 products from an exact exponential:
        # the error stays at a block's worth of roundings, plus the rounding of the
        # reference's own phase rate * j, at any length (here 0.65 of the bound). A
        # running product over all 65,541 rows drifts to about 20 times the bound.
        rng = np.random.default_rng(7)
        rate = -1j * rng.uniform(0.0, 0.01, 8)
        scale = rng.uniform(-1.0, 1.0, 8)
        count = 2**16 + 5
        j = np.arange(count)[:, None]
        ref = np.exp(j * rate) * scale
        eps = np.finfo(float).eps
        bound = np.abs(scale) * (eps * np.abs(rate) * j + 4 * _PHASOR_BLOCK * eps)
        got = _phasor_columns(scale, rate, count)
        assert got.shape == (count, rate.size)
        assert np.all(np.abs(got - ref) <= bound)


class TestPropagate:
    def test_single_tap_free_space_equals_delay(self):
        w = probe_pulse()
        cir = ChannelRealization(((0.0, 1.0),))
        d = 2.917
        out = propagate(w, d, cir)
        oracle = delay(w, d / SPEED_OF_LIGHT)
        m = min(len(out), len(oracle))
        assert np.allclose(out.samples[:m], oracle.samples[:m], atol=1e-12)

    def test_three_meters_is_ten_ns(self):
        assert 3.0 / SPEED_OF_LIGHT == pytest.approx(10.0069e-9, rel=1e-4)
        w = probe_pulse()
        cir = ChannelRealization(((0.0, 1.0),))
        out = propagate(w, 3.0, cir)
        lags, vals = cross_correlate(w, out)
        assert lags[int(np.argmax(vals))] == pytest.approx(10.0069e-9, abs=DT)

    def test_received_duration_bookkeeping(self):
        w = probe_pulse()
        cir = sample_cir(ChannelProfile(), seed=3)
        out = propagate(w, 4.0, cir)
        needed = 4.0 / SPEED_OF_LIGHT + len(w) * w.dt + cir.delay_spread
        assert len(out) * out.dt >= needed

    def test_linearity(self):
        a = probe_pulse()
        b = Waveform(np.roll(a.samples, 40), DT)
        cir = sample_cir(ChannelProfile(), seed=5)
        combined = propagate(Waveform(a.samples + 2.0 * b.samples, DT), 3.0, cir)
        separate = propagate(a, 3.0, cir).samples + 2.0 * propagate(b, 3.0, cir).samples
        assert np.allclose(combined.samples, separate, atol=1e-9 * np.max(np.abs(separate)))

    @pytest.mark.parametrize("seed", range(10))
    def test_record_length(self, seed):
        # the SNR is referred to the whole record's mean power, so its length sets the noise
        w = probe_pulse()
        cir = sample_cir(ChannelProfile(), seed)
        d = 4.0
        expect = _fast_len(len(delay(w, d / SPEED_OF_LIGHT))
                           + math.ceil(cir.delay_spread / DT) + 128)
        assert len(propagate(w, d, cir)) == expect

    def test_distance_must_be_positive(self):
        with pytest.raises(ValueError):
            propagate(probe_pulse(), 0.0, ChannelRealization(((0.0, 1.0),)))


class TestSerialization:
    def test_signature_csv_round_trip(self, tmp_path):
        sig = material_response("human")
        path = tmp_path / "sig.csv"
        signature_to_csv(sig, path)
        back = signature_from_csv(read_csv(path))
        assert np.allclose(back.freq_hz, sig.freq_hz)
        assert np.allclose(back.attenuation_db, sig.attenuation_db)
        assert np.allclose(back.phase_rad, sig.phase_rad)

    def test_cir_csv(self, tmp_path):
        cir = sample_cir(ChannelProfile(), seed=1)
        path = tmp_path / "cir.csv"
        cir_to_csv(cir, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(cir.taps), 2)
        assert data[0, 0] == 0.0 and data[0, 1] == 1.0
