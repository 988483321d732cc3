import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwbloc.pulses import DesignConfig
from uwbloc.simulate import config_from_json, config_to_json
from uwbloc.spectrum import (
    DB_FLOOR,
    DisjointBandError,
    SpectralMask,
    effectiveness,
    fcc_like_mask,
    mask_violation,
    psd,
)
from uwbloc.waveform import Waveform

from oracles import energy

DT = 50e-12


def mask_shaped_spectrum(mask, nfft=4096, offset_db=0.0):
    """A synthetic (freq, density) pair tracing the mask plus an offset."""
    freq = np.fft.rfftfreq(nfft, d=DT)
    limits = mask.limit_at(freq)
    sel = ~np.isnan(limits)
    return freq[sel], limits[sel] + offset_db


class TestPsd:
    def test_zero_waveform_clamped(self):
        freq, dens = psd(Waveform(np.zeros(32), DT), 256)
        assert np.all(dens == DB_FLOOR)

    def test_sinusoid_dominant_bin(self):
        f0 = 1.5e9
        t = np.arange(1024) * DT
        w = Waveform(np.sin(2 * np.pi * f0 * t), DT)
        freq, dens = psd(w, 4096)
        assert freq[int(np.argmax(dens))] == pytest.approx(f0, rel=0.01)

    def test_parseval(self, default_pulses):
        for w in [default_pulses.pulses[0], Waveform(np.random.default_rng(0).normal(size=200), DT)]:
            freq, dens = psd(w, 8192)
            df_mhz = (freq[1] - freq[0]) / 1e6
            integral = float(np.sum(10.0 ** (dens / 10.0)) * df_mhz)
            assert integral == pytest.approx(energy(w), rel=0.01)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
           extra=st.integers(0, 5000), dt=st.sampled_from([DT, 1e-9, 1e-12]))
    def test_parseval_property(self, samples, extra, dt):
        # the zero-padded DFT conserves energy exactly, so only rounding in
        # the dB round trip separates the PSD integral from the energy
        assume(max(abs(x) for x in samples) > 1e-3)
        w = Waveform(np.asarray(samples), dt)
        nfft = len(samples) + extra
        _, dens = psd(w, nfft)
        integral = float(np.sum(10.0 ** (dens / 10.0)) / (nfft * dt * 1e6))
        assert integral == pytest.approx(energy(w), rel=1e-12)

    def test_nfft_too_small(self):
        with pytest.raises(ValueError):
            psd(Waveform(np.ones(64), DT), 32)


class TestSpectralMask:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralMask(())
        with pytest.raises(ValueError):
            SpectralMask(((1e9, 0.5e9, -41.3),))
        with pytest.raises(ValueError):
            SpectralMask(((0.0, 1e9, -41.3), (2e9, 3e9, -51.3)))

    def test_limit_lookup(self):
        mask = fcc_like_mask()
        assert mask.limit_at(np.array([1e9]))[0] == -41.3
        assert mask.limit_at(np.array([5e9]))[0] == -51.3
        assert np.isnan(mask.limit_at(np.array([12e9]))[0])

    def test_default_mask_segments(self):
        assert fcc_like_mask() == SpectralMask(
            ((0.0, 0.5e9, -51.3), (0.5e9, 2.5e9, -41.3), (2.5e9, 10e9, -51.3)))

    def test_notch(self):
        mask = SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 1.0e9, -41.3), (1.0e9, 1.2e9, -61.3),
                             (1.2e9, 2.5e9, -41.3), (2.5e9, 10e9, -51.3)))
        assert mask.limit_at(np.array([1.1e9]))[0] == -61.3

    def test_integral_linear(self):
        mask = SpectralMask(((0.0, 1e9, -10.0), (1e9, 2e9, -20.0)))
        expect = 0.1 * 1000 + 0.01 * 1000  # per-MHz units
        assert mask.integral_linear() == pytest.approx(expect)

    def test_json_round_trip(self, tmp_path):
        mask = SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 1.0e9, -41.3), (1.0e9, 1.5e9, -60.0),
                             (1.5e9, 2.5e9, -41.3), (2.5e9, 10e9, -51.3)))
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(config_to_json(DesignConfig(mask=mask)), indent=2))
        assert config_from_json(json.loads(path.read_text()), DesignConfig).mask == mask


class TestMaskViolation:
    def test_constant_offset(self):
        mask = fcc_like_mask()
        freq, dens = mask_shaped_spectrum(mask, offset_db=-10.0)
        assert mask_violation(freq, dens, mask) == pytest.approx(-10.0)

    def test_single_hot_bin(self):
        mask = fcc_like_mask()
        freq, dens = mask_shaped_spectrum(mask, offset_db=-10.0)
        dens = dens.copy()
        dens[100] += 13.0
        assert mask_violation(freq, dens, mask) == pytest.approx(3.0)

    def test_disjoint_bands(self):
        mask = SpectralMask(((20e9, 30e9, -41.3),))
        freq = np.linspace(0, 10e9, 64)
        with pytest.raises(DisjointBandError):
            mask_violation(freq, np.full(64, -50.0), mask)


class TestEffectiveness:
    def test_identical_to_mask(self):
        mask = fcc_like_mask()
        freq, dens = mask_shaped_spectrum(mask, nfft=16384)
        assert effectiveness(freq, dens, mask) == pytest.approx(1.0, rel=0.01)

    def test_zero_spectrum(self):
        mask = fcc_like_mask()
        freq = np.fft.rfftfreq(4096, d=DT)
        assert effectiveness(freq, np.full(freq.size, DB_FLOOR), mask) < 1e-6

    def test_three_db_down(self):
        mask = fcc_like_mask()
        freq, dens = mask_shaped_spectrum(mask, nfft=16384, offset_db=-3.0)
        assert effectiveness(freq, dens, mask) == pytest.approx(10 ** -0.3, rel=0.01)

    def test_zero_mask_integral(self):
        mask = SpectralMask(((0.0, 10e9, -np.inf),))
        freq = np.fft.rfftfreq(1024, d=DT)
        with pytest.raises(ValueError):
            effectiveness(freq, np.full(freq.size, -50.0), mask)

    def test_grid_convergence(self, default_pulses):
        mask = fcc_like_mask()
        w = default_pulses.pulses[0]
        vals = []
        for nfft in (4096, 8192):
            freq, dens = psd(w, nfft)
            vals.append(effectiveness(freq, dens, mask))
        assert vals[0] == pytest.approx(vals[1], rel=0.01)
