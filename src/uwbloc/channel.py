"""Multipath channel realizations, material signatures, and propagation.

The channel is a tapped delay line: a unit line-of-sight tap at delay zero
followed by Poisson-spaced reflections with exponentially decaying Rayleigh
amplitudes and random signs. ``propagate`` sends a waveform through it in
free space; absolute propagation delay is applied with the time-domain
fractional-delay interpolator so that the single-tap case composes exactly
with ``waveform.delay``. Materials and bodies are frequency responses
(attenuation + unwrapped phase) that ``apply_signature`` applies as filters
on the detection path.

Detection filters the same few (pulse, signature) pairs over and over, so
``apply_signature`` caches the response and the spectrum by content, and
``detection`` divides by that spectrum; ``propagate``'s delayed input never
repeats, so it filters uncached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .waveform import Waveform, _delayed_size, delay, write_csv

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelProfile",
    "ChannelRealization",
    "sample_cir",
    "MaterialSignature",
    "MATERIAL_KINDS",
    "material_response",
    "apply_signature",
    "propagate",
    "signature_from_csv",
    "cir_to_csv",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ChannelProfile:
    """Statistical description of the tapped-delay-line generator."""

    tap_count_min: int = 20
    tap_count_max: int = 40
    mean_tap_spacing: float = 5e-9
    decay_constant: float = 20e-9
    delay_spread_target: float = 60e-9
    mpc_relative_gain: float = 0.35  # multipath amplitude scale relative to LOS
    min_excess_delay: float = 2e-9  # first reflection path exceeds LOS by this

    def __post_init__(self) -> None:
        if self.tap_count_min < 1 or self.tap_count_max < self.tap_count_min:
            raise ValueError("tap counts must satisfy 1 <= min <= max")
        for name in ("mean_tap_spacing", "decay_constant", "delay_spread_target",
                     "mpc_relative_gain"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.min_excess_delay < math.inf:
            raise ValueError("min_excess_delay must be >= 0 and finite")


@dataclass(frozen=True)
class ChannelRealization:
    """Concrete tap list: (delay seconds, gain) with a LOS tap at zero."""

    taps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("need at least one tap")
        if self.taps[0][0] != 0.0:
            raise ValueError("first tap must be the LOS reference at delay 0")
        for d, g in self.taps:
            if d < 0 or not math.isfinite(g):
                raise ValueError("tap delays must be >= 0 and gains finite")

    @property
    def delay_spread(self) -> float:
        """Delay of the latest tap in seconds."""
        return max(d for d, _ in self.taps)


def sample_cir(profile: ChannelProfile, seed: int) -> ChannelRealization:
    """Draw one channel realization; deterministic for a fixed seed.

    LOS tap (0, 1.0); reflections arrive as a Poisson process with the
    profile's mean spacing, amplitudes Rayleigh-distributed around an
    exponentially decaying envelope, random signs. Taps are appended until
    both the drawn tap count and the delay-spread target are met.
    """
    rng = np.random.default_rng(seed)
    taps: list[tuple[float, float]] = [(0.0, 1.0)]
    if profile.tap_count_max == 1:
        return ChannelRealization(tuple(taps))
    n_taps = int(rng.integers(profile.tap_count_min, profile.tap_count_max + 1))
    t = profile.min_excess_delay
    # Rayleigh with sigma = sqrt(2/pi) * mean has the requested mean amplitude
    ray_scale = math.sqrt(2.0 / math.pi)
    while len(taps) < n_taps or t < profile.delay_spread_target:
        t += rng.exponential(profile.mean_tap_spacing)
        envelope = profile.mpc_relative_gain * math.exp(-t / profile.decay_constant)
        amp = rng.rayleigh(ray_scale * envelope)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        taps.append((t, sign * amp))
    return ChannelRealization(tuple(taps))


# -- material signatures ------------------------------------------------------

# (mean attenuation dB, bulk delay s, has human phase distortion)
_MATERIAL_TABLE = {
    "free_space": (0.0, 0.0, False),
    "wood_door": (10.0, 0.2e-9, False),
    "brick_wall": (10.8, 0.4e-9, False),
    "human": (50.0, 0.5e-9, True),
    "human_behind_door": (51.0, 0.7e-9, True),
    "human_behind_wall": (51.8, 0.9e-9, True),
}
MATERIAL_KINDS = tuple(_MATERIAL_TABLE)

# Quadratic phase coefficient producing ~1 rad RMS residual against a linear
# fit over any 200 MHz window: rms = q * (W/2)^2 * 2/sqrt(45) with W = 200 MHz.
HUMAN_PHASE_CURVATURE = 1.0 / ((100e6) ** 2 * 2.0 / math.sqrt(45.0))
# Curvature vertex: center of the default design passband, which keeps the
# implied group delay modest where pulses actually carry energy.
HUMAN_PHASE_CENTER_HZ = 1.5e9


@dataclass(frozen=True)
class MaterialSignature:
    """Attenuation (dB, loss positive) and unwrapped phase on a frequency grid."""

    freq_hz: np.ndarray
    attenuation_db: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.freq_hz, dtype=float)
        a = np.asarray(self.attenuation_db, dtype=float)
        p = np.asarray(self.phase_rad, dtype=float)
        # three points at least: phase linearity is a line fit, exact through any two
        if not (f.shape == a.shape == p.shape) or f.ndim != 1 or f.size < 3:
            raise ValueError(
                "freq, attenuation and phase must be equal-length 1-D arrays of >= 3 points")
        if not np.all(np.diff(f) > 0):  # NaN fails too
            raise ValueError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("attenuation must be finite and >= 0")
        if not np.all(np.isfinite(p)):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "attenuation_db", a)
        object.__setattr__(self, "phase_rad", p)


def material_response(
    kind: str,
    f_lo_hz: float = 0.0,
    f_hi_hz: float = 10e9,
    points: int = 2001,
) -> MaterialSignature:
    """Synthetic per-kind signature on a uniform frequency grid.

    Artificial media: ~10 dB loss with an exactly linear phase. Human cases:
    ~50 dB loss with a quadratic phase distortion on top of the linear term,
    calibrated to ~1 rad RMS linear-fit residual per 200 MHz window.
    """
    if kind not in _MATERIAL_TABLE:
        raise ValueError(f"unknown material kind {kind!r}; choose from {MATERIAL_KINDS}")
    level, bulk_delay, human = _MATERIAL_TABLE[kind]
    freq = np.linspace(f_lo_hz, f_hi_hz, points)
    atten = np.full(points, level)
    if kind != "free_space":
        # gentle tilt across the band; keeps the stated mean, adds texture
        span = f_hi_hz - f_lo_hz
        atten = level + 0.8 * (freq - freq.mean()) / span
        atten = np.clip(atten, 0.0, None)
    phase = -2.0 * math.pi * bulk_delay * freq
    if human:
        phase = phase + HUMAN_PHASE_CURVATURE * (freq - HUMAN_PHASE_CENTER_HZ) ** 2
    return MaterialSignature(freq, atten, phase)


def _fast_len(n: int) -> int:
    """Round up to a multiple of 2048: composite FFT sizes, no slow primes."""
    return int(math.ceil(n / 2048)) * 2048


def _filter(w: Waveform, n: int, h: np.ndarray) -> Waveform:
    """Filter by the response ``h`` on the n // 2 + 1 bins of an ``n``-point rFFT.

    The output spans all ``n`` samples; its mean power over all of them is
    the SNR reference (``add_awgn``'s default, ``Scenario.powers``).
    ``apply_signature`` does the same with a cached spectrum.
    """
    return Waveform(np.fft.irfft(np.fft.rfft(w.samples, n=n) * h, n=n), w.dt)


# the detection path's traffic: 4 packaged pulses x 2 record lengths (the
# padded human kinds and the rest)
@lru_cache(maxsize=8)
def _rfft(samples: bytes, n: int) -> np.ndarray:
    """Read-only n-point rFFT of raw float64 samples.

    ``apply_signature`` filters a TX pulse's spectrum and ``detection``
    divides by it on the same grid, so both read it from this one cache.
    """
    spectrum = np.fft.rfft(np.frombuffer(samples), n=n)
    spectrum.flags.writeable = False  # shared through the cache
    return spectrum


# the six material kinds at one waveform length: the packaged pulses share theirs
@lru_cache(maxsize=len(MATERIAL_KINDS))
def _signature_response(
    freq: bytes, attenuation: bytes, phase: bytes, dt: float, size: int
) -> tuple[int, np.ndarray]:
    """FFT length n and read-only response on its rFFT grid of a signature (raw float64 bytes).

    The ``size``-sample waveform is zero-padded on the grid past the
    signature's largest group delay, so the circular convolution cannot
    wrap. A signature that does not cover [0, Nyquist] raises
    ``ValueError``, which the cache never stores.
    """
    freq_hz, attenuation_db, phase_rad = (np.frombuffer(b) for b in (freq, attenuation, phase))
    nyquist = 0.5 / dt
    if freq_hz[0] > 1e-9 or freq_hz[-1] < nyquist * (1 - 1e-12):
        raise ValueError(
            f"signature grid [{freq_hz[0]:.3g}, {freq_hz[-1]:.3g}] Hz does not "
            f"cover the waveform band [0, {nyquist:.3g}] Hz")
    group_delay = np.max(np.abs(np.gradient(phase_rad, freq_hz))) / (2.0 * math.pi)
    pad = int(math.ceil(group_delay / dt)) + 64
    n = _fast_len(size + 2 * pad)
    f = np.fft.rfftfreq(n, d=dt)
    att = np.interp(f, freq_hz, attenuation_db)
    h = 10.0 ** (-att / 20.0) * np.exp(1j * np.interp(f, freq_hz, phase_rad))
    h.flags.writeable = False  # shared through the cache
    return n, h


# Bins per block of the phasor product in ``_tap_sum``; near sqrt(bins) keeps
# both exponential tables small for the 1k-3k-bin grids of one propagated pulse
# (2,048-6,144-point records).
_PHASOR_BLOCK = 64

# Multiply-adds per matrix product in ``_tap_sum``. OpenBLAS 0.3.31 runs a
# complex product of 2**16 or more multiply-adds on a second thread, and that
# thread then busy-waits for the next product, taking a core for the rest of
# the sweep; half that size leaves a margin. Chunking keeps the product on the
# calling thread without setting a thread count, which would also slow the
# designer's large products.
_SINGLE_THREAD_PRODUCT = 2**15


def _tap_sum(taps: tuple[tuple[float, float], ...], df: float, bins: int) -> np.ndarray:
    """H[k] = sum over taps of gain * exp(-2 pi i k df delay), for k < bins.

    With k = B*b + j the phasor factors into a per-block term and a
    within-block term, so the tap sum is a (blocks x taps) @ (taps x B)
    complex matrix product: taps * (bins/B + B) exponentials instead of
    taps * bins. The product runs in chunks of block rows, each under
    ``_SINGLE_THREAD_PRODUCT`` multiply-adds where the tap count allows.
    A lone unit tap at delay 0 gives exactly 1 on every bin.
    """
    delays, gains = np.asarray(taps, dtype=float).T
    # a power-of-two scale puts the largest |gain| in [1, 2), so a subnormal gain
    # rounds once, not in every product; a sampled channel's LOS gain 1 needs none
    shift = math.frexp(float(np.max(np.abs(gains))))[1] - 1
    rate = -2j * math.pi * df * delays
    within = np.exp(np.outer(rate, np.arange(_PHASOR_BLOCK)))
    across = (np.ldexp(gains, -shift)[:, None] * np.exp(
        np.outer(rate, np.arange(0, bins, _PHASOR_BLOCK)))).T
    rows = max(1, _SINGLE_THREAD_PRODUCT // (delays.size * _PHASOR_BLOCK))
    total = np.concatenate([across[i:i + rows] @ within
                            for i in range(0, across.shape[0], rows)]).ravel()[:bins]
    return np.ldexp(total.view(float), shift).view(complex) if shift else total


def apply_signature(w: Waveform, sig: MaterialSignature) -> Waveform:
    """Filter a waveform by a material's frequency response.

    Multiplies the spectrum by 10^(-att/20) * exp(i*phase) (linearly
    interpolated onto the FFT grid) and returns the real time-domain result.
    The waveform is zero-padded past the signature's worst group delay so
    the circular convolution cannot wrap. The response and the waveform's
    spectrum are cached by content, so repeating a (waveform, signature)
    pair repeats only the product and the inverse FFT.
    """
    n, h = _signature_response(sig.freq_hz.tobytes(), sig.attenuation_db.tobytes(),
                               sig.phase_rad.tobytes(), w.dt, w.samples.size)
    return Waveform(np.fft.irfft(_rfft(w.samples.tobytes(), n) * h, n=n), w.dt)


def propagate(w: Waveform, distance_m: float, cir: ChannelRealization) -> Waveform:
    """Delay by distance/c and convolve with the channel taps, in free space.

    The absolute delay goes through the windowed-sinc interpolator; taps are
    applied as band-limited delays on the FFT grid, so a single unit tap
    reproduces ``delay(w, distance/c)`` exactly. Materials filter only the
    detection path (``apply_signature``).
    """
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    delayed = delay(w, distance_m / SPEED_OF_LIGHT)
    n = _record_length(w.samples.size, distance_m, cir, w.dt)
    # rfftfreq's bin 1 is exactly 1.0 / (n * dt), so the tap sum sees its grid
    return _filter(delayed, n, _tap_sum(cir.taps, 1.0 / (n * w.dt), n // 2 + 1))


def _record_length(size: int, distance_m: float, cir: ChannelRealization, dt: float) -> int:
    """Samples ``propagate`` returns for a ``size``-sample waveform: its FFT length.

    The delayed waveform plus 128 guard samples past the delay spread, rounded
    up by ``_fast_len``. The record length sets the mean power that the SNR
    is referred to, so a test pins it; ``simulate.build_scenario`` sizes the
    overlap-added burst record by it.
    """
    delayed = _delayed_size(size, distance_m / SPEED_OF_LIGHT, dt)
    return _fast_len(delayed + int(math.ceil(cir.delay_spread / dt)) + 128)


# -- serialization ----------------------------------------------------------

def signature_from_csv(rows: np.ndarray) -> MaterialSignature:
    """The signature of `freq_hz,attenuation_db,phase_rad` rows, as ``read_csv`` returns them."""
    return MaterialSignature(rows[:, 0], rows[:, 1], rows[:, 2])


def cir_to_csv(cir: ChannelRealization, path: str | Path) -> None:
    write_csv(path, ["delay_s", "gain"], cir.taps, digits=12)
