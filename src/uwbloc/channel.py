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
``apply_signature`` caches each pair's filtered record by content and hands
out that one read-only ``Waveform``; the module's one cache, ``_filtered``,
takes the pulse's rFFT itself on a miss. ``propagate``'s delayed input
never repeats, so it filters uncached.
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

# Most taps a profile may draw, 6.4 times the default's 40. ``sample_cir`` appends
# taps one at a time, and ``_tap_sum``'s phasor table holds taps / 64 complex
# entries per record sample: at this cap 4 times the record's own bytes, which
# the record cap (``simulate.MAX_RECORD_SAMPLES``) then bounds as well.
MAX_TAPS = 256


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
        if self.tap_count_max > MAX_TAPS:
            raise ValueError(f"tap_count_max must be <= {MAX_TAPS}, got {self.tap_count_max}")
        # the taps drawn to reach the target are a Poisson count of this mean; half
        # the cap leaves a margin of many standard deviations for the draw
        arrivals = (self.delay_spread_target - self.min_excess_delay) / self.mean_tap_spacing
        if arrivals > MAX_TAPS // 2:
            raise ValueError(
                f"(delay_spread_target - min_excess_delay) / mean_tap_spacing is {arrivals:.3g} "
                f"taps on average, more than {MAX_TAPS // 2}")
        # a reflection has lost energy that the unit line-of-sight path has not; an
        # unbounded scale (1e300) overflowed the SNR reference power to inf
        if self.mpc_relative_gain > 1:
            raise ValueError(f"mpc_relative_gain must be <= 1, got {self.mpc_relative_gain}")


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
# material_response's grid: 0 Hz to 10 GHz in 5 MHz steps
MATERIAL_F_MAX_HZ = 10e9
MATERIAL_POINTS = 2001

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
        # one pass or two each: a NaN fails every comparison, and NaN and
        # ±inf reach the min or the max
        if not (f[1:] > f[:-1]).all():
            raise ValueError("frequency grid must be strictly increasing")
        # an increasing grid may still start at -inf or end at +inf
        if not (math.isfinite(f[0]) and math.isfinite(f[-1])):
            raise ValueError("frequency grid must be finite")
        if not ((a >= 0).all() and np.isfinite(a.max())):
            raise ValueError("attenuation must be finite and >= 0")
        # bounds the phase-line fit's RMS residual, which is at most this span
        if not np.isfinite(p.max() - p.min()):
            raise ValueError("phase must be finite, and its span a float")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "attenuation_db", a)
        object.__setattr__(self, "phase_rad", p)


def material_response(kind: str) -> MaterialSignature:
    """Synthetic per-kind signature on the uniform grid of ``MATERIAL_POINTS``
    frequencies from 0 to ``MATERIAL_F_MAX_HZ``.

    Artificial media: ~10 dB loss with an exactly linear phase. Human cases:
    ~50 dB loss with a quadratic phase distortion on top of the linear term,
    calibrated to ~1 rad RMS linear-fit residual per 200 MHz window.
    """
    if kind not in _MATERIAL_TABLE:
        raise ValueError(f"unknown material kind {kind!r}; choose from {MATERIAL_KINDS}")
    level, bulk_delay, human = _MATERIAL_TABLE[kind]
    freq = np.linspace(0.0, MATERIAL_F_MAX_HZ, MATERIAL_POINTS)
    atten = np.full(MATERIAL_POINTS, level)
    if kind != "free_space":
        # gentle tilt across the band; keeps the stated mean, adds texture
        atten = level + 0.8 * (freq - freq.mean()) / MATERIAL_F_MAX_HZ
        atten = np.clip(atten, 0.0, None)
    phase = -2.0 * math.pi * bulk_delay * freq
    if human:
        phase = phase + HUMAN_PHASE_CURVATURE * (freq - HUMAN_PHASE_CENTER_HZ) ** 2
    return MaterialSignature(freq, atten, phase)


def _fast_len(n: int) -> int:
    """Round up to a multiple of 2048: composite FFT sizes, no slow primes."""
    return int(math.ceil(n / 2048)) * 2048


# the detection path's traffic: 4 packaged pulses x the six material kinds
@lru_cache(maxsize=4 * len(MATERIAL_KINDS))
def _filtered(samples: bytes, dt: float, freq: bytes, attenuation: bytes,
              phase: bytes) -> Waveform:
    """``apply_signature``'s read-only record of a pulse and a signature (raw float64 bytes).

    The pulse is zero-padded on the grid past the signature's largest group
    delay, so the circular convolution cannot wrap.
    """
    freq_hz, attenuation_db, phase_rad = (np.frombuffer(b) for b in (freq, attenuation, phase))
    group_delay = np.max(np.abs(np.gradient(phase_rad, freq_hz))) / (2.0 * math.pi)
    n = _fast_len(len(samples) // 8 + 2 * (int(math.ceil(group_delay / dt)) + 64))
    f = np.fft.rfftfreq(n, d=dt)
    h = (10.0 ** (-np.interp(f, freq_hz, attenuation_db) / 20.0)
         * np.exp(1j * np.interp(f, freq_hz, phase_rad)))
    record = np.fft.irfft(np.fft.rfft(np.frombuffer(samples), n=n) * h, n=n)
    record.flags.writeable = False  # shared through the cache
    return Waveform(record, dt)


# Bins per block of the phasor product in ``_tap_sum``; near sqrt(bins) keeps
# both phasor tables small for the 1k-3k-bin grids of one propagated pulse
# (2,048-6,144-point records). It is also the run of products between two
# exact exponentials in ``_phasor_columns``.
_PHASOR_BLOCK = 64

# Multiply-adds per matrix product in ``_tap_sum``. OpenBLAS 0.3.31 runs a
# complex product of 2**16 or more multiply-adds on a second thread, and that
# thread then busy-waits for the next product, taking a core for the rest of
# the sweep; half that size leaves a margin. Chunking keeps the product on the
# calling thread without setting a thread count, which would also slow the
# designer's large products.
_SINGLE_THREAD_PRODUCT = 2**15


def _phasor_columns(scale: np.ndarray | float, rate: np.ndarray, count: int) -> np.ndarray:
    """(count, taps) table of scale[t] * exp(rate[t] * j) for j < count.

    Each column is a running product of the one phasor exp(rate[t]) that
    restarts from an exact exponential, times the scale, every
    ``_PHASOR_BLOCK`` rows: no entry is more than ``_PHASOR_BLOCK - 1``
    products deep at any count, and a column costs 1 + ceil(count / 64)
    exponentials instead of count.
    """
    segments = -(-count // _PHASOR_BLOCK)
    table = np.empty((segments, _PHASOR_BLOCK, rate.size), dtype=complex)
    table[:] = np.exp(rate)
    table[:, 0] = np.exp(np.multiply.outer(np.arange(0, count, _PHASOR_BLOCK), rate)) * scale
    np.cumprod(table, axis=1, out=table)
    return table.reshape(-1, rate.size)[:count]


def _tap_sum(taps: tuple[tuple[float, float], ...], df: float, bins: int) -> np.ndarray:
    """H[k] = sum over taps of gain * exp(-2 pi i k df delay), for k < bins.

    With k = B*b + j the phasor factors into a per-block term and a
    within-block term, so the tap sum is a (blocks x taps) @ (taps x B)
    complex matrix product. ``_phasor_columns`` builds both tables by
    products of one phasor per tap, exp(rate) and exp(B * rate), with the
    scaled gains in the across-block table's restarts: 3 + ceil(blocks / B)
    exponentials per tap, 4 up to 4,096 bins, instead of B + blocks. The
    product runs in chunks of block rows, each under
    ``_SINGLE_THREAD_PRODUCT`` multiply-adds where the tap count allows.
    A lone unit tap at delay 0 gives exactly 1 on every bin.
    """
    delays, gains = np.asarray(taps, dtype=float).T
    # a power-of-two scale puts the largest |gain| in [1, 2), so a subnormal gain
    # rounds once, not in every product; a sampled channel's LOS gain 1 needs none
    shift = math.frexp(float(np.max(np.abs(gains))))[1] - 1
    rate = -2j * math.pi * df * delays
    within = _phasor_columns(1.0, rate, _PHASOR_BLOCK).T
    across = _phasor_columns(np.ldexp(gains, -shift), _PHASOR_BLOCK * rate,
                             -(-bins // _PHASOR_BLOCK))
    rows = max(1, _SINGLE_THREAD_PRODUCT // (delays.size * _PHASOR_BLOCK))
    total = np.concatenate([across[i:i + rows] @ within
                            for i in range(0, across.shape[0], rows)]).ravel()[:bins]
    return np.ldexp(total.view(float), shift).view(complex) if shift else total


def apply_signature(w: Waveform, sig: MaterialSignature) -> Waveform:
    """Filter a waveform by a material's frequency response.

    Multiplies the spectrum by 10^(-att/20) * exp(i*phase) (linearly
    interpolated onto the FFT grid) and returns the real time-domain result.
    The waveform is zero-padded past the signature's worst group delay so
    the circular convolution cannot wrap. A signature that does not cover
    [0, Nyquist] raises ``ValueError`` before any cache stores anything.

    The record is cached by the content of the pair, so a repeated pair
    returns the same ``Waveform``, whose samples are read-only.
    """
    freq_hz, nyquist = sig.freq_hz, 0.5 / w.dt
    if freq_hz[0] > 1e-9 or freq_hz[-1] < nyquist * (1 - 1e-12):
        raise ValueError(
            f"signature grid [{freq_hz[0]:.3g}, {freq_hz[-1]:.3g}] Hz does not "
            f"cover the waveform band [0, {nyquist:.3g}] Hz")
    return _filtered(w.samples.tobytes(), w.dt, freq_hz.tobytes(), sig.attenuation_db.tobytes(),
                     sig.phase_rad.tobytes())


def propagate(w: Waveform, distance_m: float, cir: ChannelRealization) -> Waveform:
    """Delay by distance/c and convolve with the channel taps, in free space.

    The absolute delay goes through the windowed-sinc interpolator; taps are
    applied as band-limited delays on the n // 2 + 1 bins of an n-point rFFT,
    so a single unit tap reproduces ``delay(w, distance/c)`` exactly. The
    output spans all n samples of the record (``_record_length``); its mean
    power over all of them is the SNR reference (``add_awgn``'s default,
    ``Scenario.powers``). Materials filter only the detection path
    (``apply_signature``).
    """
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    delayed = delay(w, distance_m / SPEED_OF_LIGHT)
    n = _record_length(w.samples.size, distance_m, cir, w.dt)
    # rfftfreq's bin 1 is exactly 1.0 / (n * dt), so the tap sum sees its grid
    h = _tap_sum(cir.taps, 1.0 / (n * w.dt), n // 2 + 1)
    return Waveform(np.fft.irfft(np.fft.rfft(delayed.samples, n=n) * h, n=n), w.dt)


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
