"""Human-presence classification from attenuation and phase-linearity.

A propagation medium leaves two fingerprints on a UWB signal: how much it
attenuates, and whether its phase response stays linear in frequency.
Artificial structures (doors, walls) are lossy but phase-linear; a human
body is both strongly lossy and phase-distorting. The classifier requires
both features to call a human, which suppresses false alarms from merely
lossy media.

The module has one cache, ``_tx_reference``: the kept-bin mask of a TX pulse
on an n-point rFFT and the pulse's spectrum on those bins, computed once per
(pulse, record length), as ``ranging`` calibrates once per pulse. The RX
record that ``apply_signature`` returns is shared and read-only; noise goes
on after it (``add_awgn``), so what ``estimate_transfer`` divides is never
cached.

The phase is ``np.unwrap(np.angle(h))`` in fewer passes (``_unwrap_angle``):
each step between bins drops its nearest whole turn, a tie ±π none, as in
``unwrap``, and the two differ by rounding only, too little to move a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MaterialSignature
from .waveform import Waveform, check_grid

__all__ = [
    "DetectionThresholds",
    "DetectionVerdict",
    "estimate_transfer",
    "phase_nonlinearity",
    "mean_attenuation",
    "classify",
]

# Spectral-division bins this far (dB) under the TX peak are discarded.
NOISE_FLOOR_REL_DB = -40.0
# The band keeps the TX spectrum within this many dB of its peak.
BAND_DROP_DB = 10.0
# A medium attenuating less than this (dB) on average is free space.
ARTIFICIAL_FLOOR_DB = 3.0


@dataclass(frozen=True, slots=True)
class DetectionThresholds:
    """``classify``'s two human tests, each one that some medium can fail.

    A medium under ``ARTIFICIAL_FLOOR_DB`` is free space, and every phase
    nonlinearity is >= 0, so attenuation_db >= that floor and nonlinearity_rad > 0.
    Both are finite: NaN never calls a human, and JSON has no inf.
    """

    attenuation_db: float = 30.0
    nonlinearity_rad: float = 0.3

    def __post_init__(self) -> None:
        if not ARTIFICIAL_FLOOR_DB <= self.attenuation_db < math.inf:
            raise ValueError(f"attenuation_db threshold must be finite and >= the "
                             f"{ARTIFICIAL_FLOOR_DB} dB free-space floor, got {self.attenuation_db}")
        if not 0.0 < self.nonlinearity_rad < math.inf:
            raise ValueError(f"nonlinearity_rad threshold must be finite and > 0, "
                             f"got {self.nonlinearity_rad}")


@dataclass(frozen=True, slots=True)
class DetectionVerdict:
    label: str  # human_present | artificial_only | free_space
    mean_attenuation_db: float
    phase_nonlinearity: float
    thresholds: DetectionThresholds

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_attenuation_db) and self.mean_attenuation_db >= 0):
            raise ValueError("mean attenuation must be finite and >= 0")
        if not (math.isfinite(self.phase_nonlinearity) and self.phase_nonlinearity >= 0):
            raise ValueError("phase nonlinearity must be finite and >= 0")


# frozen, so every classify call without thresholds shares it
DEFAULT_THRESHOLDS = DetectionThresholds()


def estimate_transfer(tx: Waveform, rx: Waveform) -> MaterialSignature:
    """Estimate the medium's frequency response as the spectral ratio RX/TX.

    Both spectra span the longer record. Bins where |TX| sits below
    ``NOISE_FLOOR_REL_DB`` of its peak are excluded (division there is
    dominated by noise). Attenuation is clamped at zero so noise cannot
    report gain. The band is the TX pulse's -10 dB bandwidth. An all-zero
    TX, or an RX that is zero on every kept bin, raises ``ValueError``.

    The ratio and the attenuation are computed in place, bit-identical to
    the out-of-place forms; the phase is ``_unwrap_angle``'s, which is
    ``np.unwrap(np.angle(h))`` to rounding, ties ±π corrected by 0 in both.
    """
    check_grid(tx, rx)
    n = max(tx.samples.size, rx.samples.size)
    keep, tx_kept = _tx_reference(tx.samples.tobytes(), tx.dt, n)
    h = np.fft.rfft(rx.samples, n=n)[keep]
    if not h.any():  # 0 / TX has no phase to fit
        raise ValueError("no signal was received in the TX band: every kept RX bin is zero")
    np.divide(h, tx_kept, out=h)
    attenuation = np.abs(h)
    np.maximum(attenuation, 1e-300, out=attenuation)
    np.log10(attenuation, out=attenuation)
    attenuation *= -20.0
    np.clip(attenuation, 0.0, None, out=attenuation)
    # rfftfreq(n, dt)[keep], without the full grid: rfftfreq is arange(n // 2 + 1) * (1 / (n dt))
    freq = np.flatnonzero(keep) * (1.0 / (n * tx.dt))
    return MaterialSignature(freq, attenuation, _unwrap_angle(h))


def _unwrap_angle(h: np.ndarray) -> np.ndarray:
    """``np.unwrap(np.angle(h))`` in fewer passes: each step loses its nearest whole turn.

    A step of ``angle`` lies in [-2π, 2π], so ``unwrap``'s only correction is
    -2π·round(step / 2π). Rounding half to even corrects the ties ±π by 0,
    as ``unwrap`` does; a step within rounding of a tie may round either way
    in the two. The turns are whole numbers, so their running sum is exact
    and φ_k sits within eps·2π·(k + 1) of angle(h_k) less whole turns, an
    exactly zero bin included. ``unwrap`` sums float corrections instead,
    whose rounding grows with the bin index, up to eps·2π·k²/4 at bin k.
    """
    phase = np.angle(h)
    turns = np.diff(phase)
    turns /= 2.0 * math.pi
    np.rint(turns, out=turns)
    np.cumsum(turns, out=turns)
    turns *= 2.0 * math.pi
    phase[1:] -= turns
    return phase


# the six material kinds give each pulse 2 record lengths (the padded human
# kinds and the rest), so the 4 packaged pulses fill 8 entries
@lru_cache(maxsize=8)
def _tx_reference(samples: bytes, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kept-bin mask of a TX pulse (raw float64 bytes) on an n-point
    rFFT, and the read-only spectrum on the kept bins.

    A bin is kept inside the band and above the noise floor. An all-zero
    pulse, or fewer than 3 kept bins, which cannot fit a phase line, raise
    ``ValueError``, which the cache never stores. The kept bins' frequencies
    are not cached: ``estimate_transfer`` forms them from the mask's indices.
    """
    pulse = np.frombuffer(samples)
    if not pulse.any():
        raise ValueError("the TX pulse is all zeros: a zero-energy pulse has no spectrum "
                         "to divide the RX by")
    tx_spec = np.fft.rfft(pulse, n=n)
    tx_mag = np.abs(tx_spec)
    freq = np.fft.rfftfreq(n, d=dt)
    strong = np.nonzero(tx_mag >= tx_mag.max() * 10.0 ** (-BAND_DROP_DB / 20.0))[0]
    f_lo, f_hi = freq[strong[0]], freq[strong[-1]]
    floor = np.max(tx_mag) * 10.0 ** (NOISE_FLOOR_REL_DB / 20.0)
    keep = (freq >= f_lo) & (freq <= f_hi) & (tx_mag >= floor)
    kept = np.count_nonzero(keep)
    if kept < 3:
        raise ValueError(
            f"the TX pulse has {kept} usable rFFT bins of {freq.size} "
            f"(band [{f_lo:.3g}, {f_hi:.3g}] Hz); a phase-line fit needs >= 3")
    tx_kept = tx_spec[keep]
    keep.flags.writeable = tx_kept.flags.writeable = False  # shared through the cache
    return keep, tx_kept


def phase_nonlinearity(sig: MaterialSignature) -> float:
    """RMS residual (rad) of the best linear fit of unwrapped phase vs frequency.

    Zero for any affine phase; invariant under adding an affine function.
    The centred regressor f is orthogonal to the constant column, so the
    least-squares intercept is mean(φ) and the slope is f·φ / f·f. The slope
    is taken on the centred phase: f sums to zero only up to rounding, and on
    a grid far from 0 Hz that rounding would otherwise leak mean(φ) into it.
    Both are first scaled by ``_unit_scale``, so no square over- or underflows.
    """
    freq = sig.freq_hz
    f = freq * _unit_scale(max(-freq[0], freq[-1]))  # the grid increases
    f -= f.mean()
    scale = _unit_scale(max(-sig.phase_rad.min(), sig.phase_rad.max()))
    phi = sig.phase_rad * scale
    phi -= phi.mean()
    # numpy's own loop, not BLAS: OpenBLAS runs ddot on a second thread above
    # 10,000 elements, a human kind's bin count, and that thread then spins
    f *= np.einsum("i,i->", f, phi) / np.einsum("i,i->", f, f)
    phi -= f  # the residual
    phi *= phi
    return float(np.sqrt(np.mean(phi))) / scale


def mean_attenuation(sig: MaterialSignature) -> float:
    """Arithmetic mean of the attenuation over the signature band, at ``_unit_scale``."""
    scale = _unit_scale(sig.attenuation_db.max())  # the attenuation is >= 0
    return float(np.mean(sig.attenuation_db * scale)) / scale


def _unit_scale(peak: float) -> float:
    """The power of two that takes |peak| into [0.5, 1), or below it for a subnormal
    peak, whose inverse power would pass the float range; 1 for 0. Scaling by it is
    exact, so scaled sums and squares round as unscaled ones would where those
    neither over- nor underflow, and scale back exactly: everyday signatures keep
    their bits, and any finite one gets finite metrics."""
    return math.ldexp(1.0, -max(math.frexp(float(peak))[1], -1022))


def classify(sig: MaterialSignature, thresholds: DetectionThresholds | None = None) -> DetectionVerdict:
    """Label a signature from its two fingerprint metrics.

    human_present needs high attenuation AND nonlinear phase; a lossy medium
    failing either test is artificial_only; anything nearly transparent is
    free_space.
    """
    th = thresholds or DEFAULT_THRESHOLDS
    atten = mean_attenuation(sig)
    nonlin = phase_nonlinearity(sig)
    if atten >= th.attenuation_db and nonlin >= th.nonlinearity_rad:
        label = "human_present"
    elif atten >= ARTIFICIAL_FLOOR_DB:
        label = "artificial_only"
    else:
        label = "free_space"
    return DetectionVerdict(
        label=label,
        mean_attenuation_db=atten,
        phase_nonlinearity=nonlin,
        thresholds=th,
    )
