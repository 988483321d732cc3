"""Human-presence classification from attenuation and phase-linearity.

A propagation medium leaves two fingerprints on a UWB signal: how much it
attenuates, and whether its phase response stays linear in frequency.
Artificial structures (doors, walls) are lossy but phase-linear; a human
body is both strongly lossy and phase-distorting. The classifier requires
both features to call a human, which suppresses false alarms from merely
lossy media.

The module has one cache, ``_tx_reference``: the kept bins of a TX pulse on
an n-point rFFT, computed once per (pulse, record length), as ``ranging``
calibrates once per pulse. The spectrum itself is ``channel._rfft``'s, the
one ``apply_signature`` filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MaterialSignature, _rfft
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


@dataclass(frozen=True)
class DetectionThresholds:
    """``classify``'s two human tests, each one that some medium can fail.

    A medium under ``ARTIFICIAL_FLOOR_DB`` is free space, and every phase
    nonlinearity is >= 0, so attenuation_db >= that floor and nonlinearity_rad > 0.
    """

    attenuation_db: float = 30.0
    nonlinearity_rad: float = 0.3

    def __post_init__(self) -> None:
        if not self.attenuation_db >= ARTIFICIAL_FLOOR_DB:
            raise ValueError(f"attenuation threshold must be >= the {ARTIFICIAL_FLOOR_DB} dB "
                             f"free-space floor, got {self.attenuation_db}")
        if not self.nonlinearity_rad > 0.0:
            raise ValueError(f"nonlinearity threshold must be > 0, got {self.nonlinearity_rad}")


@dataclass(frozen=True)
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


def estimate_transfer(tx: Waveform, rx: Waveform) -> MaterialSignature:
    """Estimate the medium's frequency response as the spectral ratio RX/TX.

    Both spectra span the longer record. Bins where |TX| sits below
    ``NOISE_FLOOR_REL_DB`` of its peak are excluded (division there is
    dominated by noise). Attenuation is clamped at zero so noise cannot
    report gain. The band is the TX pulse's -10 dB bandwidth. An all-zero
    TX, or an RX that is zero on every kept bin, raises ``ValueError``.
    """
    check_grid(tx, rx)
    n = max(tx.samples.size, rx.samples.size)
    samples = tx.samples.tobytes()
    keep = _tx_reference(samples, tx.dt, n)
    rx_kept = np.fft.rfft(rx.samples, n=n)[keep]
    if not rx_kept.any():  # 0 / TX has no phase to fit
        raise ValueError("no signal was received in the TX band: every kept RX bin is zero")
    h = rx_kept / _rfft(samples, n)[keep]
    attenuation = np.clip(-20.0 * np.log10(np.maximum(np.abs(h), 1e-300)), 0.0, None)
    phase = np.unwrap(np.angle(h))
    return MaterialSignature(np.fft.rfftfreq(n, d=tx.dt)[keep], attenuation, phase)


# the six material kinds give each pulse 2 record lengths (the padded human
# kinds and the rest), so the 4 packaged pulses fill 8 entries
@lru_cache(maxsize=8)
def _tx_reference(samples: bytes, dt: float, n: int) -> np.ndarray:
    """Read-only kept-bin mask of a TX pulse (raw float64 bytes) on an n-point rFFT.

    A bin is kept inside the band and above the noise floor. An all-zero
    pulse, or fewer than 3 kept bins, which cannot fit a phase line, raise
    ``ValueError``, which the cache never stores. The spectrum is
    ``channel._rfft``'s, the one ``apply_signature`` filtered; neither its
    kept bins nor their frequencies are cached, since a copy would hold up to
    16 bytes a bin and gathering them costs a negligible share of a call.
    """
    if not np.frombuffer(samples).any():
        raise ValueError("the TX pulse is all zeros: a zero-energy pulse has no spectrum "
                         "to divide the RX by")
    tx_spec = _rfft(samples, n)
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
    keep.flags.writeable = False  # shared through the cache
    return keep


def phase_nonlinearity(sig: MaterialSignature) -> float:
    """RMS residual (rad) of the best linear fit of unwrapped phase vs frequency.

    Zero for any affine phase; invariant under adding an affine function.
    The centred regressor f is orthogonal to the constant column, so the
    least-squares intercept is mean(φ) and the slope is f·φ / f·f. The slope
    is taken on the centred phase: f sums to zero only up to rounding, and on
    a grid far from 0 Hz that rounding would otherwise leak mean(φ) into it.
    """
    f = sig.freq_hz - sig.freq_hz.mean()
    phi = sig.phase_rad - sig.phase_rad.mean()
    resid = phi - (f @ phi / (f @ f)) * f
    return float(np.sqrt(np.mean(resid**2)))


def mean_attenuation(sig: MaterialSignature) -> float:
    """Arithmetic mean of the attenuation over the signature band."""
    return float(np.mean(sig.attenuation_db))


def classify(sig: MaterialSignature, thresholds: DetectionThresholds | None = None) -> DetectionVerdict:
    """Label a signature from its two fingerprint metrics.

    human_present needs high attenuation AND nonlinear phase; a lossy medium
    failing either test is artificial_only; anything nearly transparent is
    free_space.
    """
    th = thresholds or DetectionThresholds()
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
