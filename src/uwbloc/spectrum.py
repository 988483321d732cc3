"""Power spectral density estimation and spectral-mask bookkeeping.

Convention used throughout: the PSD of a pulse is its one-sided energy
spectral density expressed per MHz, in dB relative to a unit reference
(written dBm/MHz). Under this convention the linear-unit PSD integrates to
the pulse energy (Parseval), so compliance against a mask in the same units
pins the admissible pulse energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import Waveform

__all__ = [
    "DisjointBandError",
    "SpectralMask",
    "fcc_like_mask",
    "psd",
    "mask_violation",
    "effectiveness",
]

# Clamp applied to log of empty bins; a zero waveform reports this everywhere.
DB_FLOOR = -400.0

HZ_PER_MHZ = 1e6


class DisjointBandError(ValueError):
    """Spectrum and mask have no frequency band in common."""


@dataclass(frozen=True)
class SpectralMask:
    """Piecewise-constant PSD ceiling: contiguous (f_lo, f_hi, limit) segments.

    Limits are in dBm/MHz; segments must be contiguous and non-overlapping.
    This is the one form of a mask: a custom one (a notch, other levels) is
    its own segments, which the design config's ``mask`` key lists as
    ``f_lo_hz``, ``f_hi_hz`` and ``limit_dbm_per_mhz`` objects.
    """

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        segs = tuple((float(a), float(b), float(c)) for a, b, c in self.segments)
        if not segs:
            raise ValueError("mask needs at least one segment")
        for f_lo, f_hi, limit in segs:
            if not -math.inf < f_lo < f_hi < math.inf:
                raise ValueError(f"segment must have finite f_lo < f_hi, got [{f_lo}, {f_hi}]")
            # -inf forbids a band; a NaN or +inf limit would make every pulse score zero
            if math.isnan(limit) or limit == math.inf:
                raise ValueError(f"segment limit must be a number or -inf, got {limit}")
        for (_, hi_prev, _), (lo_next, _, _) in zip(segs, segs[1:]):
            if not np.isclose(hi_prev, lo_next, rtol=1e-9, atol=1e-3):
                raise ValueError("mask segments must be contiguous")
        object.__setattr__(self, "segments", segs)

    @property
    def f_lo(self) -> float:
        return self.segments[0][0]

    @property
    def f_hi(self) -> float:
        return self.segments[-1][1]

    def limit_at(self, freq_hz: np.ndarray) -> np.ndarray:
        """Mask limit (dBm/MHz) at each frequency; NaN outside coverage."""
        f = np.asarray(freq_hz, dtype=float)
        out = np.full(f.shape, np.nan)
        for f_lo, f_hi, lim in self.segments:
            sel = (f >= f_lo) & (f < f_hi)
            out[sel] = lim
        out[np.isclose(f, self.f_hi)] = self.segments[-1][2]
        return out

    def integral_linear(self) -> float:
        """Integral of the linear-unit mask over its whole coverage (MHz axis)."""
        return sum(10.0 ** (lim / 10.0) * (b - a) / HZ_PER_MHZ for a, b, lim in self.segments)


def fcc_like_mask() -> SpectralMask:
    """The designer's default mask: an FCC-like baseband-equivalent ceiling.

    -41.3 dBm/MHz on the [0.5, 2.5] GHz passband and -51.3 dBm/MHz on the
    stopbands filling the rest of [0, 10] GHz. A notched or re-levelled mask
    is a ``SpectralMask`` of its own segments. This is a reproducible
    stand-in table, not a regulatory document.
    """
    return SpectralMask(((0.0, 0.5e9, -51.3), (0.5e9, 2.5e9, -41.3), (2.5e9, 10e9, -51.3)))


def _one_sided_weights(nfft: int) -> np.ndarray:
    """Weights folding an nfft-point rfft into a one-sided spectrum.

    Every bin counts twice except DC and, for even nfft, the Nyquist bin.
    """
    weights = np.full(nfft // 2 + 1, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    return weights


def psd(w: Waveform, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a pulse in dBm/MHz.

    Returns (freq_hz, density_db). The linear-unit density integrates to
    energy(w): sum(10**(density/10) * df_mhz) == energy to rounding. Empty
    bins are clamped at DB_FLOOR.
    """
    n = w.samples.size
    if nfft < n:
        raise ValueError(f"nfft ({nfft}) must be >= sample count ({n})")
    spec = np.fft.rfft(w.samples, n=nfft) * w.dt
    esd = np.abs(spec) ** 2
    lin = esd * _one_sided_weights(nfft) * HZ_PER_MHZ
    density = np.full(lin.shape, DB_FLOOR)
    nz = lin > 10.0 ** (DB_FLOOR / 10.0)
    density[nz] = 10.0 * np.log10(lin[nz])
    freq = np.fft.rfftfreq(nfft, d=w.dt)
    return freq, density


def _common_band(freq_hz: np.ndarray, mask: SpectralMask) -> np.ndarray:
    sel = (freq_hz >= mask.f_lo) & (freq_hz <= mask.f_hi)
    if not np.any(sel):
        raise DisjointBandError(
            f"spectrum band [{freq_hz[0]:.3g}, {freq_hz[-1]:.3g}] Hz does not "
            f"meet mask band [{mask.f_lo:.3g}, {mask.f_hi:.3g}] Hz"
        )
    return sel


def mask_violation(freq_hz: np.ndarray, density_db: np.ndarray, mask: SpectralMask) -> float:
    """Worst-case exceedance (dB) of the spectrum over the mask; <= 0 complies."""
    freq_hz = np.asarray(freq_hz, dtype=float)
    density_db = np.asarray(density_db, dtype=float)
    sel = _common_band(freq_hz, mask)
    limits = mask.limit_at(freq_hz[sel])
    return float(np.max(density_db[sel] - limits))


def effectiveness(freq_hz: np.ndarray, density_db: np.ndarray, mask: SpectralMask) -> float:
    """Fraction of the mask's allowed power budget the spectrum actually uses.

    Ratio of the linear-unit spectrum integral to the linear-unit mask
    integral, both over the mask's coverage band.
    """
    freq_hz = np.asarray(freq_hz, dtype=float)
    density_db = np.asarray(density_db, dtype=float)
    sel = _common_band(freq_hz, mask)
    denom = mask.integral_linear()
    if denom <= 0.0:
        raise ValueError("mask has zero integral; effectiveness undefined")
    f = freq_hz[sel]
    lin = 10.0 ** (density_db[sel] / 10.0)
    df_mhz = float(np.median(np.diff(freq_hz))) / HZ_PER_MHZ
    num = float(np.sum(lin) * df_mhz) if f.size > 1 else 0.0
    return num / denom

