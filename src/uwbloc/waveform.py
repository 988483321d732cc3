"""Sampled real-valued signals and the arithmetic every other module builds on.

A :class:`Waveform` is a uniformly sampled real signal: an amplitude array
and a sample interval ``dt``, with its first sample at t = 0. All operations
here are pure; waveforms are never mutated in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridMismatchError",
    "Waveform",
    "check_grid",
    "delay",
    "add_awgn",
    "write_csv",
    "read_csv",
    "json_number",
    "waveform_from_csv",
    "waveform_from_json",
]

# Windowed-sinc interpolator used for fractional delays: half-width in samples,
# Hann-windowed. Wide enough that in-band signals keep their energy to <1%.
SINC_HALF_WIDTH = 32


class GridMismatchError(ValueError):
    """Two waveforms live on incompatible sample grids."""


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal whose first sample sits at t = 0.

    samples: amplitude values (dimensionless)
    dt:      sample interval in seconds, > 0
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples.size)


def check_grid(a: Waveform, b: Waveform) -> None:
    """Raise GridMismatchError unless the two waveforms share one sample interval."""
    if not math.isclose(a.dt, b.dt, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(f"sample intervals differ: {a.dt} vs {b.dt}")


def _fractional_delay_kernel(frac: float) -> np.ndarray:
    """Hann-windowed sinc interpolation kernel for a sub-sample shift.

    ``frac`` is the delay in samples, in [1e-9, 1): ``delay`` shifts nearer
    whole samples exactly. Convolving with the kernel (offset by
    SINC_HALF_WIDTH) evaluates the band-limited signal at t - frac*dt.
    """
    # frac is no integer, so y is never 0 and |y| < pi * (SINC_HALF_WIDTH + 1):
    # the sinc needs no zero guard and the window no cut-off
    y = np.pi * (np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1) - frac)
    return np.sin(y) / y * (0.5 * (1.0 + np.cos(y / (SINC_HALF_WIDTH + 1))))


def _delay_split(tau: float, dt: float) -> tuple[int, float]:
    """tau / dt as ``delay`` applies it: k whole samples and a fraction in
    [1e-9, 1), or 0.0 within 1e-9 of a whole sample, which shifts exactly."""
    shift = tau / dt
    k = int(math.floor(shift + 0.5))
    frac = shift - k
    if abs(frac) < 1e-9:
        return k, 0.0
    if frac < 0:
        return k - 1, frac + 1.0
    return k, frac


def _delayed_size(size: int, tau: float, dt: float) -> int:
    """Samples of ``delay(w, tau)`` for a ``size``-sample ``w``: the whole-sample
    shift, plus the interpolator's trailing half-width when a fraction remains."""
    k, frac = _delay_split(tau, dt)
    return size + k + (SINC_HALF_WIDTH if frac else 0)


def delay(w: Waveform, tau: float) -> Waveform:
    """Delay a waveform by tau >= 0 seconds; the output still starts at t = 0.

    Integer-sample delays are exact shifts; fractional parts use a
    Hann-windowed sinc interpolator (half-width 32 samples), which preserves
    the energy of in-band signals to within 1%.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    k, frac = _delay_split(tau, w.dt)
    if frac == 0.0:
        out = np.concatenate([np.zeros(k), w.samples])
        return Waveform(out, w.dt)
    h = _fractional_delay_kernel(frac)
    interp = np.convolve(w.samples, h)
    # convolve output index i corresponds to signal time (i - SINC_HALF_WIDTH + frac)*dt
    pad = k - SINC_HALF_WIDTH
    if pad >= 0:
        out = np.concatenate([np.zeros(pad), interp])
    else:
        out = interp[-pad:]
    return Waveform(out, w.dt)


def add_awgn(w: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add white Gaussian noise at the requested SNR.

    SNR is defined against the mean power of the full waveform extent
    (including any zero padding), the conventional definition in ranging
    simulations. ``snr_db = inf`` is the no-noise sentinel; NaN, ``-inf``, a
    waveform without power and a finite ``snr_db`` that scales the noise to 0
    or past the float range (beyond about +-3,080 dB) are rejected with a
    ``ValueError``. Deterministic: the output is a pure function of
    (w, snr_db, seed) via PCG64. It is ``_unit_noise``'s draw scaled by
    ``_add_noise``.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    if snr_db == math.inf:
        return Waveform(w.samples.copy(), w.dt)
    # the squares' buffer takes the noise draw below
    out = np.square(w.samples)
    return _add_noise(w, snr_db, float(np.mean(out)), _unit_noise(w.samples.size, seed, out=out))


def _unit_noise(size: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """``size`` unit-variance Gaussian samples from PCG64 seeded with ``seed``.

    The one noise draw: numpy fills the record without holding the GIL.
    """
    return np.random.default_rng(seed).standard_normal(size, out=out)


def _add_noise(w: Waveform, snr_db: float, power: float, noise: np.ndarray) -> Waveform:
    """``w`` plus ``noise``, a ``_unit_noise`` record of its length, scaled in
    place to a finite ``snr_db`` against ``power``: the one SNR scaling.

    A caller that noises only a prefix of a record passes the whole record's
    power, and gets the prefix of the noised record."""
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"SNR reference power must be finite and > 0, got {power}")
    try:
        sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) past the float range
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"snr_db {snr_db} scales the noise of power {power:.3g} to "
                         f"sigma {sigma}, which is not positive and finite")
    # sigma * z + x in place: bit-identical to x + rng.normal(0.0, sigma, size)
    noise *= sigma
    noise += w.samples
    return Waveform(noise, w.dt)


# -- serialization ----------------------------------------------------------

def write_csv(path: str | Path, header: list[str], rows, digits: int = 9) -> None:
    """Write a table: the header line, then one line per row.

    Float cells are written in exponent form with ``digits`` digits after the
    point; int cells are written unchanged.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.{digits}e}" if isinstance(x, float) else x for x in row])


def read_csv(path: str | Path) -> np.ndarray:
    """Inverse of ``write_csv``: the rows below the header line as a float array.

    The result is 2-D (rows x columns) even for a single row or column.
    """
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def json_number(value: object, name: str, integer: bool = False) -> int | float:
    """The one reading of a number in a JSON config, pulse set or waveform.

    A JSON integer if ``integer``, else any JSON number as a float. Anything
    else, an integer beyond the float range too, raises ValueError naming ``name``.
    """
    if type(value) is int and integer:
        return value
    if type(value) in (int, float) and not integer:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")


def waveform_from_csv(rows: np.ndarray) -> Waveform:
    """The waveform of `t,amplitude` rows, as ``read_csv`` returns them.

    Only the spacing of the time column is read: the first row becomes t = 0.
    """
    t, x = rows[:, 0], rows[:, 1]
    if t.size < 2:
        raise ValueError("cannot infer dt from fewer than 2 samples")
    dts = np.diff(t)
    dt = float(np.median(dts))
    if not np.allclose(dts, dt, rtol=1e-6, atol=0.0):
        raise ValueError("time column is not uniformly sampled")
    return Waveform(x, dt)


def waveform_from_json(obj: dict) -> Waveform:
    """The waveform of a ``{"dt", "samples"}`` object; other keys (an old t0) are ignored."""
    return Waveform([json_number(x, "samples") for x in obj["samples"]],
                    json_number(obj["dt"], "dt"))
