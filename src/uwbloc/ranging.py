"""Time-of-arrival estimation with the dirty-template correlator.

The receiver never sees a clean template, so symbol-length slices of the
received signal are correlated against each other. With the alternating
training pattern (+1, +1, -1, -1, ...) the summed squared correlation of
consecutive slices is maximal wherever no pulse straddles a slice boundary
and collapses through zero exactly where one does: the objective carries a
deep, narrow notch whose walls trace the arriving pulse's energy profile.
(A plain argmax of the same objective is degenerate for
one-pulse-per-symbol bursts: every non-straddling offset ties for the
maximum.) The estimator finds the notch coarsely at the plateau's falling
edge, matched-filters the notch walls against the known pulse's energy
profile at a grid of sub-sample phases, and subtracts the same machinery's
reading on a clean synthetic reference, giving arrival estimates exact for
clean arrivals at any phase and stable to fractions of a picosecond under
multipath and noise. Bursts leave at t = 0, so an arrival time is the
flight time and a range is c times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import SPEED_OF_LIGHT
from .waveform import SINC_HALF_WIDTH, Waveform, delay

__all__ = [
    "TDT_TRAINING_PATTERN",
    "ToaEstimate",
    "calibration_samples",
    "make_burst",
    "read_window",
    "toa_dirty_template",
    "range_from_toa",
]

TDT_TRAINING_PATTERN = (1.0, 1.0, -1.0, -1.0)


def _samples_per_symbol(symbol_duration: float, dt: float) -> int:
    ratio = symbol_duration / dt
    if not math.isfinite(ratio):
        raise ValueError(
            f"symbol_duration {symbol_duration} spans no finite number of samples (dt={dt})")
    n = round(ratio)
    if n < 1 or abs(n * dt - symbol_duration) > 1e-6 * dt:
        raise ValueError(
            f"symbol_duration {symbol_duration} is not an integer number of samples (dt={dt})")
    return int(n)


def read_window(symbol_duration: float, dt: float, symbol_count: int) -> int:
    """Samples of a received record that ``toa_dirty_template`` reads, from t = 0.

    The objective's latest slice, at the last offset of the last slice pair,
    ends one sample short of ``symbol_count + 1`` whole symbols.
    """
    return (symbol_count + 1) * _samples_per_symbol(symbol_duration, dt) - 1


def calibration_samples(pulse: Waveform) -> int:
    """Samples of the calibration template: ``pulse`` delayed by a fraction of a sample.

    The interpolator lengthens the pulse by SINC_HALF_WIDTH samples, and a
    symbol must hold the whole template.
    """
    return pulse.samples.size + SINC_HALF_WIDTH


def make_burst(pulse: Waveform, symbol_duration: float, symbol_count: int,
               length: int | None = None) -> Waveform:
    """Overlap-add symbol_count pattern-signed copies of the pulse at symbol spacing, from t = 0.

    Every burst carries ``TDT_TRAINING_PATTERN`` and starts at t = 0: the
    estimator's sign fold and its calibration burst assume both. A pulse
    longer than a symbol, such as a received one with its multipath tail,
    overlaps the next copies; the burst is ``(symbol_count - 1)`` symbols
    plus the longer of a symbol and the pulse.

    With ``length`` the record has exactly that many samples: the burst cut
    there, or zero-padded to it, bit for bit. The copies are added straight
    into that record, and none is added past its end.
    """
    if symbol_count < 2:
        raise ValueError("symbol_count must be >= 2")
    n = _samples_per_symbol(symbol_duration, pulse.dt)
    p = pulse.samples
    if length is None:
        length = (symbol_count - 1) * n + max(n, p.size)
    elif length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    out = np.zeros(length)
    for i, sign in enumerate(_pattern_signs(symbol_count)):
        seg = out[i * n : i * n + p.size]
        # a +-1 sign: subtracting is adding sign * p, bit for bit, without the product
        (np.add if sign > 0 else np.subtract)(seg, p[: seg.size], out=seg)
    return Waveform(out, pulse.dt)


@lru_cache(maxsize=32)
def _pattern_signs(symbol_count: int) -> np.ndarray:
    """Sign of each of the first ``symbol_count`` symbols of the training pattern."""
    signs = np.resize(TDT_TRAINING_PATTERN, symbol_count)
    signs.flags.writeable = False  # shared by every caller through the cache
    return signs


@dataclass(frozen=True)
class ToaEstimate:
    """Arrival time in [0, T_sym], the symbol-ambiguity window."""

    toa: float
    objective_peak: float


def _slice_correlations(r: np.ndarray, n: int) -> np.ndarray:
    """g[j] = sum_{t<n} r[j+t] * r[j+n+t], for every start j, in O(len(r))."""
    u = r[: r.size - n] * r[n:]
    cum = np.empty(u.size + 1)
    cum[0] = 0.0
    np.cumsum(u, out=cum[1:])
    return cum[n:] - cum[:-n]


def _dirty_template_objective(g: np.ndarray, n: int, symbol_count: int) -> np.ndarray:
    """sum_k [ sum_t r[t + k*n + i] * r[t + (k-1)*n + i] ]^2 for offsets i < n."""
    pair_count = symbol_count - 1
    return np.sum(g[: pair_count * n].reshape(pair_count, n) ** 2, axis=0)


def toa_dirty_template(
    received: Waveform,
    symbol_duration: float,
    symbol_count: int,
    template: Waveform,
) -> ToaEstimate:
    """Estimate the arrival offset of a training burst within one symbol.

    Evaluates sum_k [ integral r(t + k*T + tau) * r(t + (k-1)*T + tau) dt ]^2
    on the sample grid and locates its cancellation notch, the offset band
    where slice boundaries cut through the arriving pulse. The notch is
    refined to a sub-sample position by matched-filtering against the
    transmit ``template``'s energy profile and calibrated against a clean
    synthetic reference, which makes the estimate unbiased.
    """
    if symbol_count < 2:
        raise ValueError("need at least 2 symbols")
    r = received.samples
    dt = received.dt
    n = _samples_per_symbol(symbol_duration, dt)
    calibration = calibration_samples(template)
    if n < calibration:
        raise ValueError(
            f"symbol of {n} samples is shorter than the {calibration}-sample calibration "
            "template (the pulse delayed by a fraction of a sample)")
    window = read_window(symbol_duration, dt, symbol_count)
    if r.size < window:
        raise ValueError(
            f"received waveform must cover at least {symbol_count + 1} symbol durations")
    # the objective and the sign fold read no later sample
    r = r[:window]

    # two-pass calibration: a first pass against the zero-phase reference
    # estimates the sub-sample phase, a second pass against a reference
    # shifted to that phase cancels the interpolator's phase-dependent bias.
    # Only the pulse's calibration is cached, so no estimate depends on which
    # estimates ran before it.
    bank, rel, zero_phase = _calibration(template.samples.tobytes(), template.dt)
    notch, peak = _notch_position(r, n, symbol_count, bank, rel)
    phase = (notch - zero_phase) % 1.0
    shifted = delay(template, phase * template.dt)
    offset = (notch - _reference_notch(shifted, bank, rel) + phase) % n
    return ToaEstimate(toa=offset * dt, objective_peak=peak * dt * dt)


def _notch_position(
    r: np.ndarray, n: int, symbol_count: int, bank: np.ndarray, rel: np.ndarray
) -> tuple[float, float]:
    """Sub-sample (offset, objective peak) of the objective's cancellation notch.

    The training pattern makes consecutive-slice correlations alternate in
    sign, so their sign-folded sum ramps through zero as the slice boundary
    sweeps across the arriving pulse. Multipath adds a near-constant
    background to that ramp, so the sub-sample stage works on the ramp's
    derivative (the arriving pulse's energy-density trace, background-free)
    and matched-filters it against the template's phase ``bank`` at lags ``rel``.
    """
    pair_count = symbol_count - 1
    g = _slice_correlations(r, n)
    obj = _dirty_template_objective(g, n, symbol_count)
    start = int(obj.argmax())
    peak = float(obj[start])
    floor = float(obj.min())
    # coarse stage: the objective is flat-max while every pulse sits inside a
    # slice and first loses half its contrast where the arrival starts to
    # straddle the boundary: walk right from the argmax to that falling edge,
    # wrapping past the last offset to the first
    thr = peak - 0.5 * (peak - floor)
    # no offset falls below thr for a flat or NaN objective
    if not (peak > 0.0 and floor < thr):
        raise ValueError("objective carries no timing structure; no usable signal")
    below = obj < thr
    notch = start + int(below[start:].argmax())
    if not below[notch]:
        notch = int(below.argmax())
    # row k holds slice pair k's correlations at the offsets around the notch;
    # the pair correlates symbols k and k + 1, so its sign is their product
    rows = g[: pair_count * n].reshape(pair_count, n).take((notch + rel) % n, axis=1)
    signs = _pattern_signs(symbol_count)
    folded = (signs[:-1] * signs[1:]) @ rows
    deriv = folded[:-1] - folded[1:]  # ramp falls, so this traces +energy
    return float(notch) + _bank_align(deriv, bank, rel), peak


_PHASE_BANK_SIZE = 32
_EPS = float(np.finfo(float).eps)
# symbols in every synthetic calibration burst: one full training-pattern period
_REFERENCE_SYMBOLS = 4


@lru_cache(maxsize=32)
def _calibration(samples: bytes, dt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Phase bank, fold lag grid and zero-phase notch of a pulse (raw float64 bytes).

    Bank row i holds the squared pulse delayed by i/size of a sample, zero-padded
    to a common width and unit-normalized, so the alignment search is a pure
    shape match. ``rel`` holds the notch-relative offsets the sign fold reads.
    The zero-phase notch is ``_reference_notch`` of the pulse on the sample
    grid.

    The reference burst has symbols of ``rel.size`` samples, the shortest in
    which the fold reads no offset twice, whatever the n of the timed record.
    That length cannot matter: between pulses the products r[t]·r[t+n] are
    exact zeros, so the cumulative sum, the objective and the fold take the
    same values relative to each symbol start for every n >= ``rel.size``.
    """
    template = Waveform(np.frombuffer(samples), dt)
    rows = [delay(template, i / _PHASE_BANK_SIZE * dt).samples ** 2
            for i in range(_PHASE_BANK_SIZE)]
    bank = np.zeros((_PHASE_BANK_SIZE, max(row.size for row in rows)))
    for i, row in enumerate(rows):
        bank[i, : row.size] = row / np.linalg.norm(row)
    rel = np.arange(-bank.shape[1] - 8, bank.shape[1] + 9)
    bank.flags.writeable = rel.flags.writeable = False  # shared through the cache
    return bank, rel, _reference_notch(template, bank, rel)


def _bank_align(deriv: np.ndarray, bank: np.ndarray, rel: np.ndarray) -> float:
    """Best (integer lag, sub-sample phase) alignment of the density trace.

    Scores every bank phase at every lag, takes the global best, and
    interpolates across the phase axis (scores vary smoothly there) for a
    resolution finer than the bank spacing.

    One matrix product scores every (phase, lag). Its sums run in another
    order than ``np.correlate``'s dot products, but any order of a
    width-term dot product of a unit-norm bank row lies within about
    width * eps * ||deriv|| of the true score, so every exact maximiser
    scores within tol = 4 * width * eps * ||deriv|| of the product's maximum.
    Those candidates and the interpolation neighbours are rescored with
    ``np.dot``, the dot kernel ``np.correlate`` uses, and the first maximum
    in flat order wins as in ``np.argmax``: the result is bit-identical to
    scoring each phase with ``np.correlate`` (for finite ``deriv``).
    """
    nb, width = bank.shape
    lags = deriv.size - width + 1
    windows = np.ndarray((lags, width), buffer=deriv, strides=deriv.strides * 2)
    approx = bank @ windows.T
    tol = 4 * width * _EPS * math.sqrt(deriv.dot(deriv))
    candidates = np.flatnonzero(approx >= approx.max() - tol)

    def score_at(phase_idx: int, lag_idx: int) -> float:
        q, r = divmod(phase_idx, nb)
        # advancing a full sample re-uses phase r at the next lag
        j = lag_idx + q
        if 0 <= j < lags:
            return float(np.dot(windows[j], bank[r]))
        return -np.inf

    exact = [score_at(*divmod(int(c), lags)) for c in candidates]
    y1 = max(exact)
    pi, lag = divmod(int(candidates[exact.index(y1)]), lags)
    y0 = score_at(pi - 1, lag)
    y2 = score_at(pi + 1, lag)
    frac = 0.0
    denom = y0 - 2.0 * y1 + y2
    if math.isfinite(y0) and math.isfinite(y2) and denom < 0.0:
        frac = min(max(0.5 * (y0 - y2) / denom, -0.5), 0.5)
    return float(rel[lag]) + (pi + frac) / nb


def _reference_notch(pulse: Waveform, bank: np.ndarray, rel: np.ndarray) -> float:
    """Notch position of a clean ``_REFERENCE_SYMBOLS``-symbol burst of ``pulse``.

    Running the identical machinery on a synthetic reference makes the
    calibration exact: every discretization and interpolation effect cancels
    in the subtraction. An off-grid reference arrival passes the pulse delayed
    with the same band-limited interpolator the simulation uses. The burst's
    symbols are ``rel.size`` samples long, and it gets one silent symbol
    appended: the estimator reads one symbol past it.
    """
    n = rel.size
    ref = make_burst(pulse, n * pulse.dt, _REFERENCE_SYMBOLS, (_REFERENCE_SYMBOLS + 1) * n)
    return _notch_position(ref.samples, n, _REFERENCE_SYMBOLS, bank, rel)[0]


def range_from_toa(est: ToaEstimate) -> float:
    """Range in meters, c * toa: bursts leave at t = 0, so the ToA is the flight time."""
    return SPEED_OF_LIGHT * est.toa
