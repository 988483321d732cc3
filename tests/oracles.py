"""Independent references the tests compare the pipeline against.

None of these is a pipeline step: the pipeline's fix is the closed-form
Bancroft solve, its ToA calibration a synthetic reference burst, and no
pipeline step needs a signal's energy or its cross-correlation. Each is a
second way to compute something the pipeline computes, so a test can check
that the two agree.
"""

import math

import numpy as np

from uwbloc.positioning import Anchor, PositionFix, _residual_rms
from uwbloc.waveform import Waveform, check_grid

# Gauss-Newton stops after this many iterations, or once a step is this short (m)
GN_MAX_ITER = 50
GN_STEP_TOL = 1e-10


class DivergenceError(RuntimeError):
    """Gauss-Newton iteration diverged."""


def energy(w: Waveform) -> float:
    """Discrete signal energy: sum(samples^2) * dt.

    The time-domain side of ``spectrum.psd``'s Parseval test.
    """
    return float(np.dot(w.samples, w.samples) * w.dt)


def cross_correlate(a: Waveform, b: Waveform) -> tuple[np.ndarray, np.ndarray]:
    """Full linear cross-correlation of two waveforms.

    Returns (lags, values) where values[i] approximates the integral of
    a(t)*b(t + lags[i]); for b = delay(a, tau) the peak lag is tau to within
    one sample. The tests read the delays applied by ``delay`` and
    ``channel.propagate`` off its lag axis.
    """
    check_grid(a, b)
    # values[m] = sum_n a[n] * b[n + m], m from -(len(a)-1) to len(b)-1
    vals = np.correlate(b.samples, a.samples, mode="full") * a.dt
    lags = np.arange(-(len(a) - 1), len(b)) * a.dt
    return lags, vals


def gauss_newton_refine(
    anchors: list[Anchor], ranges, initial: tuple[float, float, float]
) -> PositionFix:
    """Iterative least squares on range residuals, starting from ``initial``.

    It estimates position and a clock-bias term (initialized at zero), so on
    consistent data it must agree with the closed-form ``bancroft_solve``
    fix. Raises DivergenceError when the step size grows five iterations in
    a row.
    """
    rng_arr = np.asarray(ranges, dtype=float)
    pos = np.asarray(initial, dtype=float).copy()
    bias = 0.0
    anchor_mat = np.array([a.position for a in anchors])
    prev_step = math.inf
    growth = 0
    for _ in range(GN_MAX_ITER):
        diff = pos[None, :] - anchor_mat
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist < 1e-12):
            raise DivergenceError("iterate collided with an anchor")
        resid = dist + bias - rng_arr
        jac = np.hstack([diff / dist[:, None], np.ones((len(anchors), 1))])
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        pos += step[:3]
        bias += float(step[3])
        norm = float(np.linalg.norm(step))
        if norm > prev_step:
            growth += 1
            if growth >= 5:
                raise DivergenceError("step size grew five consecutive iterations")
        else:
            growth = 0
        prev_step = norm
        if norm < GN_STEP_TOL:
            break
    return PositionFix(
        position=tuple(pos),
        clock_bias=bias,
        residual_rms=_residual_rms(anchors, rng_arr, pos, bias),
        candidate_index=1,
    )


def template_median_offset(template: Waveform) -> float:
    """Arrival-to-notch calibration constant of a known pulse, in seconds.

    The notch geometry: the estimator calibrates against a synthetic
    reference burst instead, and this closed form says where that
    reference's notch must sit. The dirty-template notch bottoms out where
    the slice boundary splits the pulse energy in half; this returns that
    median-energy point, interpolated on the exclusive cumulative energy
    curve (matching the discrete objective, whose slice at offset k excludes
    samples before k).
    """
    e_samples = template.samples**2
    q = np.concatenate([[0.0], np.cumsum(e_samples)])
    total = q[-1]
    if total <= 0:
        raise ValueError("template has zero energy")
    target = total / 2.0
    idx = int(np.searchsorted(q, target)) - 1
    frac = (target - q[idx]) / (q[idx + 1] - q[idx]) if q[idx + 1] > q[idx] else 0.0
    return (idx + frac) * template.dt
