"""Independent references the tests compare the pipeline against.

None of these is a pipeline step: the pipeline's fix is the closed-form
Bancroft solve, its ToA calibration a synthetic reference burst, its
designer scores candidates from their lags on a certified coarse grid and
crosses them over with ``np.where``, and no pipeline step needs a signal's
energy or its cross-correlation. Each is a second way to compute something
the pipeline computes, so a test can check that the two agree.
"""

import math

import numpy as np

from uwbloc.positioning import Anchor, PositionFix, _residual_rms
from uwbloc.pulses import DesignConfig
from uwbloc.spectrum import HZ_PER_MHZ, _one_sided_weights
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


def fft_shape_metrics(ev, pop):
    """Reference scorer: each pulse's zero-padded rFFT, as the designer once scored it.

    Returns the (budget, xi, normalized Gram) of ``_Evaluator.shape_metrics``
    for the evaluator ``ev`` and the (P, L, Ns) population ``pop``.
    """
    cfg = ev.cfg
    freq = np.fft.rfftfreq(cfg.nfft, d=cfg.dt)
    limits_db = cfg.mask.limit_at(freq)
    band = ~np.isnan(limits_db)
    limits_lin = 10.0 ** (limits_db[band] / 10.0)
    weights = _one_sided_weights(cfg.nfft)[band] * HZ_PER_MHZ
    df_mhz = float(freq[1] - freq[0]) / HZ_PER_MHZ
    pulses = pop @ ev.phi
    energies = np.sum(pulses**2, axis=-1) * cfg.dt
    spec = np.fft.rfft(pulses, n=cfg.nfft, axis=-1) * cfg.dt
    lin = (np.abs(spec[..., band]) ** 2) * weights
    ok = energies > 1e-30
    d1 = lin / np.where(ok, energies, 1.0)[..., None]
    with np.errstate(divide="ignore"):
        budget_l = np.min(
            np.where(d1 > 0.0, limits_lin / np.where(d1 > 0, d1, 1.0), np.inf), axis=-1)
    budget = np.min(np.where(ok, budget_l, 0.0), axis=-1)
    inband = np.sum(d1, axis=-1) * df_mhz
    xi = np.where(ok, budget[:, None] * inband / ev.mask_integral, 0.0)
    gram = pulses @ pulses.transpose(0, 2, 1) * cfg.dt
    diag = np.sqrt(np.clip(np.einsum("pll->pl", gram), 1e-300, None))
    return budget, xi, gram / (diag[:, :, None] * diag[:, None, :])


def full_grid_peak(ev, r_n):
    """Each lag row's peak density over limit on every in-band bin of ``ev``.

    The whole (rows x lags) @ (lags x bins) product with ``ev.dens_over_limit``
    in 128-row blocks, the designer's scoring before its certified coarse
    grid: infinite for a row with power in a -inf dB segment, 0 for a row with
    no positive density in the band. A block of fewer than 8 rows, a lone row
    or a short last block, is repeated to 8 rows, as ``row_peaks`` repeats a
    small row set: OpenBLAS rounded a product of fewer rows apart from the
    full blocks, under Haswell even a block of 3 to 7 rows repeated to 2.
    """
    peak = np.empty(len(r_n))
    for start in range(0, len(r_n), 128):
        rows = r_n[start:start + 128]
        block = np.resize(rows, (max(len(rows), 8), rows.shape[1]))
        out = peak[start:start + len(rows)]
        out[:] = np.max(block @ ev.dens_over_limit, axis=-1, initial=0.0)[:len(rows)]
        if ev.dens_forbidden.shape[1]:  # the mask has a -inf dB segment
            out[np.any(block @ ev.dens_forbidden > 0.0, axis=-1)[:len(rows)]] = np.inf
    return peak


def masked_swap_offspring(pop, fit, rng, sigma):
    """Reference genetic step: ``pulses._offspring`` as the designer first wrote it.

    Tournament selection, then uniform crossover by boolean-mask swaps of
    consecutive parent pairs, a multiply-add Gaussian mutation and the
    zero-sum projection, drawing from ``rng`` in the same order.
    """
    population, l_count, ns = pop.shape
    draws = rng.integers(0, population, size=(population, DesignConfig.tournament_k))
    parents = draws[np.arange(population), np.argmax(fit[draws], axis=1)]
    children = pop[parents].copy()
    half = population // 2
    do_cross = rng.random(half) < DesignConfig.crossover_rate
    swap = (rng.random((half, l_count, ns)) < 0.5) & do_cross[:, None, None]
    a, b = children[0::2][:half], children[1::2][:half]
    a[swap], b[swap] = b[swap], a[swap]
    mutate = rng.random(children.shape) < DesignConfig.mutation_rate
    children += mutate * rng.normal(0.0, sigma, size=children.shape)
    return children - children.mean(axis=-1, keepdims=True)
