"""Orthogonal UWB pulse design over a cardinal B-spline basis.

Pulses are linear combinations of shifted cardinal B-splines. A genetic
algorithm searches coefficient matrices whose pulses (i) stay under a
spectral mask, (ii) have zero-sum coefficient rows (no DC), and (iii) are
mutually orthogonal, while maximizing how much of the mask's power budget
each pulse uses.

Scaling convention: amplitude is a free transmit gain, so candidates are
scored at the largest mask-compliant energy for their shape. The returned
pulse set is stored at that energy (``energy_es``), which makes the stored
coefficients directly mask-compliant and the spectral-effectiveness figures
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .spectrum import (
    HZ_PER_MHZ,
    SpectralMask,
    _one_sided_weights,
    effectiveness,
    fcc_like_mask,
    mask_violation,
    psd,
)
from .waveform import Waveform, json_number

__all__ = [
    "InfeasibleDesignError",
    "BSplineBasis",
    "bspline_eval",
    "synthesize_pulse",
    "DesignConfig",
    "PulseSet",
    "design_pulses",
    "orthogonality_matrix",
    "pulse_set_to_json",
    "load_pulse_set",
]

DEFAULT_DT = 50e-12  # 20 GSa/s
# most rows of unit-energy lags in one product of the designer's peak search:
# its scratch is the same however large the population, and from 197 rows a
# product's elements rounded apart from those of these 128-row blocks
_SCORE_BLOCK_ROWS = 128
# fewest (bins x rows) values in one product of the peak search: OpenBLAS's
# SkylakeX kernel hands a product of at most 1,200 values over 32 or more lags
# to its small-matrix kernel, whose sums round apart from the full grid's
_MIN_PRODUCT_VALUES = 1201
# widest gap of the designer's coarse grid, in bins, and the most its
# Bernstein slack delta may be (``_Evaluator``): 8 bins give delta = 0.0118 at
# the default 26-sample pulse; a longer pulse gets a finer grid
_COARSE_STRIDE = 8
_MAX_DELTA = 0.125
# Highest B-spline order, 5 times the default's 4. ``bspline_eval``'s closed form
# sums terms as large as C(m, j) (m - j)^(m - 1) that cancel to at most 1: the
# shifted splines' partition of unity is off by 6e-7 at order 20, 3e-4 at 25 and
# 0.18 at 30, and from order 172 (m - 1)! is past the float range.
MAX_SPLINE_ORDER = 20
# Most values in one array of the designer, 128 MiB of float64: the population's
# coefficients (population x pulse_count x basis_count), its pulses' padded lags
# (population x pulse_count x 2 samples) and the basis's Gram metric
# (basis_count^2), which also bounds its sample matrix (basis_count x at most
# nfft = 4,096 samples). The default design's largest, 200 x 4 x 52, is about
# 1/400 of this.
MAX_DESIGN_VALUES = 2**24
# Most generations of a design: the default's 500 is about 1/2,000 of this.
MAX_GENERATIONS = 2**20


class InfeasibleDesignError(RuntimeError):
    """The optimizer could not reach a feasible pulse set in budget.

    The message names each broken invariant with its value.
    """


def bspline_eval(m: int, knot_spacing: float, t: np.ndarray | float) -> np.ndarray:
    """Cardinal B-spline of order m with knot spacing T, evaluated at t.

    The order-m spline is the m-fold convolution of the unit box on [0, T),
    normalized so integer-T shifts form a partition of unity. Support is
    [0, m*T]; order 1 is the box itself, order 2 the unit triangle. The
    result is an array shaped like ``t``, 0-d for a scalar.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if knot_spacing <= 0:
        raise ValueError(f"knot spacing must be positive, got {knot_spacing}")
    x = np.asarray(t, dtype=float) / knot_spacing
    if m == 1:
        return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)
    # divided-difference closed form: sum_j (-1)^j C(m,j) (x-j)_+^(m-1) / (m-1)!
    out = np.zeros_like(x)
    for j in range(m + 1):
        y = x - j
        out += (-1.0) ** j * math.comb(m, j) * np.where(y > 0.0, y, 0.0) ** (m - 1)
    out /= math.factorial(m - 1)
    return np.where((x >= 0.0) & (x <= m), out, 0.0)


@dataclass(frozen=True)
class BSplineBasis:
    """Ns shifted copies of the order-m cardinal B-spline, spacing T."""

    order_m: int
    knot_spacing: float
    count_ns: int

    def __post_init__(self) -> None:
        if not 1 <= self.order_m <= MAX_SPLINE_ORDER:
            raise ValueError(f"order_m must be >= 1 and <= {MAX_SPLINE_ORDER}, got {self.order_m}")
        if self.knot_spacing <= 0:
            raise ValueError("knot_spacing must be positive")
        if self.count_ns < 1:
            raise ValueError("count_ns must be >= 1")

    @property
    def support(self) -> float:
        """Total support of the synthesized pulse: (Ns - 1 + m) * T."""
        return (self.count_ns - 1 + self.order_m) * self.knot_spacing

    def sample_count(self, dt: float) -> int:
        """Number of samples n of a synthesized pulse on the grid of step dt."""
        span = self.support / dt
        if not math.isfinite(span):
            raise ValueError(f"pulse support {self.support:.3g} s spans no finite number of "
                             f"samples of dt {dt:.3g} s")
        return int(math.floor(span + 1e-9)) + 1

    def sample_matrix(self, dt: float) -> np.ndarray:
        """(Ns, n) matrix of each shifted basis function on the sample grid."""
        t = np.arange(self.sample_count(dt)) * dt
        rows = [
            bspline_eval(self.order_m, self.knot_spacing, t - k * self.knot_spacing)
            for k in range(self.count_ns)
        ]
        return np.vstack(rows)


def synthesize_pulse(coeffs_row: np.ndarray, basis: BSplineBasis, dt: float) -> Waveform:
    """Superpose weighted shifted B-splines; linear in the coefficients."""
    c = np.asarray(coeffs_row, dtype=float)
    if c.shape != (basis.count_ns,):
        raise ValueError(f"expected {basis.count_ns} coefficients, got {c.shape}")
    samples = c @ basis.sample_matrix(dt)
    return Waveform(samples, dt)


@dataclass(frozen=True)
class DesignConfig:
    """A pulse-design problem and its search budget (population, generations, seed).

    What no design varies is a class constant: the genetic operators' settings
    and penalty weights, each with the one value every design used, and the
    audit's FFT size and tolerances, so the designer and the pulse-set loader
    audit a set by one rule on one grid. A design scored on a coarser grid
    can pass its own audit and still exceed the mask between that grid's bins.
    """

    pulse_count: int = 4
    basis_count: int = 30
    spline_order: int = 4
    pulse_duration: float = 1.28e-9
    mask: SpectralMask = field(default_factory=fcc_like_mask)
    dt: float = DEFAULT_DT
    population: int = 200
    generations: int = 500
    seed: int = 0
    mutation_rate: ClassVar[float] = 0.15
    sigma_start: ClassVar[float] = 0.3
    sigma_end: ClassVar[float] = 0.01
    crossover_rate: ClassVar[float] = 0.7
    tournament_k: ClassVar[int] = 3
    elitism: ClassVar[int] = 2
    weight_rowsum: ClassVar[float] = 10.0
    weight_gram: ClassVar[float] = 10.0
    nfft: ClassVar[int] = 4096
    tol_mask_db: ClassVar[float] = 0.5
    tol_orthogonality: ClassVar[float] = 0.05

    def __post_init__(self) -> None:
        if self.pulse_count < 1:
            raise ValueError("pulse_count must be >= 1")
        if not 1 <= self.spline_order <= MAX_SPLINE_ORDER:
            raise ValueError(f"spline_order must be >= 1 and <= {MAX_SPLINE_ORDER}, "
                             f"got {self.spline_order}")
        if self.basis_count < self.spline_order:
            raise ValueError("basis_count must be >= spline_order")
        if self.basis_count > math.isqrt(MAX_DESIGN_VALUES):  # before knot_spacing divides
            raise ValueError(f"basis_count must be <= {math.isqrt(MAX_DESIGN_VALUES)}, "
                             f"got {self.basis_count}")
        # zero-sum coefficient rows span basis_count - 1 dimensions, so no more
        # pulses than that can be orthogonal
        if self.pulse_count >= self.basis_count:
            raise ValueError(f"pulse_count must be < basis_count, got pulse_count "
                             f"{self.pulse_count} and basis_count {self.basis_count}")
        for name in ("population", "generations", "pulse_duration", "dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.generations > MAX_GENERATIONS:
            raise ValueError(f"generations must be <= {MAX_GENERATIONS}, got {self.generations}")
        if self.seed < 0:  # numpy seeds are non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        try:
            n = self.basis.sample_count(self.dt)
        except ValueError as exc:  # the support is pulse_duration
            raise ValueError(f"pulse_duration {self.pulse_duration:.3g} s: {exc}") from exc
        if n > self.nfft:
            raise ValueError(f"the pulse's sample count ({n}) exceeds nfft ({self.nfft})")
        values = self.population * self.pulse_count * max(self.basis_count, 2 * n)
        if values > MAX_DESIGN_VALUES:
            raise ValueError(
                f"population x pulse_count x max(basis_count, 2 x {n} samples) is {values}, "
                f"more than {MAX_DESIGN_VALUES}")

    @property
    def knot_spacing(self) -> float:
        """T chosen so the pulse support equals pulse_duration exactly."""
        return self.pulse_duration / (self.basis_count + self.spline_order - 1)

    @property
    def basis(self) -> BSplineBasis:
        return BSplineBasis(self.spline_order, self.knot_spacing, self.basis_count)


@dataclass(frozen=True)
class PulseSet:
    """Result of a design run: coefficients plus realized waveforms.

    Invariants (re-verified by the loader): zero-sum coefficient rows, Gram
    matrix within tolerance of energy_es * I, and each pulse's PSD under the
    design mask.
    """

    coeffs: np.ndarray
    basis: BSplineBasis
    pulses: tuple[Waveform, ...]
    energy_es: float
    effectiveness: np.ndarray
    objective_history: np.ndarray

    @property
    def objective(self) -> float:
        return float(self.effectiveness.sum())

    @property
    def pulse_count(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dt(self) -> float:
        return self.pulses[0].dt


def _project_zero_sum(pop: np.ndarray) -> np.ndarray:
    """Project each coefficient row onto the zero-sum hyperplane."""
    return pop - pop.mean(axis=-1, keepdims=True)


def _unit_energy_lags(rows: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(has energy, autocorrelation at lags 0..n-1 of the unit-energy pulse) per row.

    A row with no energy above 1e-30 keeps its own lags unscaled.
    """
    n = rows.shape[-1]
    padded = np.concatenate([rows, np.zeros_like(rows)], axis=-1)
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n, axis=-1)[:, :n, :]
    lagged = np.einsum("rt,rmt->rm", rows, shifted)  # one 2-D product, not P small ones
    energies = lagged[:, 0] * dt
    ok = energies > 1e-30
    return ok, lagged / np.where(ok, energies, 1.0)[:, None]


class _Evaluator:
    """Batched fitness evaluation for a (P, L, Ns) population.

    A pulse of n samples has the power spectrum |X_k|^2 = r_0 + 2 sum_{m>=1}
    r_m cos(2 pi k m / nfft) of its autocorrelation r (Wiener-Khinchin), so
    candidates are scored from their n lags by (bins x lags) matrix products,
    with no nfft-point transform per pulse. ``psd``, which the audit of every
    design uses, stays FFT-based as an independent check.

    A budget needs only each pulse's peak of density over limit on the
    in-band grid (``dens_over_limit``), and that peak is found without
    evaluating most bins. The unit-energy density P(theta) = dt^2 (r_0 + 2
    sum r_m cos(m theta)) is a cosine polynomial of degree N = n - 1, which
    the nfft-point grid oversamples about nfft / (2 N) fold (80 at the
    default). Bernstein's inequality for trigonometric polynomials (Zygmund,
    *Trigonometric Series*, 3rd ed., 2002), applied twice, gives |P''| <=
    N^2 M with M the largest P on [0, pi]. So between bins a and b at most h
    radians apart P(theta) <= max(P(a), P(b)) + delta M, delta = N^2 h^2 / 8.

    - *Coarse grid.* Every ``_COARSE_STRIDE``-th bin (a smaller stride where
      delta would pass ``_MAX_DELTA``) plus both edge bins of every run of
      equal bin weight over limit, so DC, Nyquist and each mask-segment edge
      are coarse and each window between coarse bins lies in one run, at one
      scale. Bins outside the mask or in a -inf dB segment are coarse too:
      they bound M, which covers all of [0, pi], and never enter the peak.
    - *Chunks.* Eight windows of one run form a chunk. ``coarse_table`` holds
      each chunk's nine coarse bins chunk-major, so one max over a (9,
      chunks, rows) view of a block's product gives every chunk's maximum,
      and M <= (largest coarse P) / (1 - delta) (``peak_bound``).
    - *Refinement.* A chunk's skipped bins are evaluated only for the rows
      whose maximum there, plus the chunk's scale times (delta + a rounding
      margin) M, exceeds their coarse peak: 1.5 to 1.7 chunks a row over
      the default design. The margin, at least 1e-12, is 8 times the
      n u (2n - 1) relative error of an n-lag dot product. The needed
      (chunk, row) pairs are listed chunk-major, so each chunk's rows are
      one run, and a run is refined by products of that chunk's skipped
      bins, one slice of the chunk-major ``fine_table``, with at most 128
      of its rows. No product evaluates a pair that is not needed, apart
      from the spare rows that fill a product to its fewest rows.

    Every value kept is an element of the full-grid product, and no skipped
    bin can exceed the kept peak, so the peak is the full-grid peak, and so
    are the budget, xi and the design. An element has the bits it has in
    the 128-row blocks of the full-grid product (the oracle in the tests)
    when its product has 2 to 128 rows, a multiple of 8 bins and more than
    1,200 values (``_MIN_PRODUCT_VALUES``); in a one-row or one-bin product,
    or one of 197 or more rows, elements differed. So a row set smaller than
    ``coarse_rows`` is scored repeated to that many rows, a fine product is
    filled to ``fine_rows`` with spare rows, and the chunk count and a
    chunk's skipped bins are multiples of 8. The oracle repeats a block of
    fewer than 8 rows to 8 for the same reason: its lone rows and short
    last blocks rounded apart from these elements, and under Haswell so did
    blocks of 3, 5 or 7 rows repeated to only 2. The whole 800-row product
    is not the 128-row blocks bit for bit either (about 1e-4 of its elements
    differ under SkylakeX), though its row maxima are. Probed against the
    full-grid blocks, the budgets of 100 generations of the default design
    (20,200) and of 4,000 random candidates under each of the default,
    notched, forbidden-notch and 0-6 GHz masks were equal under the
    SkylakeX, Haswell and Prescott kernels, except 25 of the 0-6 GHz mask's
    under SkylakeX, by at most 6.2e-16 relative: their peaks are on the last
    in-band bins, which the full-grid product leaves to its remainder
    kernel. At 40 to 250 lags, random rows under the same masks kept the
    full-grid peaks under both kernels, bar 3 of 2,884 under the 0-6 GHz
    mask at 40 lags, but nothing bounds the rounding there: a product that
    two OpenBLAS threads split can round apart (56 bins of 78 or more rows
    at 130 lags did).

    The coarse products run on at most 128 rows and the fine ones gather at
    most 128, so the scratch grows with the population only by per-row
    arrays (pairs, peaks, bounds), not by a product's bins. One coarse block
    is reused by every call (``_coarse``), so an evaluator scores one row set
    at a time.
    """

    def __init__(self, cfg: DesignConfig):
        self.cfg = cfg
        self.phi = cfg.basis.sample_matrix(cfg.dt)
        freq = np.fft.rfftfreq(cfg.nfft, d=cfg.dt)
        limits_db = cfg.mask.limit_at(freq)
        band = ~np.isnan(limits_db)
        if not np.any(band):
            raise InfeasibleDesignError("mask does not cover the sampled band")
        limits_lin = 10.0 ** (limits_db / 10.0)
        df_mhz = float(freq[1] - freq[0]) / HZ_PER_MHZ
        self.mask_integral = cfg.mask.integral_linear()
        if self.mask_integral <= 0.0:
            raise InfeasibleDesignError("mask allows zero power; design infeasible")
        # density per MHz at each bin from the lags of a unit-energy pulse; k*m
        # is reduced modulo nfft so each cosine argument is < 2 pi. In place: the
        # (lags x bins) tables are the largest arrays a design sets up
        n = self.phi.shape[1]
        lags = np.arange(n)
        cosines = np.outer(lags, np.arange(len(freq))) % cfg.nfft * (2.0 * math.pi / cfg.nfft)
        np.cos(cosines, out=cosines)
        cosines *= (np.where(lags == 0, 1.0, 2.0) * cfg.dt**2)[:, None]
        bin_weights = _one_sided_weights(cfg.nfft) * HZ_PER_MHZ
        # C order, which a boolean index on axis 1 would not keep: ``dens_total``'s
        # pairwise sum over bins rounds by it
        dens = np.compress(band, cosines, axis=1)
        dens *= bin_weights[band]
        allowed = band & (limits_lin > 0.0)
        scale = np.ones(len(freq))  # bin weight over limit in the objective, 1 elsewhere
        scale[allowed] = bin_weights[allowed] / limits_lin[allowed]
        self.dens_over_limit = dens[:, allowed[band]]  # F order: a C-ordered transpose
        self.dens_over_limit /= limits_lin[allowed]
        # bins of a -inf dB segment: any power there leaves no compliant energy
        self.dens_forbidden = dens[:, ~allowed[band]]
        self.dens_total = dens.sum(axis=1) * df_mhz
        del dens
        self._build_coarse_grid(cosines, allowed, scale)

    def _build_coarse_grid(self, cosines: np.ndarray, allowed: np.ndarray, scale: np.ndarray):
        """The coarse and fine tables of the certified peak search (class docstring)."""
        n = self.phi.shape[1]

        def bend(stride: int) -> float:  # delta = N^2 h^2 / 8 at a gap of ``stride`` bins
            return ((n - 1) * stride * 2.0 * math.pi / self.cfg.nfft) ** 2 / 8.0

        stride = next((s for s in range(_COARSE_STRIDE, 1, -1) if bend(s) <= _MAX_DELTA), 1)
        # with every bin coarse nothing is skipped, so no bound is needed
        self.delta = bend(stride) if stride > 1 else 0.0
        column = np.cumsum(allowed) - 1  # an objective bin's column of dens_over_limit
        cut = np.flatnonzero((allowed[1:] != allowed[:-1]) | (scale[1:] != scale[:-1])) + 1
        chunks = {True: [], False: []}  # objective chunks first, then those bounding M alone
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(scale)] - 1):
            points = list(range(lo, hi, stride)) + [hi]
            for k in range(0, max(len(points) - 1, 1), 8):
                coarse = points[k:k + 9]
                fine = [b for a, z in zip(coarse, coarse[1:]) for b in range(a + 1, z)]
                chunks[bool(allowed[lo])].append((
                    coarse + coarse[-1:] * (9 - len(coarse)),
                    fine + coarse[:1] * (8 * (stride - 1) - len(fine)),
                    scale[lo]))
        objective = chunks[True]
        everything = objective + chunks[False]
        everything += everything[:1] * (-len(everything) % 8)  # products 8k wide keep their bits
        self.coarse_bins = np.array([c for c, _, _ in everything]).T  # (9, chunks)
        # (9 x chunks, lags): each bin's row of dens_over_limit where it counts
        bins = self.coarse_bins.ravel()
        self.coarse_table = np.ascontiguousarray(cosines.T[bins])
        scored = allowed[bins]
        self.coarse_table[scored] = self.dens_over_limit.T[column[bins[scored]]]
        self.chunk_inv_scale = 1.0 / np.array([s for _, _, s in everything])[:, None]
        self.objective_scale = np.array([s for _, _, s in objective])[:, None]
        fine_bins = np.array([f for _, f, _ in objective], dtype=int)
        # (objective chunks, skipped bins, lags): each skipped bin's row of
        # dens_over_limit, chunk-major, so a chunk's bins are one C-ordered slice
        self.fine_table = self.dens_over_limit.T[column[fine_bins.reshape(len(objective), -1)]]
        # fewest rows of a coarse and of a fine product (class docstring)
        self.coarse_rows, self.fine_rows = (
            max(2, -(-_MIN_PRODUCT_VALUES // max(width, 1)))
            for width in (len(self.coarse_table), self.fine_table.shape[1]))
        # one block's coarse product, which every row_peaks call reuses
        self._coarse = np.empty(len(self.coarse_table) * _SCORE_BLOCK_ROWS)
        # dot products of n lags err by at most about n u (2n - 1) M relative to the scale
        self.margin = max(1e-12, 4.0 * n * (2 * n - 1) * np.finfo(float).eps)

    def peak_bound(self, chunk_peak: np.ndarray) -> np.ndarray:
        """M per row: a bound on its unit-energy density over [0, pi] from its
        (chunks, rows) coarse maxima."""
        return np.max(chunk_peak * self.chunk_inv_scale, axis=0) / (1.0 - self.delta)

    def row_peaks(self, r_n: np.ndarray) -> np.ndarray:
        """Each lag row's largest density over limit on the in-band grid.

        Infinite for a row with power in a -inf dB segment, and 0 for a row
        with no positive density anywhere in the band. Each row's coarse
        maxima come from 128-row blocks; its skipped bins are refined chunk
        by chunk, only for the (chunk, row) pairs that can hold its peak.
        Every product has the rows and bins that keep the full grid's bits
        (class docstring).
        """
        rows, objective = len(r_n), len(self.objective_scale)
        if rows < self.coarse_rows:  # too few for a product with the full grid's bits
            return self.row_peaks(np.resize(r_n, (self.coarse_rows, r_n.shape[1])))[:rows]
        chunk_peak = np.empty((len(self.chunk_inv_scale), rows))
        forbidden = np.zeros(rows, dtype=bool)
        for start in range(0, rows, _SCORE_BLOCK_ROWS):
            block = slice(min(start, rows - self.coarse_rows), start + _SCORE_BLOCK_ROWS)
            width = len(r_n[block])
            coarse = self._coarse[:len(self.coarse_table) * width].reshape(-1, width)
            np.matmul(self.coarse_table, r_n[block].T, out=coarse)
            # a new, contiguous array: a strided ``out`` takes twice as long
            chunk_peak[:, block] = np.maximum.reduce(coarse.reshape(9, len(chunk_peak), -1))
            if self.dens_forbidden.shape[1]:  # the mask has a -inf dB segment
                forbidden[block] = np.any(r_n[block] @ self.dens_forbidden > 0.0, axis=-1)
        peak = np.max(chunk_peak[:objective], axis=0, initial=0.0)
        if self.fine_table.size:
            slack = self.peak_bound(chunk_peak) * (self.delta + self.margin)
            need = chunk_peak[:objective] + self.objective_scale * slack > peak
            # the needed (chunk, row) pairs, chunk-major: each chunk's rows are one run
            chunk, row = np.divmod(np.flatnonzero(need), rows)
            counts = np.bincount(chunk, minlength=objective)
            first = np.cumsum(counts) - counts
            # spare rows past the last, so a chunk that few rows need still fills a product
            row_at = np.concatenate([row, np.zeros(self.fine_rows - 1, dtype=row.dtype)])
            fine_peak = np.empty(row.size)
            for c in np.flatnonzero(counts):
                end = first[c] + counts[c]
                for start in range(first[c], end, _SCORE_BLOCK_ROWS):
                    stop = min(start + _SCORE_BLOCK_ROWS, end)
                    lags = r_n[row_at[start:max(stop, start + self.fine_rows)]]
                    fine = self.fine_table[c] @ lags.T
                    np.maximum.reduce(fine[:, :stop - start], out=fine_peak[start:stop])
            np.maximum.at(peak, row, fine_peak)
        peak[forbidden] = np.inf
        return peak

    def shape_metrics(self, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-candidate (budget energy, xi_l, normalized Gram) at best scale."""
        cfg = self.cfg
        pulses = pop @ self.phi  # (P, L, n)
        ok, r_n = _unit_energy_lags(pulses.reshape(-1, pulses.shape[-1]), cfg.dt)
        # budget_l = min over bins with power of limit / density = 1 / max(density / limit)
        peak = self.row_peaks(r_n)
        budget_l = np.divide(1.0, peak, out=np.full_like(peak, np.inf), where=peak > 0.0)
        inband = r_n @ self.dens_total  # fraction of unit energy in band
        ok, budget_l, inband = (a.reshape(pulses.shape[:2]) for a in (ok, budget_l, inband))
        budget = np.min(np.where(ok, budget_l, 0.0), axis=-1)  # (P,)
        xi = budget[:, None] * inband / self.mask_integral  # (P, L)
        gram = pulses @ pulses.transpose(0, 2, 1) * cfg.dt  # (P, L, L)
        diag = np.sqrt(np.clip(np.einsum("pll->pl", gram), 1e-300, None))
        gram_n = gram / (diag[:, :, None] * diag[:, None, :])
        xi = np.where(ok, xi, 0.0)
        return budget, xi, gram_n

    def fitness(self, pop: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        _, xi, gram_n = self.shape_metrics(pop)
        eye = np.eye(pop.shape[1])
        pen_gram = np.sum((gram_n - eye) ** 2, axis=(1, 2))
        pen_sum = np.sum(np.abs(pop.sum(axis=-1)), axis=-1)
        # candidates are pre-scaled to their mask budget, so the mask-violation
        # penalty term is identically zero and omitted from the arithmetic
        return xi.sum(axis=-1) - cfg.weight_gram * pen_gram - cfg.weight_rowsum * pen_sum


def _orthogonalize_rows(cand: np.ndarray, gram_metric: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gram-Schmidt coefficient rows in the sampled-pulse inner product.

    Linear combinations of zero-sum rows stay zero-sum, so this yields
    orthogonal, DC-free starting points for the search.
    """
    out = cand.copy()
    l_count = out.shape[0]
    for i in range(l_count):
        for j in range(i):
            denom = out[j] @ gram_metric @ out[j]
            if denom > 1e-30:
                out[i] -= (out[i] @ gram_metric @ out[j]) / denom * out[j]
        norm = math.sqrt(max(out[i] @ gram_metric @ out[i], 0.0))
        if norm < 1e-12:
            out[i] = _project_zero_sum(rng.normal(size=out[i].shape))
            norm = math.sqrt(max(out[i] @ gram_metric @ out[i], 1e-30))
        out[i] /= norm
    return out


def _offspring(pop: np.ndarray, fit: np.ndarray, rng: np.random.Generator,
               sigma: float) -> np.ndarray:
    """One generation's children of the (P, L, Ns) population ``pop``, before elitism.

    Tournament selection by ``fit``, uniform crossover of consecutive parent
    pairs, Gaussian mutation of step ``sigma``, then the zero-sum projection,
    with ``DesignConfig``'s operator settings.
    """
    cfg = DesignConfig
    population, l_count, ns = pop.shape
    draws = rng.integers(0, population, size=(population, cfg.tournament_k))
    parents = draws[np.arange(population), np.argmax(fit[draws], axis=1)]
    children = pop[parents]

    half = population // 2
    do_cross = rng.random(half) < cfg.crossover_rate
    swap = (rng.random((half, l_count, ns)) < 0.5) & do_cross[:, None, None]
    a, b = children[0::2][:half], children[1::2][:half]  # views: crossed over in place
    a[...], b[...] = np.where(swap, b, a), np.where(swap, a, b)

    mutate = rng.random(children.shape) < cfg.mutation_rate
    children += mutate * rng.normal(0.0, sigma, size=children.shape)
    return _project_zero_sum(children)


def design_pulses(cfg: DesignConfig) -> PulseSet:
    """Run the genetic search and return a verified pulse set.

    Deterministic for a fixed seed. Raises InfeasibleDesignError, naming
    each broken invariant, if the generation budget ends without a feasible
    set.
    """
    rng = np.random.default_rng(cfg.seed)
    ev = _Evaluator(cfg)
    l_count, ns = cfg.pulse_count, cfg.basis_count
    gram_metric = ev.phi @ ev.phi.T * cfg.dt

    pop = _project_zero_sum(rng.normal(size=(cfg.population, l_count, ns)))
    for p in range(cfg.population):
        pop[p] = _orthogonalize_rows(pop[p], gram_metric, rng)

    fit = ev.fitness(pop)
    history = np.empty(cfg.generations)
    sigma_decay = (cfg.sigma_end / cfg.sigma_start) ** (1.0 / max(cfg.generations - 1, 1))

    for gen in range(cfg.generations):
        order = np.argsort(fit)[::-1]
        history[gen] = fit[order[0]]
        elite = pop[order[: cfg.elitism]]
        children = _offspring(pop, fit, rng, cfg.sigma_start * sigma_decay**gen)
        children[: cfg.elitism] = elite
        pop = children
        fit = ev.fitness(pop)

    best = pop[int(np.argmax(fit))]
    budget, _, _ = ev.shape_metrics(best[None])
    e_s = float(budget[0])

    if e_s <= 0.0:
        raise InfeasibleDesignError("no positive mask-compliant energy for best candidate")

    # scale every row to the common compliant energy, then re-project
    pulses_raw = best @ ev.phi
    # positive: e_s > 0 only if every pulse has energy above shape_metrics' 1e-30
    row_energy = np.sum(pulses_raw**2, axis=-1) * cfg.dt
    coeffs = best * np.sqrt(e_s / row_energy)[:, None]
    coeffs = _project_zero_sum(coeffs)

    ps, failures = _audit(coeffs, cfg.basis, cfg.dt, e_s, cfg.mask)
    if failures:
        raise InfeasibleDesignError(
            f"design did not reach feasibility in {cfg.generations} generations: "
            + "; ".join(failures))
    return replace(ps, objective_history=history)


def _gram(pulses: tuple[Waveform, ...]) -> np.ndarray:
    mat = np.vstack([p.samples for p in pulses])
    return mat @ mat.T * pulses[0].dt


def _audit(
    coeffs: np.ndarray, basis: BSplineBasis, dt: float, e_s: float, mask: SpectralMask | None,
) -> tuple[PulseSet, list[str]]:
    """Build the pulse set of a coefficient matrix and check every invariant.

    Returns the set (with an empty objective history) and the invariants it
    breaks, each named with its value; the list is empty for a valid set.
    The invariants are zero-sum coefficient rows, a Gram matrix within
    tolerance of Es * I, each pulse's PSD under the mask and a positive
    effectiveness per pulse. Without a mask the effectiveness is NaN
    (unknown) and the last two break nothing. The FFT size and tolerances
    are ``DesignConfig``'s.
    """
    tol_orthogonality, tol_mask_db = DesignConfig.tol_orthogonality, DesignConfig.tol_mask_db
    pulses = tuple(synthesize_pulse(row, basis, dt) for row in coeffs)
    gram = _gram(pulses) / e_s
    xi = np.full(len(pulses), math.nan)
    worst = math.nan
    if mask is not None:
        worst = -math.inf
        for i, pw in enumerate(pulses):
            freq, dens = psd(pw, DesignConfig.nfft)
            xi[i] = effectiveness(freq, dens, mask)
            worst = max(worst, mask_violation(freq, dens, mask))
    rowsum = float(np.max(np.abs(coeffs.sum(axis=1))))
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    energy_err = float(np.max(np.abs(np.diag(gram) - 1.0)))
    checks = (
        (not rowsum < 1e-9, f"coefficient rows are not zero-sum (max |sum| {rowsum:.3g})"),
        (not off <= tol_orthogonality,
         f"pulses are not orthogonal within {tol_orthogonality:g} (max off-diagonal {off:.3g})"),
        (not energy_err <= 0.02,
         f"Es does not match the pulse energies (max relative error {energy_err:.3g})"),
        (worst > tol_mask_db, f"pulses exceed the mask by {worst:.3g} dB"),
        (np.any(xi <= 0.0), "a pulse uses none of the mask's power budget"),
    )
    ps = PulseSet(coeffs, basis, pulses, e_s, xi, np.empty(0))
    return ps, [msg for broken, msg in checks if broken]


def orthogonality_matrix(ps: PulseSet) -> np.ndarray:
    """Pairwise pulse inner products normalized by the set energy."""
    return _gram(ps.pulses) / ps.energy_es


# -- serialization ----------------------------------------------------------

def pulse_set_to_json(ps: PulseSet) -> dict:
    return {
        "basis": {
            "m": ps.basis.order_m,
            "T": ps.basis.knot_spacing,
            "Ns": ps.basis.count_ns,
        },
        "coeffs": ps.coeffs.tolist(),
        "Es": ps.energy_es,
        "dt": ps.dt,
    }


def load_pulse_set(obj: dict, mask: SpectralMask | None = None) -> PulseSet:
    """Re-synthesize a stored pulse set and re-verify its invariants.

    Checks zero-sum rows, the Gram structure and Es always, with the
    tolerances and FFT size of ``DesignConfig``; mask compliance only when a
    mask is supplied. Without a mask the effectiveness and objective are NaN
    (unknown).
    """
    def entry(where: dict, key: str):
        if key not in where:
            raise ValueError(f"pulse set key {key!r} is missing")
        return where[key]

    def number(where: dict, key: str, integer: bool = False):
        return json_number(entry(where, key), f"pulse set key {key!r}", integer)

    spec = entry(obj, "basis")
    if not isinstance(spec, dict):
        raise ValueError(f"pulse set key 'basis' must be an object of m, T and Ns, got {spec!r}")
    basis = BSplineBasis(number(spec, "m", integer=True), number(spec, "T"),
                         number(spec, "Ns", integer=True))
    rows = entry(obj, "coeffs")
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == basis.count_ns for row in rows)):
        raise ValueError(f"pulse set key 'coeffs' must be a non-empty list of rows of "
                         f"{basis.count_ns} numbers, one per basis function")
    coeffs = np.array([[json_number(c, "pulse set key 'coeffs'") for c in row] for row in rows],
                      dtype=float)
    dt = number(obj, "dt")
    if not 0 < dt < math.inf:
        raise ValueError(f"pulse set key 'dt' must be positive and finite, got {dt!r}")
    # DesignConfig's rule, before sample_matrix allocates rows of that length; a
    # non-finite T, or a support past the float range, has no sample count
    nfft = DesignConfig.nfft
    if not basis.support / dt < math.inf or basis.sample_count(dt) > nfft:
        raise ValueError(f"pulse set key 'basis' spans {basis.support:.3g} s, more than "
                         f"nfft ({nfft}) samples of dt {dt:.3g} s")
    ps, failures = _audit(coeffs, basis, dt, number(obj, "Es"), mask)
    if failures:
        raise ValueError("stored pulse set is invalid: " + "; ".join(failures))
    return ps
