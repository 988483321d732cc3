"""Closed-form multilateration from anchor ranges.

Bancroft's method treats each (anchor, range) row as a 4-vector and solves
the pseudorange equations globally under the Lorentz product
<u, v> = u1*v1 + u2*v2 + u3*v3 - u4*v4: one linear solve plus a scalar
quadratic yields up to two (position, clock-bias) candidates without any
initial guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "NoRealSolutionError",
    "NoValidFixError",
    "Anchor",
    "RoomBounds",
    "PositionFix",
    "bancroft_solve",
    "select_solution",
    "position_error",
]

CONDITION_LIMIT = 1e12
# bancroft_solve's quadratic collapses when <u, u> is zero to within the rounding
# of u, whose relative error is about cond(B) x eps: |qa| at most this many
# cond(B) x eps x sum(u_i^2). Over 200,000 random geometries with a lightlike u,
# on three OpenBLAS kernels, |qa| reached 37 of them; in the default sweep it is
# sum(u_i^2) itself.
COLLAPSE_ROUNDING = 128
# select_solution's acceptance rule (m): candidates this far past a wall still count (floor
# targets jitter below z = 0); in a synchronized system a larger clock bias marks bad geometry
BOUNDS_TOLERANCE_M = 0.25
BIAS_GATE_M = 0.3


class DegenerateGeometryError(ValueError):
    """Anchor geometry is rank deficient or numerically singular."""


class NoRealSolutionError(ValueError):
    """The Bancroft quadratic has no real root for these ranges."""


class NoValidFixError(ValueError):
    """Every candidate was rejected by the selection rules."""


@dataclass(frozen=True)
class Anchor:
    id: str
    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.position) != 3 or not all(math.isfinite(v) for v in self.position):
            raise ValueError("anchor position must be 3 finite coordinates")
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))


@dataclass(frozen=True)
class RoomBounds:
    minimum: tuple[float, float, float]
    maximum: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.minimum) != 3 or len(self.maximum) != 3:
            raise ValueError("room corners must be 3 coordinates each")
        if not all(-math.inf < lo < hi < math.inf for lo, hi in zip(self.minimum, self.maximum)):
            raise ValueError("bounds must be finite and satisfy min < max on every axis")


@dataclass(frozen=True, slots=True)
class PositionFix:
    """One multilateration candidate with its diagnostics."""

    position: tuple[float, float, float]
    clock_bias: float  # meters of range equivalent
    residual_rms: float
    candidate_index: int
    selection_rule: str | None = None

    def __post_init__(self) -> None:
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


def _lorentz(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3])


def _residual_rms(anchors: list[Anchor], ranges: np.ndarray, pos: np.ndarray, bias: float) -> float:
    pred = np.array([np.linalg.norm(pos - np.asarray(a.position)) for a in anchors]) + bias
    return float(np.sqrt(np.mean((pred - ranges) ** 2)))


def _zero_bias_candidates(anchors: list[Anchor], rng_arr: np.ndarray) -> list[PositionFix]:
    """Sphere-intersection candidates under the synchronized (zero-bias) prior.

    Used when the pseudorange matrix is rank deficient, which happens exactly
    when the bias column is expressible from the anchor columns (coplanar
    anchors with matching ranges): the pseudorange system then has a solution
    family and the physical members are the zero-bias ones. Differencing the
    sphere equations gives a linear system whose null direction (normal of
    the anchor plane) carries the remaining quadratic.
    """
    pos_mat = np.array([a.position for a in anchors])
    d_mat = 2.0 * (pos_mat[1:] - pos_mat[0])
    rhs = (
        np.sum(pos_mat[1:] ** 2, axis=1) - np.sum(pos_mat[0] ** 2)
        - (rng_arr[1:] ** 2 - rng_arr[0] ** 2)
    )
    u_svd, s_svd, vt_svd = np.linalg.svd(d_mat)
    rank = int(np.sum(s_svd > s_svd[0] * 1e-10)) if s_svd[0] > 0 else 0
    if rank < 2:
        raise DegenerateGeometryError("anchor geometry is rank deficient beyond recovery")
    p0, *_ = np.linalg.lstsq(d_mat, rhs, rcond=1e-10)
    if rank == 3:
        candidates = [p0]
    else:
        normal = vt_svd[-1]
        rel = p0 - pos_mat[0]
        half = float(normal @ rel)
        const = float(rel @ rel) - rng_arr[0] ** 2
        disc = half * half - const
        if disc < 0:
            raise NoRealSolutionError(f"negative discriminant ({disc:.3g})")
        roots = (-half + math.sqrt(disc), -half - math.sqrt(disc))
        candidates = [p0 + t * normal for t in roots]
    return [
        PositionFix(
            position=tuple(p),
            clock_bias=0.0,
            residual_rms=_residual_rms(anchors, rng_arr, p, 0.0),
            candidate_index=idx,
        )
        for idx, p in enumerate(candidates, start=1)
    ]


def bancroft_solve(anchors: list[Anchor], ranges) -> list[PositionFix]:
    """Solve the pseudorange system; returns the real candidates (0 to 2).

    One SVD of the pseudorange matrix B solves B [u, v] = [1, a] for any
    anchor count: exactly for four anchors, in the least-squares sense for
    more. A rank-deficient B (condition number above ``CONDITION_LIMIT``,
    e.g. coplanar anchors with equal ranges) falls back to the zero-bias
    sphere intersection; geometry degenerate beyond that, and a lightlike
    u, whose quadratic collapses to within the rounding of u
    (``COLLAPSE_ROUNDING``), raise DegenerateGeometryError, and a negative
    quadratic discriminant raises NoRealSolutionError. Nothing depends on
    the length unit: scaling every coordinate and range by a power of two
    scales the candidates by it.
    """
    if len(anchors) < 4:
        raise ValueError(f"need at least 4 anchors, got {len(anchors)}")
    rng_arr = np.asarray(ranges, dtype=float)
    if rng_arr.shape != (len(anchors),):
        raise ValueError("one range per anchor required")
    if not np.all(np.isfinite(rng_arr) & (rng_arr > 0)):
        raise ValueError("ranges must be positive and finite")

    b_mat = np.array([[*a.position, r] for a, r in zip(anchors, rng_arr)])
    u_mat, s_vals, vt_mat = np.linalg.svd(b_mat, full_matrices=False)
    if s_vals[0] > CONDITION_LIMIT * s_vals[-1]:
        return _zero_bias_candidates(anchors, rng_arr)
    a_vec = 0.5 * np.array([_lorentz(row, row) for row in b_mat])
    rhs = np.column_stack([np.ones(len(anchors)), a_vec])
    u, v = (vt_mat.T @ ((u_mat.T @ rhs) / s_vals[:, None])).T

    qa = _lorentz(u, u)
    qb = 2.0 * (_lorentz(u, v) - 1.0)
    qc = _lorentz(v, v)
    rounding = COLLAPSE_ROUNDING * s_vals[0] / s_vals[-1] * np.finfo(float).eps * float(u @ u)
    if abs(qa) <= rounding:
        raise DegenerateGeometryError("quadratic collapsed; geometry degenerate")
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        raise NoRealSolutionError(f"negative discriminant ({disc:.3g})")
    sq = math.sqrt(disc)
    metric = np.array([1.0, 1.0, 1.0, -1.0])
    fixes = []
    for idx, lam in enumerate(((-qb + sq) / (2 * qa), (-qb - sq) / (2 * qa)), start=1):
        y = metric * (v + lam * u)
        pos = y[:3]
        bias = float(y[3])
        fixes.append(
            PositionFix(
                position=tuple(pos),
                clock_bias=bias,
                residual_rms=_residual_rms(anchors, rng_arr, pos, bias),
                candidate_index=idx,
            )
        )
    return fixes


def select_solution(candidates: list[PositionFix], bounds: RoomBounds) -> PositionFix:
    """The accepted fix among the candidates, or NoValidFixError.

    The whole acceptance rule, in order: keep the candidates inside
    ``bounds`` widened by ``BOUNDS_TOLERANCE_M``; break a tie by residual
    RMS; reject the chosen fix if its clock bias exceeds ``BIAS_GATE_M``
    (the gate never picks the candidate). The fix records which rule
    selected it ('bounds' when rejection left a single survivor, 'residual'
    when both candidates were in bounds).
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    inside = [c for c in candidates
              if all(lo - BOUNDS_TOLERANCE_M <= v <= hi + BOUNDS_TOLERANCE_M
                     for v, lo, hi in zip(c.position, bounds.minimum, bounds.maximum))]
    if not inside:
        raise NoValidFixError(
            f"all {len(candidates)} candidates fall outside the room bounds")
    rule = "bounds" if len(inside) == 1 else "residual"
    fix = replace(min(inside, key=lambda c: c.residual_rms), selection_rule=rule)
    if abs(fix.clock_bias) > BIAS_GATE_M:
        raise NoValidFixError(
            f"clock bias {fix.clock_bias:.3f} m exceeds the {BIAS_GATE_M} m "
            f"sanity gate for a synchronized system")
    return fix


def position_error(fix: PositionFix, truth) -> float:
    """Euclidean distance between a fix and the true position."""
    pos = np.asarray(fix.position, dtype=float)
    return float(np.linalg.norm(pos - np.asarray(truth, dtype=float)))
