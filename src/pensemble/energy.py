"""Discrete pair energies: Riesz and logarithmic on Euclidean point sets,
their sin-distance analogues on CP^d, and the zero-mean Green energy on CP^d.

All energies sum over ordered pairs (every unordered pair counts twice). A
pair at distance below the coincidence floor makes the energy +inf; callers
that average over random configurations can discard such draws.

Euclidean energies take (n, dim) real arrays. The projective energies take
(n, d+1) complex arrays of representatives, one row per point; rows are
normalised through :func:`pensemble.geometry.unit_rows`, so any non-zero
representative will do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import ProjectivePoint, inner, unit_rows

__all__ = [
    "EnergyReport",
    "COINCIDENCE_FLOOR",
    "riesz_energy",
    "log_energy",
    "projective_riesz_energy",
    "projective_log_energy",
    "green_function",
    "green_energy",
    "green_constant",
]

# Distances (Euclidean or sin of projective distance) below this count as a
# coincident pair: rounding noise, not geometry.
COINCIDENCE_FLOOR = 1e-15

# |<p,q>| at or above this is indistinguishable from projective equality in
# double precision (the overlap of bit-identical unit vectors lands within a
# few ulps of 1, which the sqrt blows up to sin ~ 1e-8); such pairs collapse
# to an exact coincidence so the distance floor can flag them.
_COINCIDENT_OVERLAP = 1.0 - 1e-15

_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class EnergyReport:
    """One computed energy value with its kind and parameters."""

    kind: str  # riesz | log | projective_riesz | projective_log | green
    s: float   # 0.0 for the logarithmic and green kinds
    value: float
    n_points: int

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "s": self.s,
            "value": None if self.infinite else self.value,
            "infinite": self.infinite,
            "n_points": self.n_points,
        }


def _blocked_pair_sum(
    n: int,
    distance_block: Callable[[int, int], np.ndarray],
    summand: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Sum summand(distance) over ordered pairs i != j, blocked by rows.

    Block partial sums are combined with exact compensated summation, so the
    result does not depend on the block schedule and stays accurate for the
    n^2 mixed-magnitude terms that show up past ~1e4 points.
    """
    partials: list[float] = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        dists = distance_block(start, stop)
        rows = np.arange(stop - start)
        dists[rows, start + rows] = 1.0  # neutral placeholder on the diagonal
        if np.any(dists < COINCIDENCE_FLOOR):
            return math.inf
        vals = summand(dists)
        vals[rows, start + rows] = 0.0
        partials.append(float(np.sum(vals)))
    return math.fsum(partials)


def _as_point_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must form a non-empty (n, dim) array")
    return pts


def riesz_energy(points, s: float) -> float:
    """Sum of 1/|x_i - x_j|^s over ordered pairs of Euclidean points."""
    if not s > 0:
        raise ValueError("s must be positive")
    pts = _as_point_matrix(points)
    if pts.shape[0] < 2:
        return 0.0
    return _blocked_pair_sum(
        pts.shape[0],
        lambda a, b: cdist(pts[a:b], pts),
        lambda dm: dm ** (-s),
    )


def log_energy(points) -> float:
    """Sum of log(1/|x_i - x_j|) over ordered pairs of Euclidean points."""
    pts = _as_point_matrix(points)
    if pts.shape[0] < 2:
        return 0.0
    return _blocked_pair_sum(
        pts.shape[0],
        lambda a, b: cdist(pts[a:b], pts),
        lambda dm: -np.log(dm),
    )


def _sin_distance_block(mat: np.ndarray, a: int, b: int) -> np.ndarray:
    overlap = np.clip(np.abs(mat[a:b] @ mat.conj().T), 0.0, 1.0)
    sin = np.sqrt((1.0 - overlap) * (1.0 + overlap))
    sin[overlap >= _COINCIDENT_OVERLAP] = 0.0
    return sin


def _projective_pair_sum(mat: np.ndarray, summand: Callable[[np.ndarray], np.ndarray]) -> float:
    if mat.shape[0] < 2:
        return 0.0
    return _blocked_pair_sum(
        mat.shape[0],
        lambda a, b: _sin_distance_block(mat, a, b),
        summand,
    )


def projective_riesz_energy(points, s: float) -> float:
    """Sum of sin(d_FS(x_i, x_j))^(-s) over ordered pairs; requires 0 < s < 2d."""
    mat = unit_rows(points)
    d = mat.shape[1] - 1
    if not 0.0 < s < 2.0 * d:
        raise ValueError(f"s must lie in (0, 2d) = (0, {2 * d}); got {s}")
    return _projective_pair_sum(mat, lambda dm: dm ** (-s))


def projective_log_energy(points) -> float:
    """Sum of log(1/sin(d_FS(x_i, x_j))) over ordered pairs."""
    return _projective_pair_sum(unit_rows(points), lambda dm: -np.log(dm))


def _green_prefactor(d: int) -> float:
    """(d-1)!/(2 pi^d), the scale of the Green radial profile on CP^d."""
    return math.exp(math.lgamma(d) - d * math.log(math.pi)) / 2.0


def green_constant(d: int) -> float:
    """Additive constant making the Green radial profile zero-mean on CP^d:

    -((d-1)!/(4 pi^d)) * (1/d + 2 * sum_{k=1}^{d-1} 1/k).
    """
    if d < 2:
        raise ValueError("the Green function is implemented for d >= 2 only")
    harmonic = sum(1.0 / k for k in range(1, d))
    return -0.5 * _green_prefactor(d) * (1.0 / d + 2.0 * harmonic)


def _green_phi(d: int, sin_r):
    """Green radial profile as a function of sin(d_FS), vectorized.

    ((d-1)!/(2 pi^d)) * [ (1/2) sum_{k=1}^{d-1} sin^( -(2d-2k) )/(d-k)
                          - log sin ] + green_constant(d)
    """
    sin_r = np.asarray(sin_r, dtype=np.float64)
    pref = _green_prefactor(d)
    acc = np.zeros_like(sin_r)
    inv_sq = sin_r ** (-2.0)
    power = np.ones_like(sin_r)
    for k in range(d - 1, 0, -1):  # ascending powers of 1/sin^2
        power = power * inv_sq
        acc += power / (d - k)
    return pref * (0.5 * acc - np.log(sin_r)) + green_constant(d)


def green_function(d: int, p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Zero-mean Green function of CP^d at (p, q); symmetric, +inf at coincidence."""
    if d < 2:
        raise ValueError("the Green function is implemented for d >= 2 only")
    if p.d != d or q.d != d:
        raise ValueError(f"points live in CP^{p.d}/CP^{q.d}, expected CP^{d}")
    # The inner product of swapped arguments is the exact complex conjugate,
    # so this route keeps G(p, q) == G(q, p) bit-for-bit.
    overlap = min(abs(inner(p.coords, q.coords)), 1.0)
    if overlap >= _COINCIDENT_OVERLAP:
        return math.inf
    sin_r = math.sqrt((1.0 - overlap) * (1.0 + overlap))
    return float(_green_phi(d, sin_r))


def green_energy(points, d: int) -> float:
    """Sum of the Green function over ordered pairs of points in CP^d."""
    if d < 2:
        raise ValueError("the Green function is implemented for d >= 2 only")
    mat = unit_rows(points)
    if mat.shape[1] - 1 != d:
        raise ValueError(f"points live in CP^{mat.shape[1] - 1}, expected CP^{d}")
    return _projective_pair_sum(mat, lambda dm: _green_phi(d, dm))
