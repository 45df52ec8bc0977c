"""Discrete pair energies: Riesz and logarithmic on Euclidean point sets,
their sin-distance analogues on CP^d, and the zero-mean Green energy on CP^d.

All energies sum over ordered pairs (every unordered pair counts twice). A
pair at distance below the coincidence floor makes the energy +inf; callers
that average over random configurations can discard such draws.

Euclidean energies take (n, dim) real arrays. The projective energies take
(n, d+1) complex arrays of representatives, one row per point; rows are
normalised through :func:`pensemble.geometry.unit_rows`, so any non-zero
representative will do. The Euclidean 2-energy of a lifted configuration on
S^(2d+1) also has an exact form per pair of fibers, :func:`sphere_2energy`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .geometry import COINCIDENT_OVERLAP, unit_rows
from .lift import _lifted_rows

__all__ = [
    "COINCIDENCE_FLOOR",
    "riesz_energy",
    "log_energy",
    "sphere_2energy",
    "projective_riesz_energy",
    "projective_log_energy",
    "projective_pair_sums",
    "green_energy",
    "green_constant",
]

# Distances (Euclidean or sin of projective distance) below this count as a
# coincident pair: rounding noise, not geometry.
COINCIDENCE_FLOOR = 1e-15

_BLOCK_ROWS = 1024


def _blocked_pair_sums(
    count: int,
    n: int,
    distance_block: Callable[[int, int], np.ndarray],
    summands: list[Callable[[np.ndarray], np.ndarray]],
) -> np.ndarray:
    """Sum each summand(distance) over ordered pairs i != j of each of
    ``count`` configurations of n points; returns a (count, len(summands)) array.

    ``distance_block(a, b)`` gives the (count, b - a, n) distances from rows
    a..b-1 of every configuration to all its rows; past _BLOCK_ROWS points
    the rows come in blocks. Every block of distances is formed and checked
    for coincidence once, then shared by all summands; one coincident pair
    makes every sum of its own configuration +inf. Each block's terms are
    summed by numpy, rounded once per block; ``math.fsum`` then adds those
    partial sums exactly and rounds once. So no rounding error accumulates
    across blocks, which keeps the n^2 mixed-magnitude terms past ~1e4
    points accurate, but a different block schedule may still change the
    last bits.
    """
    partials: list[list[np.ndarray]] = [[] for _ in summands]
    coincident = np.zeros(count, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        dists = distance_block(start, stop)
        rows = np.arange(stop - start)
        dists[:, rows, start + rows] = 1.0  # neutral placeholder on the diagonal
        hit = (dists < COINCIDENCE_FLOOR).any(axis=(1, 2))
        dists[hit] = 1.0  # neutral too: those sums are set to +inf below
        coincident |= hit
        for summand, acc in zip(summands, partials):
            vals = summand(dists)
            vals[:, rows, start + rows] = 0.0
            acc.append(vals.reshape(count, -1).sum(axis=1))
    sums = np.array([[math.fsum(terms) for terms in zip(*acc)] for acc in partials]).T
    sums[coincident] = math.inf
    return sums


def _as_point_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must form a non-empty (n, dim) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must have finite entries")
    return pts


def _check_riesz_s(s: float) -> None:
    """The Euclidean Riesz exponent rule 0 < s < inf."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite; got {s}")


def _euclidean_pair_sum(points, term) -> float:
    """Sum of term(|x_i - x_j|) over ordered pairs of Euclidean points."""
    # Imported here: scipy.spatial adds about 12 MB to every process that
    # imports pensemble, and only the Euclidean energies use it.
    from scipy.spatial.distance import cdist

    pts = _as_point_matrix(points)
    return float(_blocked_pair_sums(
        1, pts.shape[0], lambda a, b: cdist(pts[a:b], pts)[None], [term]
    )[0, 0])


def riesz_energy(points, s: float) -> float:
    """Sum of 1/|x_i - x_j|^s over ordered pairs of Euclidean points."""
    _check_riesz_s(s)
    return _euclidean_pair_sum(points, lambda dm: dm ** (-s))


def log_energy(points) -> float:
    """Sum of log(1/|x_i - x_j|) over ordered pairs of Euclidean points."""
    return _euclidean_pair_sum(points, lambda dm: -np.log(dm))


def _fiber_2energy(k: int) -> float:
    """k(k^2-1)/12, the Euclidean 2-energy over ordered pairs of one fiber.

    A fiber of k lifted points is a rotated copy of the k-th roots of unity
    on a great circle, so this term depends on k alone: every lifted
    configuration, not only the expected one, holds r times it within its
    fibers.
    """
    return k * (k * k - 1.0) / 12.0


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a C-contiguous complex array."""
    real = rows.view(np.float64)
    return np.einsum("...c,...c->...", real, real)


def sphere_2energy(config) -> float:
    """Euclidean 2-energy of a lifted configuration, one closed form per fiber pair.

    ``config`` is a SphereConfiguration; only its r representatives, their
    phases and k are read, never the k*r lifted points. The result equals
    ``riesz_energy(realify(config), 2.0)``, +inf on a lifted pair closer
    than COINCIDENCE_FLOOR included, in O(r^2) rather than O(k^2 r^2).

    For fibers i != j with <y_(i,0), y_(j,0)> = rho e^(i phi), the lifted
    distances are 2 - 2 rho cos(phi + 2 pi m/k). With
    q = rho / (1 + sqrt(1 - rho^2)), 1/(2 - 2 rho cos t) is (1+q^2)/2 times a
    Poisson kernel in q, and the k phases keep its Fourier modes in k Z, so
    the k^2 ordered pairs between the two fibers sum to

        k^2 (1+q^2)/2 * (1-q^(2k)) / ((1-q^2) ((1-q^k)^2 + 4 q^k sin^2(k phi/2)))
      = k^2 (1-q^(2k)) / (2 sqrt(1-rho^2) ((1-q^k)^2 + 4 q^k sin^2(k phi/2))),

    as (1+q^2)/(1-q^2) = 1/sqrt(1-rho^2); (1-q^(2k))/sqrt(1-rho^2) tends to
    2k as rho -> 1. Each fiber adds k(k^2-1)/12.

    1 - rho is taken from the distance between the fiber representatives
    once their phases are aligned, not from 1 - |<y, y'>|, so a lifted pair
    at small distance delta costs a relative error of order 1e-16/delta, as
    in the pairwise sum, not 1e-16/delta^2.
    """
    reps, phases = config.representatives[None], config.phases[None]
    return float(_sphere_2energies(reps, phases, config.k)[0])


def _sphere_2energies(reps: np.ndarray, phases: np.ndarray, k: int) -> np.ndarray:
    """:func:`sphere_2energy` of each lift in a stack: (T, r, d+1) unit
    representatives and (T, r) phases, all with fibers of k points; a lift
    with a coincident pair gets +inf, the others their finite energy."""
    r = phases.shape[-1]
    i, j = np.nonzero(np.arange(r)[:, None] < np.arange(r))  # fiber pairs i < j
    # The same arithmetic builds ``SphereConfiguration.points``, so the lifted
    # points used here match those the pairwise sum sees bit for bit.
    fibers0 = _lifted_rows(reps, phases, k, np.arange(r), 0)
    first, second = fibers0[:, i], fibers0[:, j]
    phi = np.angle(np.einsum("...c,...c->...", first.conj(), second))
    # The nearest lifted pair of fibers i and j is y_(i,0), y_(j,m) with
    # phi + 2 pi m/k closest to 0; compare those points as the pairwise
    # energy does.
    m = np.rint(phi * (-k / (2.0 * math.pi))).astype(np.int64) % k
    gap = first - _lifted_rows(reps, phases, k, j, m)
    coincident = (np.sqrt(_squared_norms(gap)) < COINCIDENCE_FLOOR).any(axis=-1)
    aligned = second - np.exp(1j * phi)[..., None] * first
    one_minus_rho = np.minimum(0.5 * _squared_norms(aligned), 1.0)
    root = np.sqrt(one_minus_rho * (2.0 - one_minus_rho))  # sqrt(1 - rho^2)
    one_minus_q = (one_minus_rho + root) / (1.0 + root)
    # log q = -inf on an orthogonal pair; a coincident lift may divide by
    # zero, and its energy is set to +inf below.
    with np.errstate(divide="ignore"):
        k_log_q = k * np.log1p(-one_minus_q)
        q_k = np.exp(k_log_q)
        one_minus_q_k = -np.expm1(k_log_q)
        # (1 - q^(2k)) / sqrt(1 - rho^2), which tends to 2k as rho -> 1.
        numerator = np.divide(
            one_minus_q_k * (1.0 + q_k), root,
            out=np.full_like(root, 2.0 * k), where=root > 0.0,
        )
        denominator = one_minus_q_k**2 + 4.0 * q_k * np.sin(0.5 * k * phi) ** 2
        # Each unordered fiber pair stands for its two ordered pairs.
        cross = (numerator / denominator).sum(axis=-1)
    return np.where(coincident, math.inf, k * k * cross + r * _fiber_2energy(k))


def _sin_distance_block(mats: np.ndarray, a: int, b: int) -> np.ndarray:
    overlap = np.clip(np.abs(mats[:, a:b] @ np.swapaxes(mats.conj(), 1, 2)), 0.0, 1.0)
    sin = np.sqrt((1.0 - overlap) * (1.0 + overlap))
    # Coincident rows collapse to distance 0, so the distance floor flags them.
    sin[overlap >= COINCIDENT_OVERLAP] = 0.0
    return sin


def _check_projective_s(s: float, d: int) -> None:
    """The projective Riesz exponent rule 0 < s < 2d: sin(d_FS)^(-s) is
    integrable on CP^d, so its expected energy is finite, exactly there."""
    if not 0.0 < s < 2.0 * d:
        raise ValueError(f"s must lie in (0, 2d) = (0, {2 * d}); got {s}")


def projective_pair_sums(points, s_values) -> tuple[dict[float, float], float]:
    """Ordered-pair sums of sin(d_FS)^(-s), one per s in s_values, and of
    -log sin(d_FS), all from one pass over the sin-distance matrix.

    Returns ({s: sum}, log_sum). Each s must lie in (0, 2d); a coincident
    pair makes every sum +inf.
    """
    riesz, log = _unit_pair_sums(unit_rows(points)[None], s_values)
    return {s: float(sums[0]) for s, sums in riesz.items()}, float(log[0])


def _unit_pair_sums(mats: np.ndarray, s_values) -> tuple[dict[float, np.ndarray], np.ndarray]:
    """:func:`projective_pair_sums` of each configuration in a (T, n, d+1)
    stack of unit rows, as (T,) arrays; a coincident pair makes only its own
    configuration's sums +inf."""
    d = mats.shape[-1] - 1
    s_values = list(dict.fromkeys(float(s) for s in s_values))
    for s in s_values:
        _check_projective_s(s, d)
    summands = [lambda dm, s=s: dm ** (-s) for s in s_values]
    summands.append(lambda dm: -np.log(dm))
    sums = _blocked_pair_sums(
        *mats.shape[:2], lambda a, b: _sin_distance_block(mats, a, b), summands
    )
    *riesz, log = sums.T
    return dict(zip(s_values, riesz)), log


def projective_riesz_energy(points, s: float) -> float:
    """Sum of sin(d_FS(x_i, x_j))^(-s) over ordered pairs; requires 0 < s < 2d."""
    riesz, _ = projective_pair_sums(points, (s,))
    return riesz[s]


def projective_log_energy(points) -> float:
    """Sum of log(1/sin(d_FS(x_i, x_j))) over ordered pairs."""
    return projective_pair_sums(points, ())[1]


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


def _green_s_values(d: int) -> tuple[float, ...]:
    """The Riesz exponents s = 2d-2, ..., 4, 2 that enter the Green profile."""
    return tuple(2.0 * j for j in range(d - 1, 0, -1))


def _green_combination(d: int, log_term, riesz_term: Callable, pairs):
    """The Green profile composed from sin-distance log and Riesz terms:

    ((d-1)!/(2 pi^d)) * [ log_term + sum_{j=1}^{d-1} riesz_term(2j)/(2j) ]
                      + pairs * green_constant(d),

    with riesz_term(s) the s-term. On one pair's -log sin and sin^(-s) with
    pairs = 1 this is the Green function; on ordered-pair sums with
    pairs = n(n-1) it is the Green energy; on expected sums it is the
    expected Green energy. Every Green path reaches green_constant, the one
    check of the Green domain d >= 2.
    """
    bracket = log_term
    for s in _green_s_values(d):
        bracket = bracket + riesz_term(s) / s
    return _green_prefactor(d) * bracket + pairs * green_constant(d)


def green_energy(points, d: int) -> float:
    """Sum of the Green function over ordered pairs of points in CP^d, d >= 2."""
    green_constant(d)  # the Green domain, checked before the pair pass
    shape = np.shape(points)
    if len(shape) == 2 and shape[1] - 1 != d:
        raise ValueError(f"points live in CP^{shape[1] - 1}, expected CP^{d}")
    riesz, log = projective_pair_sums(points, _green_s_values(d))
    n = shape[0]
    return _green_combination(d, log, riesz.__getitem__, n * (n - 1))
