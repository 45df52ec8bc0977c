"""Weighted-monomial basis on C^d and its reproducing kernel.

For a degree bound L the basis functions are indexed by multi-indices alpha
with |alpha| <= L:

    phi_alpha(z) = sqrt(C_alpha) * z^alpha / (1 + |z|^2)^((d+L+1)/2),
    C_alpha      = (d+L)! / (pi^d * alpha_1! ... alpha_d! * (L - |alpha|)!),

an orthonormal family of r = C(d+L, d) functions in L^2(C^d). The kernel they
reproduce has the closed form

    K(z, w) = (r d! / pi^d) (1 + <z,w>)^L
              / ((1+|z|^2)(1+|w|^2))^((d+L+1)/2),

and its pushforward to CP^d through the affine chart has constant diagonal
r d!/pi^d and magnitude (r d!/pi^d) |<p,q>|^L for unit representatives.

The sampler works with the kernel alone: in the Schur complement that sets
its acceptance ratio, both the constant r d!/pi^d and the unimodular phase
gauge of the pushforward cancel, so unit representatives only enter through
<p,q>^L. Feature vectors v(z) are the test oracle for the kernel identity
<v(z), v(w)> = K(z, w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    ChartPoint,
    DimensionMismatchError,
    ProjectivePoint,
    chart_jacobian,
    inner,
)

__all__ = [
    "KernelParams",
    "enumerate_multi_indices",
    "basis_coefficient",
    "feature_vector",
    "kernel_eval",
    "projective_kernel_magnitude",
    "joint_intensity_2",
]


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    # First coordinate descending, recursively; yields C(total+slots-1, slots-1) tuples.
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def enumerate_multi_indices(d: int, L: int) -> list[tuple[int, ...]]:
    """All exponent tuples with |alpha| <= L in graded order.

    Degree blocks are contiguous and ascending; within a degree the first
    coordinate descends, so the order is reproducible and serialization of
    feature vectors is stable.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    out: list[tuple[int, ...]] = []
    for degree in range(L + 1):
        out.extend(_compositions(degree, d))
    return out


@dataclass(frozen=True)
class KernelParams:
    """Immutable parameters (d, L) of the weighted-monomial subspace."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("d must be a positive integer")
        if not isinstance(self.L, int) or self.L < 0:
            raise ValueError("L must be a non-negative integer")

    @cached_property
    def r(self) -> int:
        """Subspace dimension C(d+L, d)."""
        return math.comb(self.d + self.L, self.d)

    @cached_property
    def intensity(self) -> float:
        """Constant one-point intensity on CP^d: r d! / pi^d."""
        return math.exp(
            math.log(self.r) + math.lgamma(self.d + 1) - self.d * math.log(math.pi)
        )


def _log_coefficient(alpha: tuple[int, ...], params: KernelParams) -> float:
    """log C_alpha through log-gamma, so large d and L stay in range."""
    return (
        math.lgamma(params.d + params.L + 1)
        - sum(math.lgamma(a + 1) for a in alpha)
        - math.lgamma(params.L - sum(alpha) + 1)
        - params.d * math.log(math.pi)
    )


def basis_coefficient(alpha: Sequence[int], params: KernelParams) -> float:
    """Coefficient C_alpha, evaluated through log-gamma to avoid overflow."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != params.d:
        raise ValueError(f"alpha has {len(alpha)} entries, expected d={params.d}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be non-negative")
    total = sum(alpha)
    if total > params.L:
        raise ValueError(f"sum(alpha)={total} exceeds the degree bound L={params.L}")
    return math.exp(_log_coefficient(alpha, params))


def feature_vector(z: ChartPoint, params: KernelParams) -> np.ndarray:
    """Values of all r basis functions at z, ordered like enumerate_multi_indices.

    Evaluated on the rescaled coordinates zhat = z/sqrt(1+|z|^2) as
    sqrt(C_alpha) zhat^alpha (1+|z|^2)^((|alpha| - d - L - 1)/2), where every
    factor but the coefficient is bounded by 1.
    """
    if z.d != params.d:
        raise DimensionMismatchError(f"chart point has dimension {z.d}, expected {params.d}")
    alphas = enumerate_multi_indices(params.d, params.L)
    log1p = math.log1p(z.squared_norm())
    zhat = z.z * math.exp(-0.5 * log1p)
    log_scale = np.array([
        0.5 * _log_coefficient(a, params) + 0.5 * (sum(a) - params.d - params.L - 1) * log1p
        for a in alphas
    ])
    return np.exp(log_scale) * np.prod(zhat ** np.array(alphas), axis=1)


def kernel_eval(z: ChartPoint, w: ChartPoint, params: KernelParams) -> complex:
    """Reproducing kernel K(z, w); Hermitian, with K(z, z) real positive."""
    if z.d != params.d or w.d != params.d:
        raise DimensionMismatchError("chart points must match the kernel dimension d")
    log_sz = math.log1p(z.squared_norm())
    log_sw = math.log1p(w.squared_norm())
    # |1 + <z,w>|^2 <= (1+|z|^2)(1+|w|^2), so the rescaled base stays in the unit disk.
    base = (1.0 + inner(z.z, w.z)) * math.exp(-0.5 * (log_sz + log_sw))
    tail = math.exp(-0.5 * (params.d + 1) * (log_sz + log_sw))
    return complex(params.intensity * base**params.L * tail)


def projective_kernel_magnitude(
    p: ProjectivePoint, q: ProjectivePoint, params: KernelParams
) -> float:
    """|K(p, q)| on CP^d: (r d!/pi^d) |<p,q>|^L for unit representatives."""
    if p.d != q.d:
        raise DimensionMismatchError(f"points live in CP^{p.d} and CP^{q.d}")
    if p.d != params.d:
        raise DimensionMismatchError(f"points live in CP^{p.d}, kernel has d={params.d}")
    c = min(abs(inner(p.coords, q.coords)), 1.0)
    return params.intensity * c**params.L


def joint_intensity_2(p: ProjectivePoint, q: ProjectivePoint, params: KernelParams) -> float:
    """Two-point intensity K(p,p)K(q,q) - |K(p,q)|^2; zero at coincidence."""
    k_pq = projective_kernel_magnitude(p, q, params)
    return max(params.intensity**2 - k_pq**2, 0.0)


def _chart_kernel_magnitude_pushed(z: ChartPoint, w: ChartPoint, params: KernelParams) -> float:
    """|K(z,w)| divided by sqrt of both chart Jacobians (pushforward magnitude)."""
    jac = chart_jacobian(z, params.d) * chart_jacobian(w, params.d)
    return abs(kernel_eval(z, w, params)) / math.sqrt(jac)
