"""Primitives on complex projective space CP^d.

Points are stored as unit-norm representatives in C^(d+1); the affine chart
maps z in C^d to the class of (1, z). Distances enter every downstream energy
through sin(d_FS), which for unit representatives is sqrt(1 - |<p,q>|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "PointAtInfinityError",
    "ProjectivePoint",
    "ChartPoint",
    "unit_rows",
    "inner",
    "fubini_sin_distance",
    "chart_to_projective",
    "projective_to_chart",
    "chart_jacobian",
    "PROJECTIVE_EQUALITY_TOL",
]

# 1 - |<p,q>| below this means "same projective point".
PROJECTIVE_EQUALITY_TOL = 1e-9
# |p_1| below this means the chart inverse is undefined.
_CHART_BOUNDARY_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands belong to projective spaces of different dimension."""


class PointAtInfinityError(ValueError):
    """The point lies on the hyperplane the affine chart misses."""


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def unit_rows(points) -> np.ndarray:
    """(n, d+1) complex array of unit representatives, one row per point.

    Rows must be finite and non-zero with at least 2 homogeneous coordinates;
    each is divided by its norm. The phase is whatever the caller supplied.
    """
    arr = np.asarray(points, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"points must form a non-empty (n, d+1) array, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise ValueError("a projective point needs at least 2 homogeneous coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must have finite entries")
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("the zero vector has no projective class")
    return arr / norms


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product, linear in the first argument: sum a_i * conj(b_i)."""
    return complex(np.vdot(b, a))


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of CP^d as a unit-norm representative in C^(d+1).

    The representative is normalized at construction; the phase is whatever
    the caller supplied. Two instances describe the same projective point
    iff |<p,q>| = 1 up to :data:`PROJECTIVE_EQUALITY_TOL` (see :meth:`proj_eq`).
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coords, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"coords must be a 1-d vector, got shape {arr.shape}")
        arr = unit_rows(arr[None, :])[0]
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def d(self) -> int:
        return self.coords.size - 1

    def proj_eq(self, other: "ProjectivePoint", tol: float = PROJECTIVE_EQUALITY_TOL) -> bool:
        """Projective equality: |<p,q>| = 1 within ``tol``."""
        if other.d != self.d:
            return False
        return 1.0 - abs(inner(self.coords, other.coords)) <= tol


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """Affine-chart coordinates z in C^d."""

    z: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_vector(self.z, "z")
        if arr.size < 1:
            raise ValueError("chart point needs at least one coordinate")
        arr.setflags(write=False)
        object.__setattr__(self, "z", arr)

    @property
    def d(self) -> int:
        return self.z.size

    def squared_norm(self) -> float:
        return float(np.real(np.vdot(self.z, self.z)))


def fubini_sin_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """sin of the Fubini-Study distance: sqrt(1 - |<p,q>|^2), in [0, 1]."""
    if p.d != q.d:
        raise DimensionMismatchError(f"points live in CP^{p.d} and CP^{q.d}")
    c = min(abs(inner(p.coords, q.coords)), 1.0)
    return math.sqrt(max(0.0, (1.0 - c) * (1.0 + c)))


def chart_to_projective(z: ChartPoint) -> ProjectivePoint:
    """Map z in C^d to the class of (1, z), stored as (1, z)/sqrt(1+|z|^2)."""
    return ProjectivePoint(np.concatenate(([1.0 + 0.0j], z.z)))


def projective_to_chart(p: ProjectivePoint) -> ChartPoint:
    """Inverse chart map: (p_2/p_1, ..., p_{d+1}/p_1)."""
    first = p.coords[0]
    if abs(first) <= _CHART_BOUNDARY_TOL:
        raise PointAtInfinityError(
            "first homogeneous coordinate vanishes; the point is outside the affine chart"
        )
    return ChartPoint(p.coords[1:] / first)


def chart_jacobian(z: ChartPoint, d: int) -> float:
    """Jacobian of the chart map at z: (1/(1+|z|^2))^(d+1)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if z.d != d:
        raise DimensionMismatchError(f"chart point has dimension {z.d}, expected {d}")
    return float(math.exp(-(d + 1) * math.log1p(z.squared_norm())))
