"""Lifting projective samples to odd-dimensional spheres.

Each projective point contributes a fiber of k unit representatives, equally
spaced in phase with one uniform offset per point, drawn by `_lift_phases`:

    y_(i,j) = exp(1j * (theta_i + 2*pi*j/k)) * x_i,   0 <= j < k,

giving n = k*r points on the unit sphere of C^(d+1), i.e. S^(2d+1). A Monte
Carlo block lifts all its trials as one stacked (T, r) phase draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import unit_rows
from .sampler import ProjectiveSample

__all__ = ["SphereConfiguration", "lift_to_sphere", "realify"]


def _check_k(k: int) -> None:
    """The fiber-size rule, shared by the lift and its closed form."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")


def _lift_phases(r: int, rng: np.random.Generator) -> np.ndarray:
    """r offsets theta_i, uniform on [0, 2 pi), drawn from the rng after the sample."""
    return rng.uniform(0.0, 2.0 * math.pi, size=r)


def _lifted_rows(representatives, phases, k: int, fibers, steps) -> np.ndarray:
    """The lifted points y_(i,m) of fibers i at phase steps m, from (..., r, d+1)
    representatives and (..., r) phases, so one call serves a stack of lifts."""
    angles = phases[..., fibers] + 2.0 * math.pi * np.asarray(steps) / k
    return np.exp(1j * angles)[..., None] * representatives[..., fibers, :]


def _lifted_points(representatives, phases, k: int) -> np.ndarray:
    """The n = k*r points of one lift, row k*i + j holding y_(i,j), from
    (r, d+1) unit representatives and r phases."""
    r = len(phases)
    pts = _lifted_rows(representatives, phases, k, np.arange(r)[:, None], np.arange(k))
    return pts.reshape(k * r, -1)


@dataclass(frozen=True, eq=False)
class SphereConfiguration:
    """The lift of r projective points: a fiber of k unit vectors per point.

    ``representatives`` holds the r points as (r, d+1) unit rows (any
    non-zero rows are normalised at construction), ``phases`` the per-point
    offsets theta_i. ``points`` is built from them on first use: row k*i + j
    holds y_(i,j), n = k*r rows in all. So every instance is a valid lift.
    """

    representatives: np.ndarray
    phases: np.ndarray
    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)
        reps = unit_rows(self.representatives)
        phases = np.array(self.phases, dtype=np.float64)
        if phases.shape != reps.shape[:1] or not np.all(np.isfinite(phases)):
            raise ValueError("phases must hold one finite offset per representative")
        reps.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "phases", phases)

    @cached_property
    def points(self) -> np.ndarray:
        pts = _lifted_points(self.representatives, self.phases, self.k)
        pts.setflags(write=False)
        return pts

    @property
    def n(self) -> int:
        return self.k * self.representatives.shape[0]


def lift_to_sphere(
    sample: ProjectiveSample | np.ndarray, k: int, rng: np.random.Generator
) -> SphereConfiguration:
    """Lift every projective point to k phase-equispaced sphere points.

    Accepts a ProjectiveSample or any (r, d+1) array of representatives;
    the configuration normalises the rows.
    """
    reps = sample.points if isinstance(sample, ProjectiveSample) else np.asarray(sample)
    phases = _lift_phases(len(reps), rng)
    return SphereConfiguration(representatives=reps, phases=phases, k=k)


def realify(config: SphereConfiguration | np.ndarray) -> np.ndarray:
    """Interleave (re, im) of each complex coordinate; (n, m) -> (n, 2m).

    Accepts a SphereConfiguration or any complex (n, m) array; Euclidean
    norms are preserved row by row.
    """
    pts = config.points if isinstance(config, SphereConfiguration) else config
    return np.array(np.atleast_2d(pts), dtype=np.complex128, order="C").view(np.float64)
