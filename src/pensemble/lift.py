"""Lifting projective samples to odd-dimensional spheres.

Each projective point contributes a fiber of k unit representatives, equally
spaced in phase with one uniform random phase offset per point:

    y_(i,j) = exp(1j * (theta_i + 2*pi*j/k)) * x_i,   0 <= j < k,

giving n = k*r points on the unit sphere of C^(d+1), i.e. S^(2d+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import unit_rows
from .sampler import ProjectiveSample

__all__ = ["SphereConfiguration", "lift_to_sphere", "realify"]


@dataclass(frozen=True, eq=False)
class SphereConfiguration:
    """n = k*r unit vectors in C^(d+1), grouped in fibers of k per source point.

    Row k*i + j holds y_(i,j); ``phases`` keeps the per-point offsets theta_i.
    """

    points: np.ndarray
    k: int
    phases: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1] - 1


def lift_to_sphere(
    sample: ProjectiveSample | np.ndarray, k: int, rng: np.random.Generator
) -> SphereConfiguration:
    """Lift every projective point to k phase-equispaced sphere points.

    Accepts a ProjectiveSample or any (r, d+1) array of representatives;
    rows are normalised first.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    matrix = unit_rows(sample.points if isinstance(sample, ProjectiveSample) else sample)
    r = matrix.shape[0]
    phases = rng.uniform(0.0, 2.0 * math.pi, size=r)
    offsets = 2.0 * math.pi * np.arange(k) / k
    factors = np.exp(1j * (phases[:, None] + offsets[None, :]))  # (r, k)
    lifted = factors[:, :, None] * matrix[:, None, :]            # (r, k, d+1)
    pts = lifted.reshape(r * k, -1)
    pts.setflags(write=False)
    phases.setflags(write=False)
    return SphereConfiguration(points=pts, k=k, phases=phases)


def realify(config: SphereConfiguration | np.ndarray) -> np.ndarray:
    """Interleave (re, im) of each complex coordinate; (n, m) -> (n, 2m).

    Accepts a SphereConfiguration or any complex (n, m) array; Euclidean
    norms are preserved row by row.
    """
    pts = config.points if isinstance(config, SphereConfiguration) else np.asarray(config)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
    out = np.empty((pts.shape[0], 2 * pts.shape[1]))
    out[:, 0::2] = pts.real
    out[:, 1::2] = pts.imag
    return out
