"""Points of complex projective space CP^d as (n, d+1) complex arrays.

Each row is a unit-norm representative of one point. Distances enter every
downstream energy through sin(d_FS), which for unit representatives is
sqrt(1 - |<p,q>|^2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["COINCIDENT_OVERLAP", "unit_rows"]

# Two unit rows with |<p,q>| at or above this are the same point of CP^d: in
# double precision the overlap of bit-identical unit vectors lands within a
# few ulps of 1, which sqrt(1 - |<p,q>|^2) would blow up to sin ~ 1e-8.
COINCIDENT_OVERLAP = 1.0 - 1e-15


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
