"""Point-set files and deterministic JSON serialization.

All output goes through the stdlib ``json`` encoder, which writes each float
in its shortest round-trip form (``float.__repr__``), so every double reads
back bit-for-bit, -0.0 included. Complex vectors serialize as per-coordinate
[re, im] pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lift import _check_k
from .sampler import KernelParams, _check_d, _check_seed

__all__ = [
    "PointSetFile",
    "SPACE_PROJECTIVE",
    "SPACE_SPHERE",
    "format_float",
    "dumps",
    "pointset_to_json",
    "pointset_from_json",
    "read_pointset",
]

SPACE_PROJECTIVE = "CP"
SPACE_SPHERE = "S"


def format_float(x: float) -> str:
    """Shortest decimal form that reads back to the same double; the same
    digits :func:`dumps` writes."""
    if not math.isfinite(x):
        raise ValueError("only finite numbers are serialized")
    return repr(float(x))


def dumps(obj) -> str:
    """Compact JSON in insertion key order; non-finite floats raise ValueError."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


@dataclass(frozen=True, eq=False)
class PointSetFile:
    """On-disk point set: projective representatives ("CP") or sphere points ("S").

    The header obeys the package's own parameter rules: an unsigned 64-bit
    seed, d >= 1, L >= 0 for CP, and for S a k >= 1 that divides the number
    of points, which come in whole fibers. A CP file may hold any number of
    points, so hand-written sets reach the energies too.
    """

    space: str
    d: int
    seed: int
    points: np.ndarray  # (n, d+1) complex
    L: Optional[int] = None  # CP only
    k: Optional[int] = None  # S only

    def __post_init__(self) -> None:
        if self.space not in (SPACE_PROJECTIVE, SPACE_SPHERE):
            raise ValueError(f"space must be 'CP' or 'S', got {self.space!r}")
        if self.space == SPACE_PROJECTIVE and self.L is None:
            raise ValueError("CP point sets record the degree L")
        if self.space == SPACE_SPHERE and self.k is None:
            raise ValueError("sphere point sets record the fiber size k")
        _check_seed(self.seed)
        if self.space == SPACE_PROJECTIVE:
            KernelParams(self.d, self.L)  # the sampler's rules for d and L
        else:
            _check_d(self.d)
            _check_k(self.k)
        pts = np.asarray(self.points, dtype=np.complex128)
        if pts.ndim != 2 or pts.shape[1] != self.d + 1:
            raise ValueError(f"points must be (n, d+1) with d={self.d}")
        if self.space == SPACE_SPHERE and pts.shape[0] % self.k:
            raise ValueError(
                f"a sphere point set holds whole fibers of k = {self.k} points; got {pts.shape[0]}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _encode_points(points: np.ndarray) -> list:
    return np.stack((points.real, points.imag), axis=-1).tolist()


def _is_pair(pair) -> bool:
    return type(pair) is list and len(pair) == 2 and all(type(x) in (int, float) for x in pair)


def _decode_points(rows) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("'points' must be a list of points, each a list of [re, im] pairs")
    if len(set(map(len, rows))) > 1:
        raise ValueError("all points must have the same number of coordinates")
    cells = np.array(rows, dtype=object)  # (n, d+1, 2) when every coordinate is a pair
    if cells.ndim == 3 and cells.shape[2] == 2:
        # bool is an int subclass; JSON true is not a coordinate.
        if set(map(type, cells.ravel())) <= {int, float}:
            try:
                values = cells.astype(np.float64)
            except OverflowError:  # an integer token beyond double range
                raise ValueError("point coordinates must be finite") from None
            if not np.isfinite(values).all():
                raise ValueError("point coordinates must be finite")
            return values.view(np.complex128)[..., 0]
    elif cells.ndim < 3 and cells.size == 0:  # no coordinates; the width check reports it
        return cells.astype(np.complex128)
    bad = next(pair for row in rows for pair in row if not _is_pair(pair))
    raise ValueError(f"a coordinate must be an [re, im] pair of numbers, got {bad!r}")


def pointset_to_json(ps: PointSetFile) -> str:
    doc: dict = {"space": ps.space, "d": ps.d}
    if ps.space == SPACE_PROJECTIVE:
        doc["L"] = ps.L
    else:
        doc["k"] = ps.k
    doc["seed"] = ps.seed
    doc["points"] = _encode_points(ps.points)
    return dumps(doc)


def _header_int(doc: dict, key: str) -> Optional[int]:
    if key not in doc:
        return None
    value = doc[key]
    if type(value) is not int:  # bool is an int subclass; JSON true is not a count
        raise ValueError(f"point-set field {key!r} must be an integer, got {value!r}")
    return value


def pointset_from_json(text: str) -> PointSetFile:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a point-set file must hold a JSON object")
    for key in ("space", "d", "seed", "points"):
        if key not in doc:
            raise ValueError(f"point-set file is missing the {key!r} field")
    return PointSetFile(
        space=doc["space"],
        d=_header_int(doc, "d"),
        seed=_header_int(doc, "seed"),
        points=_decode_points(doc["points"]),
        L=_header_int(doc, "L"),
        k=_header_int(doc, "k"),
    )


def read_pointset(path) -> PointSetFile:
    with open(path, "r", encoding="utf-8") as handle:
        return pointset_from_json(handle.read())
