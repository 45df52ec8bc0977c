"""Shared strategies and small numeric utilities for the test suite."""

import multiprocessing

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


def finite_floats(lo=-3.0, hi=3.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def complex_vectors(draw, size, lo=-3.0, hi=3.0):
    re = draw(arrays(np.float64, size, elements=finite_floats(lo, hi)))
    im = draw(arrays(np.float64, size, elements=finite_floats(lo, hi)))
    return re + 1j * im


@st.composite
def projective_points(draw, d):
    from hypothesis import assume

    v = draw(complex_vectors(d + 1))
    assume(np.linalg.norm(v) > 1e-3)
    return unit_vector(v)


def random_unitary(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    return q


def unit_vector(values):
    v = np.asarray(values, dtype=np.complex128)
    return v / np.linalg.norm(v)


def counting_pools(monkeypatch):
    """Count every process pool context taken from now on; returns the log."""
    starts = []
    get_context = multiprocessing.get_context

    def counting(*args, **kwargs):
        starts.append(args)
        return get_context(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", counting)
    return starts
