import math

import numpy as np
import pytest
from hypothesis import given
from scipy import integrate

from helpers import complex_vectors, projective_points, random_unitary, unit_vector
from oracles import chart_jacobian, chart_to_projective, fubini_sin_distance, projective_to_chart
from pensemble.geometry import unit_rows


def test_projective_point_is_normalized():
    rows = unit_rows([[3.0, 4.0j], [0.0, -2.0]])
    assert rows.shape == (2, 2)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    assert np.allclose(rows[1], [0.0, -1.0], atol=1e-15)


def test_projective_point_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError, match="zero vector"):
        unit_rows([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        unit_rows([[1.0, np.inf]])
    with pytest.raises(ValueError, match="2 homogeneous"):
        unit_rows([[1.0], [2.0]])
    with pytest.raises(ValueError, match="non-empty"):
        unit_rows([1.0, 0.0])


def test_fubini_orthogonal_points():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert fubini_sin_distance(e1, e2) == pytest.approx(1.0, abs=1e-15)


def test_fubini_identical_points():
    p = unit_vector([1.0, 2.0j, -0.3])
    assert fubini_sin_distance(p, p) == pytest.approx(0.0, abs=1e-7)


def test_fubini_half_overlap():
    p = np.array([1.0, 0.0])
    q = unit_vector([1.0, 1.0])
    assert fubini_sin_distance(p, q) == pytest.approx(math.sqrt(0.5), abs=1e-12)


@given(projective_points(d=2), projective_points(d=2))
def test_fubini_symmetric_and_bounded(p, q):
    d1 = fubini_sin_distance(p, q)
    assert d1 == fubini_sin_distance(q, p)
    assert 0.0 <= d1 <= 1.0


@given(projective_points(d=2))
def test_fubini_phase_invariance(p):
    rng = np.random.default_rng(7)
    q = unit_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    base = fubini_sin_distance(p, q)
    for phase in (0.31, 2.1, -1.2):
        rotated = np.exp(1j * phase) * p
        assert abs(fubini_sin_distance(rotated, q) - base) <= 1e-12


def test_fubini_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = unit_vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        q = unit_vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        u = random_unitary(4, rng)
        base = fubini_sin_distance(p, q)
        moved = fubini_sin_distance(u @ p, u @ q)
        assert abs(moved - base) <= 1e-10


def test_chart_to_projective_origin():
    assert np.allclose(chart_to_projective(np.zeros(2)), [1.0, 0.0, 0.0], atol=1e-15)


def test_chart_to_projective_one():
    p = chart_to_projective(np.array([1.0]))
    assert np.allclose(p, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)


@given(complex_vectors(size=3))
def test_chart_round_trip(z):
    back = projective_to_chart(chart_to_projective(z))
    assert np.allclose(back, z, atol=1e-9, rtol=1e-9)


def test_projective_to_chart_basics():
    assert np.allclose(projective_to_chart(np.array([1.0, 0.0, 0.0])), 0.0)
    p = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(projective_to_chart(p), [1.0], atol=1e-15)


def test_chart_jacobian_origin():
    for d in (1, 2, 5):
        assert chart_jacobian(np.zeros(d)) == pytest.approx(1.0)


def test_chart_jacobian_unit_norm_d2():
    assert chart_jacobian(np.array([1.0, 0.0])) == pytest.approx(0.125, rel=1e-14)


@given(complex_vectors(size=2))
def test_chart_jacobian_inverse_identity(z):
    squared_norm = float(np.vdot(z, z).real)
    assert chart_jacobian(z) * (1.0 + squared_norm) ** 3 == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chart_jacobian_integrates_to_projective_volume(d):
    # Radial reduction: integral over C^d of the Jacobian equals pi^d/d!.
    surface = 2.0 * math.pi**d / math.gamma(d)
    val, err = integrate.quad(
        lambda t: t ** (2 * d - 1) * (1.0 + t * t) ** (-(d + 1)), 0.0, np.inf
    )
    total = surface * val
    assert total == pytest.approx(math.pi**d / math.factorial(d), rel=1e-9)
