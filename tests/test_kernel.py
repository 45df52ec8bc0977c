import math

import numpy as np
import pytest
from hypothesis import given
from scipy import integrate

from helpers import complex_vectors, random_unitary, unit_vector
from oracles import (
    basis_coefficient,
    chart_jacobian,
    chart_kernel_magnitude_pushed,
    chart_to_projective,
    enumerate_multi_indices,
    feature_vector,
    joint_intensity_2,
    kernel_eval,
    projective_kernel_magnitude,
)
from pensemble import KernelParams


# ---------------------------------------------------------------- enumeration

def test_enumerate_d2_L1():
    assert enumerate_multi_indices(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_d2_L3_count():
    idx = enumerate_multi_indices(2, 3)
    assert len(idx) == 10
    assert len(set(idx)) == 10


def test_enumerate_d1_L0():
    assert enumerate_multi_indices(1, 0) == [(0,)]


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_enumerate_count_and_grading(d, L):
    idx = enumerate_multi_indices(d, L)
    assert len(idx) == math.comb(d + L, d)
    degrees = [sum(a) for a in idx]
    assert degrees == sorted(degrees)
    assert all(deg <= L for deg in degrees)


# --------------------------------------------------------------- coefficients

def test_basis_coefficient_d2_L1_zero_index():
    params = KernelParams(2, 1)
    assert basis_coefficient((0, 0), params) == pytest.approx(6.0 / math.pi**2, rel=1e-13)


def test_basis_coefficient_d1_L0():
    assert basis_coefficient((0,), KernelParams(1, 0)) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_basis_coefficient_permutation_symmetric():
    params = KernelParams(3, 6)
    a = basis_coefficient((3, 2, 1), params)
    for perm in [(3, 1, 2), (1, 2, 3), (2, 3, 1)]:
        assert basis_coefficient(perm, params) == pytest.approx(a, rel=1e-13)


def test_basis_coefficient_rejects_overflowing_degree():
    with pytest.raises(ValueError):
        basis_coefficient((2, 0), KernelParams(2, 1))


def test_kernel_params_r_matches_binomial():
    for d, L in [(1, 0), (2, 1), (3, 7), (5, 4)]:
        assert KernelParams(d, L).r == math.comb(d + L, d)


# ------------------------------------------------------------ feature vectors

def test_feature_vector_at_origin_d2_L1():
    params = KernelParams(2, 1)
    v = feature_vector(np.zeros(2), params)
    assert v[0] == pytest.approx(math.sqrt(6.0 / math.pi**2), rel=1e-13)
    assert np.allclose(v[1:], 0.0)


def test_feature_vector_origin_only_constant_component():
    params = KernelParams(3, 4)
    v = feature_vector(np.zeros(3), params)
    assert abs(v[0]) > 0
    assert np.allclose(v[1:], 0.0)


@given(complex_vectors(size=2))
def test_feature_vector_components_match_naive_formula(z):
    # Brute-force oracle for the incremental monomial scheme.
    params = KernelParams(2, 3)
    v = feature_vector(z, params)
    denom = (1.0 + float(np.vdot(z, z).real)) ** ((2 + 3 + 1) / 2.0)
    for i, alpha in enumerate(enumerate_multi_indices(2, 3)):
        naive = (
            math.sqrt(basis_coefficient(alpha, params))
            * z[0] ** alpha[0]
            * z[1] ** alpha[1]
            / denom
        )
        assert v[i] == pytest.approx(naive, rel=1e-10, abs=1e-12)


@given(complex_vectors(size=2))
def test_feature_norm_reproduces_kernel_diagonal(z):
    params = KernelParams(2, 3)
    v = feature_vector(z, params)
    k = kernel_eval(z, z, params).real
    assert float(np.vdot(v, v).real) == pytest.approx(k, rel=1e-10)


@given(complex_vectors(size=2), complex_vectors(size=2))
def test_gram_identity(z, w):
    params = KernelParams(2, 4)
    lhs = np.sum(feature_vector(z, params) * np.conj(feature_vector(w, params)))
    rhs = kernel_eval(z, w, params)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_large_L_feature_vector_is_finite_and_reproduces_kernel_diagonal():
    params = KernelParams(1, 250)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    v = feature_vector(z, params)
    assert np.all(np.isfinite(v))
    k = kernel_eval(z, z, params).real
    assert float(np.vdot(v, v).real) == pytest.approx(k, rel=1e-10)


# ----------------------------------------------------------------- the kernel

def test_kernel_at_origin_d2_L1():
    params = KernelParams(2, 1)
    z0 = np.zeros(2)
    assert kernel_eval(z0, z0, params).real == pytest.approx(6.0 / math.pi**2, rel=1e-13)


@given(complex_vectors(size=2), complex_vectors(size=2))
def test_kernel_hermitian(z, w):
    params = KernelParams(2, 2)
    a = kernel_eval(z, w, params)
    b = kernel_eval(w, z, params)
    assert a == pytest.approx(np.conj(b), rel=1e-12, abs=1e-12)
    assert kernel_eval(z, z, params).imag == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("d,L", [(1, 3), (2, 1)])
def test_kernel_trace_normalization(d, L):
    # Radial quadrature of K(z,z) over C^d equals the subspace dimension r.
    params = KernelParams(d, L)
    surface = 2.0 * math.pi**d / math.gamma(d)
    val, _ = integrate.quad(
        lambda t: t ** (2 * d - 1) * (1.0 + t * t) ** (-(d + 1)), 0.0, np.inf
    )
    trace = params.intensity * surface * val
    assert trace == pytest.approx(params.r, rel=1e-9)


def test_L0_kernel_diagonal_equals_scaled_jacobian():
    params = KernelParams(2, 0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        expected = chart_jacobian(z) * math.factorial(2) / math.pi**2
        assert kernel_eval(z, z, params).real == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------- projective kernel form

def _unit_points_with_overlap(c, dim=3):
    # |<p,q>| = c by construction
    p = np.zeros(dim, dtype=complex)
    p[0] = 1.0
    q = np.zeros(dim, dtype=complex)
    q[0] = c
    q[1] = math.sqrt(1.0 - c * c)
    return p, q


def test_projective_kernel_orthogonal_points():
    params = KernelParams(2, 1)
    p, q = _unit_points_with_overlap(0.0)
    assert projective_kernel_magnitude(p, q, params) == 0.0


def test_projective_kernel_diagonal_is_r_over_volume():
    params = KernelParams(2, 1)
    p, _ = _unit_points_with_overlap(0.3)
    expected = params.r / (math.pi**2 / math.factorial(2))
    assert projective_kernel_magnitude(p, p, params) == pytest.approx(expected, rel=1e-12)


def test_projective_kernel_half_overlap():
    params = KernelParams(2, 1)
    p, q = _unit_points_with_overlap(0.5)
    assert projective_kernel_magnitude(p, q, params) == pytest.approx(
        3.0 / math.pi**2, rel=1e-12
    )


def test_projective_kernel_phase_and_unitary_invariance():
    params = KernelParams(2, 3)
    rng = np.random.default_rng(13)
    p = unit_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    q = unit_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    base = projective_kernel_magnitude(p, q, params)
    rotated = projective_kernel_magnitude(np.exp(0.9j) * p, q, params)
    assert rotated == pytest.approx(base, rel=1e-12)
    u = random_unitary(3, rng)
    moved = projective_kernel_magnitude(u @ p, u @ q, params)
    assert moved == pytest.approx(base, rel=1e-10)


def test_joint_intensity_basics():
    params = KernelParams(2, 1)
    p, q = _unit_points_with_overlap(0.0)
    assert joint_intensity_2(p, p, params) == pytest.approx(0.0, abs=1e-12)
    assert joint_intensity_2(p, q, params) == pytest.approx(params.intensity**2, rel=1e-12)


@given(complex_vectors(size=3), complex_vectors(size=3))
def test_joint_intensity_bounded_by_squared_intensity(a, b):
    from hypothesis import assume

    assume(np.linalg.norm(a) > 1e-3 and np.linalg.norm(b) > 1e-3)
    params = KernelParams(2, 2)
    rho = joint_intensity_2(unit_vector(a), unit_vector(b), params)
    assert 0.0 <= rho <= params.intensity**2 * (1 + 1e-12)


def test_pushforward_consistency():
    # |K(z,w)| / sqrt(Jac(z) Jac(w)) equals the projective magnitude at the images.
    params = KernelParams(2, 3)
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pushed = chart_kernel_magnitude_pushed(z, w, params)
        direct = projective_kernel_magnitude(
            chart_to_projective(z), chart_to_projective(w), params
        )
        assert pushed == pytest.approx(direct, rel=1e-9)


# ------------------------------------------------- numerical orthonormality

def test_orthonormality_d1_L3():
    # Gram matrix by phase-grid x radial quadrature; should be the identity.
    d, L = 1, 3
    params = KernelParams(d, L)
    idx = enumerate_multi_indices(d, L)
    n_theta = 16
    gram = np.zeros((params.r, params.r), dtype=complex)
    for i, (a,) in enumerate(idx):
        for j, (b,) in enumerate(idx):
            theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
            angular = np.mean(np.exp(1j * (a - b) * theta)) * 2.0 * math.pi
            radial, _ = integrate.quad(
                lambda t: t ** (a + b + 1) * (1.0 + t * t) ** (-(d + L + 1)), 0, np.inf
            )
            coeff = math.sqrt(
                basis_coefficient((a,), params) * basis_coefficient((b,), params)
            )
            gram[i, j] = coeff * angular * radial
    assert np.allclose(gram, np.eye(params.r), atol=1e-8)


def test_orthonormality_d2_L1():
    # Angular integrals vanish unless alpha == beta; diagonal via nested quadrature.
    d, L = 2, 1
    params = KernelParams(d, L)
    idx = enumerate_multi_indices(d, L)

    def diagonal_entry(alpha):
        def inner(t1):
            val, _ = integrate.quad(
                lambda t2: t1 ** (2 * alpha[0] + 1)
                * t2 ** (2 * alpha[1] + 1)
                * (1.0 + t1 * t1 + t2 * t2) ** (-(d + L + 1)),
                0,
                np.inf,
                epsabs=1e-12,
                epsrel=1e-12,
            )
            return val

        outer, _ = integrate.quad(inner, 0, np.inf, limit=200, epsabs=1e-10, epsrel=1e-10)
        return basis_coefficient(alpha, params) * (2.0 * math.pi) ** 2 * outer

    for alpha in idx:
        assert diagonal_entry(alpha) == pytest.approx(1.0, rel=1e-6)
