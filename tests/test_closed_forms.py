import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from oracles import digamma, green_phi, quadrature_expected_projective_riesz
from pensemble import (
    beta,
    bound_constants,
    continuous_sphere_energy,
    expected_green_energy,
    expected_projective_log,
    expected_projective_riesz,
    expected_sphere_2energy_exact,
    log_gamma,
)
from pensemble.closed_forms import balance_coefficient

EULER_GAMMA = 0.5772156649015329


# ----------------------------------------------------------- special functions

def test_beta_basics():
    assert beta(1.0, 2.0) == pytest.approx(0.5, rel=1e-13)
    assert beta(0.5, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_digamma_values_and_recurrence():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, rel=1e-12)
    for x in (0.3, 1.7, 6.5):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-11)


def test_importing_the_package_loads_no_scipy():
    # Only the closed forms and the Euclidean energies use scipy, so a
    # process that samples or lifts never pays for importing it.
    code = (
        "import sys, pensemble; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_special_functions_reject_nonpositive():
    for fn in (log_gamma, digamma):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)
    with pytest.raises(ValueError):
        beta(-1.0, 2.0)


def test_log_gamma_matches_factorials():
    for n in (1, 2, 5, 10, 20):
        assert log_gamma(n + 1) == pytest.approx(math.log(math.factorial(n)), rel=1e-13)


def test_beta_derivative_digamma_identity():
    # d/dt B(t, m) = -B(t, m) sum_{j<m} 1/(t+j), checked by central differences.
    for t, m in [(1.0, 2), (1.7, 4), (2.5, 6)]:
        h = 1e-6
        numeric = (beta(t + h, m) - beta(t - h, m)) / (2.0 * h)
        analytic = -beta(t, m) * sum(1.0 / (t + j) for j in range(m))
        assert numeric == pytest.approx(analytic, rel=1e-5)
        assert beta(t, m) * (digamma(t) - digamma(t + m)) == pytest.approx(
            analytic, rel=1e-11
        )


# ----------------------------------------------------- continuous sphere energy

def test_continuous_sphere_energy_examples():
    assert continuous_sphere_energy(3, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert continuous_sphere_energy(5, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert continuous_sphere_energy(2, 1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_continuous_sphere_energy_odd_dim_s2_identity(d):
    assert continuous_sphere_energy(2 * d + 1, 2.0) == pytest.approx(
        d / (2.0 * d - 1.0), rel=1e-12
    )


def test_continuous_sphere_energy_domain():
    with pytest.raises(ValueError):
        continuous_sphere_energy(3, 3.0)
    with pytest.raises(ValueError):
        continuous_sphere_energy(3, 0.0)


# ------------------------------------------------------- projective Riesz form

def test_expected_projective_riesz_examples():
    assert expected_projective_riesz(2, 1, 2.0).exact == pytest.approx(9.0, rel=1e-13)
    assert expected_projective_riesz(1, 1, 1.0).exact == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_expected_projective_riesz_asymptotic_fields():
    ee = expected_projective_riesz(2, 1, 2.0)
    assert ee.leading_term == pytest.approx(18.0, rel=1e-13)
    assert ee.second_order_exponent == pytest.approx(1.5)
    assert ee.second_order_coefficient == pytest.approx(-2.0 / math.sqrt(2.0), rel=1e-12)


def test_expected_projective_riesz_domain():
    with pytest.raises(ValueError):
        expected_projective_riesz(2, 1, 4.0)
    with pytest.raises(ValueError):
        expected_projective_riesz(2, 1, 0.0)
    with pytest.raises(ValueError):
        expected_projective_riesz(2, 0, 1.0)


def test_expected_projective_riesz_second_order_convergence():
    gaps = []
    for L in (8, 16, 32, 64):
        ee = expected_projective_riesz(2, L, 2.0)
        r = math.comb(2 + L, 2)
        approx = ee.leading_term + ee.second_order_coefficient * r**ee.second_order_exponent
        gaps.append(abs(ee.exact - approx) / abs(ee.exact))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 2e-4


# --------------------------------------------------------- projective log form

def _log_expectation_by_derivative(d, L):
    # Stated oracle: s -> 0 derivative of the exact Riesz expectation.
    r = math.comb(d + L, d)

    def riesz_exact(s):
        return d / (d - s / 2.0) * r * r - r * r * d * beta(d - s / 2.0, L + 1)

    h = 1e-6
    return (riesz_exact(h) - riesz_exact(-h)) / (2.0 * h)


@pytest.mark.parametrize("d,L,frozen", [(1, 1, 0.5), (2, 1, 1.0), (2, 3, 223.0 / 12.0)])
def test_expected_projective_log_matches_derivative_oracle(d, L, frozen):
    oracle = _log_expectation_by_derivative(d, L)
    assert oracle == pytest.approx(frozen, rel=1e-6)
    assert expected_projective_log(d, L).exact == pytest.approx(frozen, rel=1e-9)


def test_expected_projective_log_matches_pair_intensity_quadrature():
    # Independent oracle: r^2 d int_0^1 (1-(1-u)^L)(-(1/2)log u) u^(d-1) du.
    for d, L in [(1, 2), (2, 1), (3, 4)]:
        r = math.comb(d + L, d)
        val, _ = integrate.quad(
            lambda u: -math.expm1(L * math.log1p(-u)) * (-0.5 * math.log(u)) * u ** (d - 1),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert expected_projective_log(d, L).exact == pytest.approx(r * r * d * val, rel=1e-10)


def test_expected_projective_log_second_order_trend():
    ratios = []
    for L in (8, 32, 128, 512):
        ee = expected_projective_log(1, L)
        r = 1 + L
        ratios.append(
            (ee.exact - ee.leading_term)
            / (ee.second_order_coefficient * r * math.log(r))
        )
    assert ee.second_order_log_factor is True
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) < 0.1


# ------------------------------------------------------------ sphere 2-energy

def test_expected_sphere_2energy_example():
    ee = expected_sphere_2energy_exact(1, 1, 2)
    assert ee.exact == pytest.approx(19.0 / 3.0, rel=1e-13)
    assert ee.fiber_term == pytest.approx(1.0, rel=1e-13)


def test_expected_sphere_2energy_k1_has_no_fiber_term():
    for d, L in [(1, 2), (2, 3)]:
        ee = expected_sphere_2energy_exact(d, L, 1)
        cross = expected_projective_riesz(d, L, 1.0).exact
        assert ee.fiber_term == 0.0
        assert ee.exact == pytest.approx(0.5 * cross, rel=1e-13)


@pytest.mark.parametrize("k", range(2, 65))
def test_fiber_trig_identity(k):
    # sin(pi m/k) == sin(pi (k-m)/k); the reduced argument keeps the
    # evaluation well conditioned for m near k.
    total = math.fsum(
        1.0 / (4.0 * math.sin(math.pi * min(m, k - m) / k) ** 2) for m in range(1, k)
    )
    assert abs(total - (k * k - 1.0) / 12.0) <= 1e-12


def test_expected_sphere_2energy_leading_matches_sphere_constant():
    for d, L, k in [(1, 2, 3), (2, 2, 2)]:
        ee = expected_sphere_2energy_exact(d, L, k)
        n = k * math.comb(d + L, d)
        assert ee.leading_term == pytest.approx(
            continuous_sphere_energy(2 * d + 1, 2.0) * n * n, rel=1e-12
        )


# ----------------------------------------------------------------- green form

def test_expected_green_energy_d2_L1():
    # Frozen from the independent pair-intensity quadrature of G (and MC).
    assert expected_green_energy(2, 1).exact == pytest.approx(-1.0 / math.pi**2, rel=1e-12)


def test_expected_green_energy_matches_quadrature_oracle():
    for d, L in [(2, 1), (2, 5), (3, 2)]:
        r = math.comb(d + L, d)
        val, _ = integrate.quad(
            lambda u: -math.expm1(L * math.log1p(-u))
            * float(green_phi(d, math.sqrt(u)))
            * u ** (d - 1),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )
        assert expected_green_energy(d, L).exact == pytest.approx(r * r * d * val, rel=1e-9)


def test_expected_green_energy_r2_cancellation():
    for d in (2, 3):
        ratios = [
            abs(expected_green_energy(d, L).exact) / math.comb(d + L, d) ** 2
            for L in (4, 8, 16, 32, 64)
        ]
        assert ratios == sorted(ratios, reverse=True)


def test_expected_green_energy_sign_and_asymptotics():
    for L in range(4, 20):
        assert expected_green_energy(2, L).exact < 0.0
    ee = expected_green_energy(2, 64)
    r = math.comb(66, 2)
    ratio = ee.exact / (ee.second_order_coefficient * r**ee.second_order_exponent)
    assert 0.9 < ratio < 1.1
    assert ee.second_order_exponent == pytest.approx(1.5)


def test_expected_green_energy_domain():
    with pytest.raises(ValueError):
        expected_green_energy(1, 1)


# ------------------------------------------------------------ bound constants

def test_bound_constants_d1():
    bc = bound_constants(1)
    assert bc.A_opt == pytest.approx(3.0 * math.sqrt(math.pi) / 2.0, rel=1e-12)
    assert bc.projective_bound == pytest.approx(
        3.0 ** (4.0 / 3.0) * math.pi ** (2.0 / 3.0) / 2.0 ** (10.0 / 3.0), rel=1e-10
    )
    assert bc.harmonic_bound == pytest.approx(
        2.0 ** (1.0 / 3.0) * 6.0 ** (2.0 / 3.0) / 5.0, rel=1e-10
    )


def test_projective_bound_is_minus_f_at_optimum():
    for d in (1, 2, 3, 10, 50):
        bc = bound_constants(d)
        assert bc.projective_bound == pytest.approx(-bc.f_at_A_opt, rel=1e-10)


def test_balance_coefficient_minimum_at_A_opt():
    for d in (1, 2, 4):
        bc = bound_constants(d)
        f0 = balance_coefficient(bc.A_opt, d)
        for eps in (-0.05, 0.05):
            assert balance_coefficient(bc.A_opt * (1.0 + eps), d) > f0


def test_bound_constants_limits():
    bc = bound_constants(400)
    assert abs(bc.projective_bound - 3.0 / (4.0 * math.e)) < 1e-2
    assert abs(bc.harmonic_bound - 2.0 / math.e**2) < 1e-2


def test_projective_bound_exceeds_harmonic_bound():
    for d in range(1, 101):
        bc = bound_constants(d)
        assert bc.projective_bound > bc.harmonic_bound


# ------------------------------------------------------------------ quadrature

def test_quadrature_oracle_examples():
    assert quadrature_expected_projective_riesz(2, 1, 2.0) == pytest.approx(9.0, abs=1e-8)
    assert quadrature_expected_projective_riesz(1, 1, 1.0) == pytest.approx(
        8.0 / 3.0, abs=1e-8
    )
    exact = expected_projective_riesz(3, 5, 4.0).exact
    assert quadrature_expected_projective_riesz(3, 5, 4.0) == pytest.approx(
        exact, rel=1e-8
    )


def test_quadrature_oracle_grid_equivalence():
    for d in (1, 2, 3):
        for L in (1, 2, 4, 8):
            for s in (d / 2.0, float(d), 1.5 * d):
                exact = expected_projective_riesz(d, L, s).exact
                quad_val = quadrature_expected_projective_riesz(d, L, s)
                assert abs(quad_val - exact) / abs(exact) <= 1e-8


def test_quadrature_oracle_domain():
    with pytest.raises(ValueError):
        quadrature_expected_projective_riesz(1, 1, 2.0)


# ---------------------------------------------- lifted-configuration balance

def test_balanced_lift_reproduces_balance_coefficient():
    # Plugging k = A r^(1/(2d)) into the exact lifted 2-energy and removing the
    # leading sphere term leaves the coefficient f(A) of n^(1+2/(2d+1)), up to
    # o(1) as L grows.
    d = 2
    A = bound_constants(d).A_opt
    target = balance_coefficient(A, d)
    gaps = []
    for L in (8, 16, 32, 64):
        r = math.comb(d + L, d)
        k = A * r ** (1.0 / (2.0 * d))
        cross = expected_projective_riesz(d, L, 1.0).exact
        exact = r * k * (k * k - 1.0) / 12.0 + 0.5 * k * k * cross
        n = k * r
        coeff = (exact - d / (2.0 * d - 1.0) * n * n) / n ** (1.0 + 2.0 / (2.0 * d + 1.0))
        gaps.append(abs(coeff - target))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


@pytest.mark.parametrize(
    "d, at_L_2_32_2048",
    [(1, (-0.9865, -0.9267, -0.9209)), (2, (-0.6752, -0.5651, -0.5531)), (3, (-0.6127, -0.4831, -0.4652))],
)
def test_balanced_lift_beats_harmonic_bound_at_every_finite_n(d, at_L_2_32_2048):
    # The headline claim at finite n, from closed forms only. With
    # k = round(A_opt r^(1/(2d))) and n = k r, the normalised second-order
    # term (E - V n^2) / n^(1 + 2/(2d+1)) of the exact expected lifted
    # 2-energy lies below -harmonic_bound already at L = 2 and rises
    # monotonically toward -projective_bound. At d = 3, L = 2048 (n ~ 1e11)
    # E ~ 1e22 while the term is ~1e14, so the subtraction cancels about 8
    # of the 16 digits; the checks below need fewer than 4.
    bc = bound_constants(d)
    sphere = continuous_sphere_energy(2 * d + 1, 2.0)
    terms = []
    for L in (2, 8, 32, 128, 512, 2048):
        r = math.comb(d + L, d)
        k = round(bc.A_opt * r ** (1.0 / (2.0 * d)))
        n = k * r
        energy = expected_sphere_2energy_exact(d, L, k).exact
        terms.append((energy - sphere * n * n) / n ** (1.0 + 2.0 / (2.0 * d + 1.0)))
    assert all(t < -bc.projective_bound < -bc.harmonic_bound for t in terms)
    assert terms == sorted(terms) and len(set(terms)) == len(terms)
    assert terms[-1] == pytest.approx(-bc.projective_bound, abs=1e-3)
    assert [terms[0], terms[2], terms[5]] == pytest.approx(at_L_2_32_2048, abs=5e-5)


def test_continuous_projective_energy_note():
    # d/(d - s/2) is the continuous sin-distance s-energy of the uniform
    # measure: quadrature of d * u^(d - s/2 - 1) over (0, 1).
    for d, s in [(2, 1.0), (2, 2.0), (3, 2.0)]:
        val, _ = integrate.quad(
            lambda u: d * u ** (d - s / 2.0 - 1.0), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12
        )
        assert val == pytest.approx(d / (d - s / 2.0), abs=1e-8)
