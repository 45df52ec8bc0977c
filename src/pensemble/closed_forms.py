"""Exact expected energies, asymptotic coefficients, and bound constants.

Expected pair energies of the determinantal projective process have closed
forms in Euler's Beta function; this module evaluates them (in log space, so
large d and L stay inside double range) together with the matching
asymptotic coefficients and the optimal-constant comparison values for the
sphere 2-energy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .energy import _check_projective_s, _fiber_2energy, _green_combination
from .lift import _check_k
from .sampler import KernelParams, _check_d

__all__ = [
    "ExpectedEnergy",
    "BoundConstants",
    "log_gamma",
    "beta",
    "continuous_sphere_energy",
    "expected_projective_riesz",
    "expected_projective_log",
    "expected_sphere_2energy_exact",
    "expected_green_energy",
    "bound_constants",
]


# --------------------------------------------------------------------------
# Special functions (log-space evaluation throughout).

def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    # Imported here: scipy.special adds about 25 MB and 0.2 s to every
    # process that imports pensemble, and only the closed forms use it.
    from scipy.special import gammaln

    if not x > 0:
        raise ValueError("log_gamma requires a positive argument")
    return float(gammaln(x))


def beta(a: float, b: float) -> float:
    """Euler Beta B(a, b) = exp(lgamma(a) + lgamma(b) - lgamma(a+b)), a, b > 0."""
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


# --------------------------------------------------------------------------
# Result containers.

@dataclass(frozen=True)
class ExpectedEnergy:
    """Exact expected energy plus the leading asymptotic pieces.

    The second-order term is second_order_coefficient * r^second_order_exponent,
    times log(r) when ``second_order_log_factor`` is set. ``fiber_term`` holds
    the exact within-fiber contribution for lifted sphere configurations and
    is None otherwise.
    """

    exact: float
    leading_term: float
    second_order_coefficient: float
    second_order_exponent: float
    second_order_log_factor: bool = False
    fiber_term: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundConstants:
    """Second-order constants for the sphere 2-energy at dimension 2d+1.

    ``projective_bound`` is the value achieved by optimally balanced lifted
    configurations (equal to -f_at_A_opt); ``harmonic_bound`` is the
    competing spherical-harmonics value it is measured against.
    """

    d: int
    A_opt: float
    f_at_A_opt: float
    projective_bound: float
    harmonic_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# Domain of the expected energies.

def _checked_r(d: int, L: int) -> float:
    """r = KernelParams(d, L).r, on the closed forms' domain d >= 1, L >= 1.

    At L = 0 (one point, no pairs) the Beta-function forms would return
    rounding noise, some of it negative, instead of 0, so L = 0 is refused.
    """
    if not isinstance(L, int) or L < 1:
        raise ValueError("L must be an integer >= 1")
    return float(KernelParams(d, L).r)


# --------------------------------------------------------------------------
# Closed forms.

def continuous_sphere_energy(dim: int, s: float) -> float:
    """Continuous s-energy of the uniform measure on S^dim, 0 < s < dim:

    2^(dim-s-1) Gamma((dim+1)/2) Gamma((dim-s)/2) / (sqrt(pi) Gamma(dim-s/2)).
    """
    _check_d(dim)
    if not 0.0 < s < dim:
        raise ValueError(f"s must lie in (0, dim) = (0, {dim}); got {s}")
    return math.exp(
        (dim - s - 1.0) * math.log(2.0)
        + log_gamma((dim + 1) / 2.0)
        + log_gamma((dim - s) / 2.0)
        - 0.5 * math.log(math.pi)
        - log_gamma(dim - s / 2.0)
    )


def _riesz_second_order(d: int, s: float) -> float:
    """d Gamma(d - s/2) / (d!)^(1 - s/(2d)), minus the r^(1 + s/(2d)) coefficient
    of the projective Riesz expectation. Half its s = 1 value is the k^2 factor
    of the lifted sphere 2-energy's second-order term."""
    return math.exp(
        math.log(d) + log_gamma(d - s / 2.0) - (1.0 - s / (2.0 * d)) * log_gamma(d + 1)
    )


def expected_projective_riesz(d: int, L: int, s: float) -> ExpectedEnergy:
    """Expected sin-distance Riesz s-energy of the r-point projective process:

    exact   = d/(d - s/2) r^2 - r^2 d B(d - s/2, L+1),  0 < s < 2d,
    leading = d/(d - s/2) r^2,
    second order = -d Gamma(d - s/2) / (d!)^(1 - s/(2d)) * r^(1 + s/(2d)).
    """
    r = _checked_r(d, L)
    _check_projective_s(s, d)
    leading = d / (d - s / 2.0) * r * r
    exact = leading - r * r * d * beta(d - s / 2.0, L + 1)
    return ExpectedEnergy(
        exact=exact,
        leading_term=leading,
        second_order_coefficient=-_riesz_second_order(d, s),
        second_order_exponent=1.0 + s / (2.0 * d),
    )


def expected_projective_log(d: int, L: int) -> ExpectedEnergy:
    """Expected sin-distance logarithmic energy of the projective process:

    exact = r^2/(2d) - (r^2 d / 2) B(d, L+1) sum_{j=0}^{L} 1/(d+j),
    with second-order term -r log(r) / (2d).

    This is the s -> 0 derivative of the Riesz expectation; the derivative of
    the Beta factor through d/dt B(t,m) = -B(t,m) sum 1/(t+j) makes the
    correction negative (repulsion pushes the energy below the r^2/(2d)
    uniform baseline), which quadrature of the pair intensity confirms.
    """
    r = _checked_r(d, L)
    harmonic_span = math.fsum(1.0 / (d + j) for j in range(L + 1))
    leading = r * r / (2.0 * d)
    exact = leading - 0.5 * r * r * d * beta(d, L + 1) * harmonic_span
    return ExpectedEnergy(
        exact=exact,
        leading_term=leading,
        second_order_coefficient=-1.0 / (2.0 * d),
        second_order_exponent=1.0,
        second_order_log_factor=True,
    )


def expected_sphere_2energy_exact(d: int, L: int, k: int) -> ExpectedEnergy:
    """Expected Euclidean 2-energy of the lifted configuration on S^(2d+1).

    Splits exactly into the within-fiber part r k(k^2-1)/12, which every
    lifted configuration holds (see ``energy._fiber_2energy``), plus (k^2/2)
    times the expected projective sin-distance 1-energy.
    """
    r = _checked_r(d, L)
    _check_k(k)
    fiber = r * _fiber_2energy(k)
    cross = expected_projective_riesz(d, L, 1.0)
    exact = fiber + 0.5 * k * k * cross.exact
    leading = d / (2.0 * d - 1.0) * (k * r) ** 2
    return ExpectedEnergy(
        exact=exact,
        leading_term=leading,
        second_order_coefficient=0.5 * cross.second_order_coefficient,  # times k^2 r^(1 + 1/(2d))
        second_order_exponent=1.0 + 1.0 / (2.0 * d),
        fiber_term=fiber,
    )


def expected_green_energy(d: int, L: int) -> ExpectedEnergy:
    """Expected Green energy of the projective process, d >= 2.

    Composes the Riesz expectations at s = 2, 4, ..., 2d-2 and the logarithmic
    expectation by the same combination that builds the Green function and
    energy in :mod:`pensemble.energy`; the r^2 terms cancel exactly, leaving
    second-order decay -(d!)^(1-1/d) / (4 pi^d (d-1)) * r^(2 - 1/d).
    """
    r = _checked_r(d, L)
    exact = _green_combination(
        d,
        expected_projective_log(d, L).exact,
        lambda s: expected_projective_riesz(d, L, s).exact,
        r * (r - 1.0),
    )
    coeff = -math.exp(
        (1.0 - 1.0 / d) * log_gamma(d + 1) - d * math.log(math.pi) - math.log(4.0 * (d - 1))
    )
    return ExpectedEnergy(
        exact=exact,
        leading_term=0.0,  # the r^2 coefficient cancels exactly
        second_order_coefficient=coeff,
        second_order_exponent=2.0 - 1.0 / d,
    )


def balance_coefficient(A: float, d: int) -> float:
    """Coefficient of n^(1 + 2/(2d+1)) when fibers scale as k = A r^(1/(2d)):

    f(A) = A^(2 - 2/(2d+1)) / 12 - c_d A^(1 - 2/(2d+1)),
    with c_d the cross-term coefficient of the lifted 2-energy.
    """
    _check_d(d)
    if not A > 0:
        raise ValueError("A must be positive")
    e = 2.0 / (2.0 * d + 1.0)
    c_d = 0.5 * _riesz_second_order(d, 1.0)
    return A ** (2.0 - e) / 12.0 - c_d * A ** (1.0 - e)


def bound_constants(d: int) -> BoundConstants:
    """Optimal fiber balance A_opt, its coefficient value, and both
    second-order constants for the sphere 2-energy at dimension 2d+1."""
    _check_d(d)
    a_opt = math.exp(
        math.log(3.0) + log_gamma(d - 0.5) + math.log(2.0 * d - 1.0)
        - math.log(2.0) - (1.0 - 1.0 / (2.0 * d)) * log_gamma(d + 1)
    )
    f_opt = balance_coefficient(a_opt, d)
    e = 2.0 / (2.0 * d + 1.0)
    projective = math.exp(
        (1.0 - e) * math.log(3.0)
        + (1.0 - e) * math.log(2.0 * d - 1.0)
        + math.log(2.0 * d + 1.0)
        + (2.0 - e) * log_gamma(d - 0.5)
        - (4.0 - e) * math.log(2.0)
        - (2.0 - 2.0 * e) * log_gamma(d + 1)
    )
    harmonic = math.exp(
        (1.0 - e) * math.log(2.0)
        + e * log_gamma(2.0 * d + 2.0)
        - math.log(2.0 * d - 1.0)
        - math.log(2.0 * d + 3.0)
    )
    return BoundConstants(
        d=d,
        A_opt=a_opt,
        f_at_A_opt=f_opt,
        projective_bound=projective,
        harmonic_bound=harmonic,
    )
