"""Reference implementations the tests compare the package against.

Points of CP^d are (d+1,) complex rows, chart points (d,) complex rows. The
weighted-monomial basis on C^d, for a degree bound L, is indexed by
multi-indices alpha with |alpha| <= L:

    phi_alpha(z) = sqrt(C_alpha) * z^alpha / (1 + |z|^2)^((d+L+1)/2),
    C_alpha      = (d+L)! / (pi^d * alpha_1! ... alpha_d! * (L - |alpha|)!),

an orthonormal family of r = C(d+L, d) functions in L^2(C^d). The kernel they
reproduce has the closed form

    K(z, w) = (r d! / pi^d) (1 + <z,w>)^L
              / ((1+|z|^2)(1+|w|^2))^((d+L+1)/2),

and its pushforward to CP^d through the affine chart z -> (1, z) has
magnitude (r d!/pi^d) |<p,q>|^L for unit representatives. The feature
vectors v(z) of the basis are the oracle for the kernel identity
<v(z), v(w)> = K(z, w).

The expected projective Riesz energy also has an oracle independent of its
Beta-function closed form: adaptive quadrature of the pair intensity.
"""

import math

import numpy as np
from scipy import integrate, special

from pensemble.closed_forms import _checked_r
from pensemble.energy import _check_projective_s, _green_combination


def _compositions(total, slots):
    # First coordinate descending, recursively; yields C(total+slots-1, slots-1) tuples.
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def enumerate_multi_indices(d, L):
    """All exponent tuples with |alpha| <= L; degree blocks ascend, and within
    a degree the first coordinate descends."""
    return [alpha for degree in range(L + 1) for alpha in _compositions(degree, d)]


def _log_coefficient(alpha, params):
    """log C_alpha through log-gamma, so large d and L stay in range."""
    return (
        math.lgamma(params.d + params.L + 1)
        - sum(math.lgamma(a + 1) for a in alpha)
        - math.lgamma(params.L - sum(alpha) + 1)
        - params.d * math.log(math.pi)
    )


def basis_coefficient(alpha, params):
    """Coefficient C_alpha; alpha must have d non-negative entries summing to <= L."""
    if len(alpha) != params.d or min(alpha) < 0 or sum(alpha) > params.L:
        raise ValueError(f"{alpha} is not a multi-index of degree <= {params.L} in d={params.d}")
    return math.exp(_log_coefficient(alpha, params))


def _log1p_norm2(z):
    return math.log1p(float(np.vdot(z, z).real))


def feature_vector(z, params):
    """Values of all r basis functions at the chart point z, ordered like
    enumerate_multi_indices.

    Evaluated on zhat = z/sqrt(1+|z|^2) as
    sqrt(C_alpha) zhat^alpha (1+|z|^2)^((|alpha| - d - L - 1)/2), where every
    factor but the coefficient is bounded by 1.
    """
    alphas = enumerate_multi_indices(params.d, params.L)
    log1p = _log1p_norm2(z)
    zhat = np.asarray(z) * math.exp(-0.5 * log1p)
    log_scale = np.array([
        0.5 * _log_coefficient(a, params) + 0.5 * (sum(a) - params.d - params.L - 1) * log1p
        for a in alphas
    ])
    return np.exp(log_scale) * np.prod(zhat ** np.array(alphas), axis=1)


def kernel_eval(z, w, params):
    """Reproducing kernel K(z, w) on C^d; Hermitian, with K(z, z) real positive."""
    log_sz, log_sw = _log1p_norm2(z), _log1p_norm2(w)
    # |1 + <z,w>|^2 <= (1+|z|^2)(1+|w|^2), so the rescaled base stays in the unit disk.
    base = (1.0 + np.vdot(w, z)) * math.exp(-0.5 * (log_sz + log_sw))
    tail = math.exp(-0.5 * (params.d + 1) * (log_sz + log_sw))
    return complex(params.intensity * base**params.L * tail)


def chart_to_projective(z):
    """The unit representative (1, z)/sqrt(1+|z|^2) of the class of (1, z)."""
    p = np.concatenate(([1.0 + 0.0j], z))
    return p / np.linalg.norm(p)


def projective_to_chart(p):
    """Inverse chart map (p_2/p_1, ..., p_{d+1}/p_1)."""
    return p[1:] / p[0]


def chart_jacobian(z):
    """Jacobian of the chart map at z in C^d: (1/(1+|z|^2))^(d+1)."""
    return math.exp(-(len(z) + 1) * _log1p_norm2(z))


def _overlap(p, q):
    """|<p,q>| of unit rows, clipped to 1; exactly symmetric in p and q."""
    return min(abs(np.vdot(q, p)), 1.0)


def fubini_sin_distance(p, q):
    """sin of the Fubini-Study distance between unit rows: sqrt(1 - |<p,q>|^2)."""
    c = _overlap(p, q)
    return math.sqrt(max(0.0, (1.0 - c) * (1.0 + c)))


def projective_kernel_magnitude(p, q, params):
    """|K(p, q)| on CP^d: (r d!/pi^d) |<p,q>|^L for unit rows."""
    return params.intensity * _overlap(p, q) ** params.L


def joint_intensity_2(p, q, params):
    """Two-point intensity K(p,p)K(q,q) - |K(p,q)|^2; zero at coincidence."""
    return max(params.intensity**2 - projective_kernel_magnitude(p, q, params) ** 2, 0.0)


def chart_kernel_magnitude_pushed(z, w, params):
    """|K(z,w)| divided by sqrt of both chart Jacobians (pushforward magnitude)."""
    return abs(kernel_eval(z, w, params)) / math.sqrt(chart_jacobian(z) * chart_jacobian(w))


def green_phi(d, sin_r):
    """Green radial profile of CP^d as a function of sin(d_FS), vectorized;
    the same combination that builds the package's Green energy."""
    sin_r = np.asarray(sin_r, dtype=np.float64)
    return _green_combination(d, -np.log(sin_r), lambda s: sin_r ** (-s), 1)


def green_function(d, p, q):
    """Zero-mean Green function of CP^d at the unit rows p and q."""
    return float(green_phi(d, fubini_sin_distance(p, q)))


def digamma(x):
    """Digamma psi_0(x) for x > 0."""
    if not x > 0:
        raise ValueError("digamma requires a positive argument")
    return float(special.psi(x))


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


_QUAD_TOL = 1e-10


def quadrature_expected_projective_riesz(d, L, s):
    """Expected projective Riesz s-energy by adaptive quadrature (oracle path).

    Reduces the two-point integral to one radial integral and substitutes
    u = t^2/(1+t^2), giving

        r^2 d * int_0^1 (1 - (1-u)^L) u^(d - s/2 - 1) du

    on (0, 1). The integrand is evaluated as -expm1(L log1p(-u)) * u^c so the
    u -> 0 cancellation costs no precision; the adaptive scheme splits the
    endpoint region on its own when s/2 approaches d.
    """
    r = _checked_r(d, L)
    _check_projective_s(s, d)
    c = d - s / 2.0 - 1.0

    def integrand(u):
        if u <= 0.0:
            return 0.0
        return -math.expm1(L * math.log1p(-u)) * u**c

    result = integrate.quad(
        integrand, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
        full_output=True,
    )
    value, abserr = result[0], result[1]
    achieved = abserr / max(abs(value), 1.0)
    if len(result) > 3 or achieved > 1e-9:  # a 4th element is a QUADPACK warning
        raise QuadratureError(
            f"quadrature did not converge: achieved relative tolerance {achieved:.3e}"
        )
    return r * r * d * value
