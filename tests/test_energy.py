import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial.distance import cdist

from helpers import projective_points, random_unitary, unit_vector
from oracles import fubini_sin_distance, green_function, green_phi
from pensemble import (
    KernelParams,
    PointSetFile,
    SamplerConfig,
    SphereConfiguration,
    green_energy,
    lift_to_sphere,
    log_energy,
    projective_log_energy,
    projective_riesz_energy,
    realify,
    riesz_energy,
    sample_projective_ensemble,
)
from pensemble.cli import main as cli_main
from pensemble.energy import (
    _BLOCK_ROWS,
    _unit_pair_sums,
    green_constant,
    projective_pair_sums,
)
from pensemble.geometry import unit_rows
from pensemble.pointset import pointset_to_json


def _roots_of_unity(k):
    angles = 2.0 * math.pi * np.arange(k) / k
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


# ------------------------------------------------------------------ euclidean

def test_riesz_single_point_is_zero():
    assert riesz_energy(np.array([[1.0, 0.0]]), 2.0) == 0.0


def test_riesz_antipodal_pair():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert riesz_energy(pts, 2.0) == pytest.approx(0.5, rel=1e-14)


def test_riesz_third_roots_of_unity():
    # Oracle: enumerate the three pairwise distances sqrt(3) directly.
    pts = _roots_of_unity(3)
    by_hand = sum(
        2.0 / np.linalg.norm(pts[i] - pts[j]) ** 2 for i in range(3) for j in range(i + 1, 3)
    )
    assert by_hand == pytest.approx(2.0, rel=1e-13)
    assert riesz_energy(pts, 2.0) == pytest.approx(2.0, rel=1e-13)


def test_riesz_coincident_points_flag_infinite():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    assert math.isinf(riesz_energy(pts, 1.0))


def test_riesz_requires_positive_s():
    with pytest.raises(ValueError):
        riesz_energy(np.array([[0.0], [1.0]]), 0.0)


@given(st.integers(2, 12), st.sampled_from([0.5, 1.0, 2.0]))
def test_riesz_homothety_covariance(n, s):
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((n, 3))
    base = riesz_energy(pts, s)
    scaled = riesz_energy(2.0 * pts, s)
    assert scaled == pytest.approx(2.0 ** (-s) * base, rel=1e-12)


def test_log_energy_distance_one_and_e():
    assert log_energy(np.array([[0.0], [1.0]])) == pytest.approx(0.0, abs=1e-15)
    assert log_energy(np.array([[0.0], [math.e]])) == pytest.approx(-2.0, rel=1e-14)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_log_energy_roots_of_unity(k):
    # Classical identity: product of distances from one root to the rest is k.
    assert log_energy(_roots_of_unity(k)) == pytest.approx(-k * math.log(k), rel=1e-12)


def test_riesz_and_log_match_brute_force_double_loop():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((9, 3))
    brute_riesz = sum(
        1.0 / np.linalg.norm(pts[i] - pts[j]) ** 1.7
        for i in range(9)
        for j in range(9)
        if i != j
    )
    brute_log = sum(
        -math.log(np.linalg.norm(pts[i] - pts[j]))
        for i in range(9)
        for j in range(9)
        if i != j
    )
    assert riesz_energy(pts, 1.7) == pytest.approx(brute_riesz, rel=1e-12)
    assert log_energy(pts) == pytest.approx(brute_log, rel=1e-12)


def test_energies_permutation_invariant():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((7, 3))
    perm = rng.permutation(7)
    assert riesz_energy(pts, 1.5) == pytest.approx(riesz_energy(pts[perm], 1.5), rel=1e-12)
    assert log_energy(pts) == pytest.approx(log_energy(pts[perm]), rel=1e-12)


# ----------------------------------------------------------------- projective

def _orthogonal_pair(d=2):
    p = np.zeros(d + 1, dtype=complex)
    p[0] = 1.0
    q = np.zeros(d + 1, dtype=complex)
    q[1] = 1.0
    return p, q


def test_projective_riesz_orthogonal_pair():
    p, q = _orthogonal_pair()
    for s in (0.5, 1.0, 3.0):
        assert projective_riesz_energy(np.stack([p, q]), s) == pytest.approx(2.0, rel=1e-14)


def test_projective_riesz_half_squared_overlap():
    pts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])  # |<p,q>|^2 = 1/2
    assert projective_riesz_energy(pts, 2.0) == pytest.approx(4.0, rel=1e-13)


def test_projective_riesz_single_point_and_range():
    p, q = _orthogonal_pair(d=1)
    assert projective_riesz_energy(np.stack([p]), 1.0) == 0.0
    with pytest.raises(ValueError):
        projective_riesz_energy(np.stack([p, q]), 2.0)  # s must be < 2d = 2
    with pytest.raises(ValueError):
        projective_riesz_energy(np.stack([p, q]), 0.0)


def test_projective_riesz_coincident_flag():
    p = np.array([1.0, 1.0j])
    assert math.isinf(projective_riesz_energy(np.stack([p, np.exp(0.4j) * p]), 1.0))


def test_projective_log_examples():
    p, q = _orthogonal_pair()
    assert projective_log_energy(np.stack([p, q])) == pytest.approx(0.0, abs=1e-14)
    # a pair with sin distance exactly 1/2, i.e. |<a,b>|^2 = 3/4
    a = np.array([1.0, 0.0])
    b = unit_vector([math.sqrt(3.0), 1.0])
    assert fubini_sin_distance(a, b) == pytest.approx(0.5, rel=1e-12)
    assert projective_log_energy(np.stack([a, b])) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert projective_log_energy(np.stack([p])) == 0.0


@given(projective_points(d=2), projective_points(d=2), projective_points(d=2))
def test_projective_energies_phase_and_unitary_invariant(p, q, w):
    from hypothesis import assume

    pts = [p, q, w]
    sins = [fubini_sin_distance(a, b) for a in pts for b in pts if a is not b]
    assume(min(sins) > 1e-3)
    mat = np.stack(pts)
    base = projective_riesz_energy(mat, 1.5)
    rotated = np.exp(1j * np.arange(3))[:, None] * mat
    assert projective_riesz_energy(rotated, 1.5) == pytest.approx(base, rel=1e-10)
    u = random_unitary(3, np.random.default_rng(0))
    moved = mat @ u.T
    assert projective_riesz_energy(moved, 1.5) == pytest.approx(base, rel=1e-9)
    assert projective_log_energy(moved) == pytest.approx(
        projective_log_energy(mat), rel=1e-9, abs=1e-9
    )


# ---------------------------------------------------------------------- green

def test_green_constant_d2():
    assert green_constant(2) == pytest.approx(-5.0 / (8.0 * math.pi**2), rel=1e-14)


def test_green_function_orthogonal_d2():
    p, q = _orthogonal_pair()
    assert green_function(2, p, q) == pytest.approx(-3.0 / (8.0 * math.pi**2), rel=1e-13)


def test_green_function_symmetric_and_guards():
    rng = np.random.default_rng(2)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert green_energy(np.stack([p, q]), 2) == green_energy(np.stack([q, p]), 2)
    assert math.isinf(green_energy(np.stack([p, np.exp(0.3j) * p]), 2))
    with pytest.raises(ValueError):
        green_energy(np.stack([p, q])[:, :2], 1)


def test_green_energy_two_orthogonal_points():
    p, q = _orthogonal_pair()
    assert green_energy(np.stack([p, q]), 2) == pytest.approx(-3.0 / (4.0 * math.pi**2), rel=1e-13)
    assert green_energy(np.stack([p]), 2) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_green_energy_matches_pairwise_green_function(d):
    rng = np.random.default_rng(14)
    pts = [
        unit_vector(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        for _ in range(6)
    ]
    brute = sum(
        green_function(d, a, b) for a in pts for b in pts if a is not b
    )
    assert green_energy(np.stack(pts), d) == pytest.approx(brute, rel=1e-11)


def test_projective_pair_sums_match_pairwise_distances():
    rng = np.random.default_rng(16)
    pts = [
        unit_vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(7)
    ]
    sins = [fubini_sin_distance(a, b) for a in pts for b in pts if a is not b]
    riesz, log = projective_pair_sums(np.stack(pts), [1.3, 2.0, 4.0])
    assert sorted(riesz) == [1.3, 2.0, 4.0]
    for s, value in riesz.items():
        assert value == pytest.approx(sum(x ** (-s) for x in sins), rel=1e-10)
    assert log == pytest.approx(-sum(math.log(x) for x in sins), rel=1e-10)


def test_projective_pair_sums_coincident_pair_makes_every_sum_infinite():
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat[3] = np.exp(0.7j) * mat[1]
    riesz, log = projective_pair_sums(mat, [1.0, 2.0, 4.0])
    assert all(math.isinf(v) and v > 0 for v in riesz.values())
    assert math.isinf(log) and log > 0


def test_stacked_pair_sums_match_each_configuration():
    # One batched pass over a (T, n, d+1) stack, normalised row by row as
    # the Monte Carlo blocks do, gives each configuration's own sums bit for
    # bit; a coincident pair flags only its own entry.
    rng = np.random.default_rng(18)
    stack = rng.standard_normal((3, 5, 3)) + 1j * rng.standard_normal((3, 5, 3))
    stack[1, 4] = np.exp(0.3j) * stack[1, 0]
    riesz, log = _unit_pair_sums(unit_rows(stack.reshape(15, 3)).reshape(3, 5, 3), [1.0, 2.0])
    for t, mat in enumerate(stack):
        one_riesz, one_log = projective_pair_sums(mat, [1.0, 2.0])
        assert [riesz[s][t] for s in (1.0, 2.0)] == [one_riesz[1.0], one_riesz[2.0]]
        assert log[t] == one_log
    assert np.isinf(log).tolist() == [False, True, False]


def test_pair_sums_past_three_row_blocks_match_one_unblocked_sum():
    # Three row blocks, the last one partial: each blocked sum agrees with a
    # math.fsum of all n(n-1) terms, and a coincident pair whose rows both
    # lie in the last block makes every sum of the set +inf.
    n = 2 * _BLOCK_ROWS + 52
    rng = np.random.default_rng(19)
    real = rng.standard_normal((n, 3))
    mat = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    off = ~np.eye(n, dtype=bool)
    dist = cdist(real, real)[off]
    assert riesz_energy(real, 1.5) == pytest.approx(math.fsum(dist ** -1.5), rel=1e-13)
    assert log_energy(real) == pytest.approx(math.fsum(-np.log(dist)), rel=1e-13)
    units = unit_rows(mat)
    overlap = np.clip(np.abs(units @ units.conj().T), 0.0, 1.0)[off]
    sin = np.sqrt((1.0 - overlap) * (1.0 + overlap))
    riesz, log = projective_pair_sums(mat, [1.0, 3.0])
    for s, value in riesz.items():
        assert value == pytest.approx(math.fsum(sin ** -s), rel=1e-13)
    assert log == pytest.approx(math.fsum(-np.log(sin)), rel=1e-13)

    real[n - 10] = real[n - 40]
    mat[n - 10] = np.exp(0.4j) * mat[n - 40]
    assert riesz_energy(real, 1.5) == math.inf
    assert log_energy(real) == math.inf
    riesz, log = projective_pair_sums(mat, [1.0, 3.0])
    assert list(riesz.values()) == [math.inf, math.inf] and log == math.inf


def test_projective_pair_sums_reject_s_outside_range():
    p, q = _orthogonal_pair(d=3)
    for s in (0.0, -1.0, 6.0, 7.5):
        with pytest.raises(ValueError, match="0, 6"):
            projective_pair_sums(np.stack([p, q]), [2.0, s])


def test_projective_riesz_matches_pairwise_distances():
    rng = np.random.default_rng(15)
    pts = [
        unit_vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(5)
    ]
    brute = sum(
        fubini_sin_distance(a, b) ** (-1.3) for a in pts for b in pts if a is not b
    )
    assert projective_riesz_energy(np.stack(pts), 1.3) == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_green_zero_mean_over_projective_space(d):
    # (pi^d/(d-1)!) * int_0^1 phi(sqrt(u)) u^(d-1) du must vanish.
    val, _ = integrate.quad(
        lambda u: float(green_phi(d, math.sqrt(u))) * u ** (d - 1),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    integral = math.pi**d / math.gamma(d) * val
    assert abs(integral) <= 1e-8


# ------------------------------------------------------- lifted decomposition

def test_lifted_energy_decomposition_and_cross_term():
    # Total 2-energy = exact fiber part + inter-fiber part; the inter-fiber
    # part averaged over fresh phases matches (k^2/2) sum 1/sin d_FS.
    d, L, k = 1, 1, 4
    sample = sample_projective_ensemble(SamplerConfig(params=KernelParams(d, L), seed=90))
    r = len(sample.points)
    fiber_exact = r * k * (k * k - 1.0) / 12.0
    target = 0.5 * k * k * projective_riesz_energy(sample.points, 1.0)

    rng = np.random.default_rng(91)
    cross_values = []
    for _ in range(3000):
        config = lift_to_sphere(sample, k, rng)
        total = riesz_energy(realify(config), 2.0)
        cross_values.append(total - fiber_exact)
    cross_values = np.asarray(cross_values)
    se = cross_values.std(ddof=1) / math.sqrt(len(cross_values))
    assert abs(cross_values.mean() - target) <= 4.0 * se


# --------------------------------------------------------------------- report

def _energy_report(tmp_path, capsys, points, *kind, space="CP"):
    """The JSON document ``pensemble energy`` writes for a ``space`` file of ``points``."""
    path = tmp_path / "points.json"
    fiber = {"L": 1} if space == "CP" else {"k": 1}
    ps = PointSetFile(space=space, d=points.shape[1] - 1, seed=1, points=points, **fiber)
    path.write_text(pointset_to_json(ps), encoding="utf-8")
    assert cli_main(["energy", "--kind", *kind, "--in", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_energy_report_dict_handles_infinity(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    # A k = 1 lift whose first and third fibers share their point and phase.
    lifted = SphereConfiguration(rows[[0, 1, 0]], np.zeros(3), 1).points
    doc = _energy_report(tmp_path, capsys, lifted, "riesz", "--s", "2", space="S")
    assert doc["infinite"] is True and doc["value"] is None
    assert doc["kind"] == "riesz" and doc["s"] == 2.0 and doc["n_points"] == 3
    doc = _energy_report(tmp_path, capsys, rows, "green")
    assert doc["infinite"] is False and doc["value"] == green_energy(rows, 2)
    assert doc["kind"] == "green" and doc["s"] == 0.0 and doc["n_points"] == 4
