import math

import numpy as np
import pytest
from hypothesis import given

from helpers import complex_vectors
from pensemble import (
    KernelParams,
    SamplerConfig,
    SphereConfiguration,
    lift_to_sphere,
    realify,
    riesz_energy,
    sample_projective_ensemble,
    sphere_2energy,
)
from pensemble.energy import _sphere_2energies


def _sample(d, L, seed):
    return sample_projective_ensemble(SamplerConfig(params=KernelParams(d, L), seed=seed))


def test_k1_r1_single_phase_multiple():
    sample = _sample(1, 0, seed=3)
    rng = np.random.default_rng(4)
    config = lift_to_sphere(sample, 1, rng)
    assert config.n == 1
    assert np.linalg.norm(config.points[0]) == pytest.approx(1.0, abs=1e-12)
    expected = np.exp(1j * config.phases[0]) * sample.matrix[0]
    assert np.allclose(config.points[0], expected, atol=1e-14)


def test_lift_structure_matches_phase_formula():
    sample = _sample(2, 1, seed=8)
    k = 3
    config = lift_to_sphere(sample, k, np.random.default_rng(9))
    r = len(sample.points)
    assert config.n == k * r
    for i in range(r):
        for j in range(k):
            expected = np.exp(1j * (config.phases[i] + 2.0 * math.pi * j / k)) * sample.matrix[i]
            assert np.allclose(config.points[k * i + j], expected, atol=1e-12)


def test_lift_norms_are_unit():
    sample = _sample(1, 3, seed=12)
    config = lift_to_sphere(sample, 5, np.random.default_rng(13))
    assert np.allclose(np.linalg.norm(config.points, axis=1), 1.0, atol=1e-12)


def test_within_fiber_chordal_distances_k4():
    sample = _sample(1, 0, seed=1)
    config = lift_to_sphere(sample, 4, np.random.default_rng(2))
    fiber = config.points
    dists = sorted(
        np.linalg.norm(fiber[0] - fiber[j]) for j in range(1, 4)
    )
    assert dists == pytest.approx([math.sqrt(2.0), math.sqrt(2.0), 2.0], abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 8, 16, 64])
def test_fiber_two_energy_is_roots_of_unity_energy(k):
    sample = _sample(1, 0, seed=21)
    config = lift_to_sphere(sample, k, np.random.default_rng(22))
    energy = riesz_energy(realify(config), 2.0)
    assert energy == pytest.approx(k * (k * k - 1.0) / 12.0, rel=1e-10)
    assert sphere_2energy(config) == pytest.approx(k * (k * k - 1.0) / 12.0, rel=1e-10)


@pytest.mark.parametrize("d, L, k", [(1, 1, 1), (1, 1, 2), (2, 2, 128), (3, 2, 5), (2, 5, 64)])
@pytest.mark.parametrize("seed", [50, 51, 52])
def test_sphere_2energy_matches_pairwise_sum(d, L, k, seed):
    config = lift_to_sphere(_sample(d, L, seed), k, np.random.default_rng(seed + 100))
    assert sphere_2energy(config) == pytest.approx(riesz_energy(realify(config), 2.0), rel=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_sphere_2energy_orthogonal_fibers(k):
    # q = 0: every cross-fiber pair sits at distance sqrt(2), 1/2 per ordered pair.
    config = lift_to_sphere(np.eye(2, dtype=complex), k, np.random.default_rng(60))
    expected = k * k + 2.0 * k * (k * k - 1.0) / 12.0
    assert sphere_2energy(config) == pytest.approx(expected, rel=1e-14)
    assert riesz_energy(realify(config), 2.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [70, 71, 72])
def test_sphere_2energy_duplicated_row_at_two_phases(k, seed):
    # rho = 1: the fiber pair sums csc^2 over a shifted k-gon, k^3/(4 sin^2(k delta/2)).
    # The stored lifted points carry phase rounding near 1e-15, which moves
    # the pairwise sum by about 1e-15/delta for a nearest lifted pair at
    # distance delta; these k and seeds keep delta above 5e-3.
    rng = np.random.default_rng(seed)
    row = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    config = lift_to_sphere(np.vstack([row, row]), k, np.random.default_rng(seed + 2))
    delta = config.phases[1] - config.phases[0]
    expected = 2.0 * k**3 / (4.0 * math.sin(0.5 * k * delta) ** 2) + 2.0 * k * (k * k - 1.0) / 12.0
    energy = sphere_2energy(config)
    assert energy == pytest.approx(expected, rel=1e-12)
    assert energy == pytest.approx(riesz_energy(realify(config), 2.0), rel=1e-12)


def test_sphere_2energy_duplicated_row_at_one_phase_is_infinite():
    single = lift_to_sphere(np.array([[1.0, 0.5j, -0.25]]), 4, np.random.default_rng(80))
    config = SphereConfiguration(
        representatives=np.repeat(single.representatives, 2, axis=0),
        phases=np.repeat(single.phases, 2),
        k=4,
    )
    assert riesz_energy(realify(config), 2.0) == math.inf
    assert sphere_2energy(config) == math.inf


def test_stacked_sphere_2energies_flag_only_the_coincident_lift():
    # The batched closed form over a stack of lifts gives each lift's own
    # energy; the middle lift repeats a fiber at its phase, so only it is +inf.
    rng = np.random.default_rng(81)
    reps = rng.normal(size=(3, 4, 3)) + 1j * rng.normal(size=(3, 4, 3))
    reps /= np.linalg.norm(reps, axis=-1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(3, 4))
    reps[1, 3], phases[1, 3] = reps[1, 0], phases[1, 0]
    energies = _sphere_2energies(reps, phases, 4)
    assert np.isinf(energies).tolist() == [False, True, False]
    for t in (0, 2):
        config = SphereConfiguration(representatives=reps[t], phases=phases[t], k=4)
        assert energies[t] == pytest.approx(sphere_2energy(config), rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [90, 91, 92])
def test_sphere_2energy_matches_pairwise_sum_on_any_configuration(k, seed):
    # Any representatives and phases build a valid lift, so the closed form
    # holds for every configuration that can be constructed.
    rng = np.random.default_rng(seed)
    config = SphereConfiguration(
        representatives=rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)),
        phases=rng.uniform(-10.0, 10.0, size=5),
        k=k,
    )
    assert config.n == 5 * k
    assert np.allclose(np.linalg.norm(config.points, axis=1), 1.0, atol=1e-12)
    assert sphere_2energy(config) == pytest.approx(riesz_energy(realify(config), 2.0), rel=1e-12)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"representatives": np.zeros((2, 3)), "phases": np.zeros(2), "k": 2}, "zero vector"),
        ({"representatives": np.eye(3), "phases": np.zeros(2), "k": 2}, "one finite offset"),
        ({"representatives": np.eye(3), "phases": [0.0, np.nan, 1.0], "k": 2}, "one finite offset"),
        ({"representatives": np.eye(3), "phases": np.zeros(3), "k": 0}, "positive integer"),
        ({"representatives": np.eye(3), "phases": np.zeros(3), "k": 2.0}, "positive integer"),
    ],
)
def test_sphere_configuration_rejects_what_is_not_a_lift(fields, message):
    with pytest.raises(ValueError, match=message):
        SphereConfiguration(**fields)


def test_realify_examples():
    out = realify(np.array([[1.0 + 0.0j, 0.0 + 0.0j]]))
    assert np.allclose(out, [[1.0, 0.0, 0.0, 0.0]])
    out = realify(np.array([[1.0j, 0.0 + 0.0j]]))
    assert np.allclose(out, [[0.0, 1.0, 0.0, 0.0]])


@given(complex_vectors(size=4))
def test_realify_preserves_norms(v):
    out = realify(v[None, :])
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_phase_average_of_inverse_square_distance(t):
    # Average over a 1e4-point phase grid equals 1/(2 sqrt(1 - t^2)).
    x1 = np.array([1.0, 0.0], dtype=complex)
    x2 = np.array([t, math.sqrt(1.0 - t * t)], dtype=complex)
    theta = 2.0 * math.pi * (np.arange(10_000) + 0.5) / 10_000
    inv = 1.0 / (2.0 - 2.0 * t * np.cos(theta))
    assert inv.mean() == pytest.approx(1.0 / (2.0 * math.sqrt(1.0 - t * t)), abs=1e-6)


def test_inter_fiber_overlaps_do_not_depend_on_fiber_position():
    sample = _sample(1, 1, seed=31)  # r = 2 points
    k = 3
    config = lift_to_sphere(sample, k, np.random.default_rng(32))
    overlaps = [
        abs(np.vdot(config.points[j1], config.points[k + j2]))
        for j1 in range(k)
        for j2 in range(k)
    ]
    assert max(overlaps) - min(overlaps) <= 1e-12


def test_lift_rejects_bad_k():
    sample = _sample(1, 0, seed=40)
    with pytest.raises(ValueError):
        lift_to_sphere(sample, 0, np.random.default_rng(41))
