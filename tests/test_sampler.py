import hashlib
import math

import numpy as np
import pytest
from scipy import special, stats

from oracles import feature_vector, projective_to_chart
from pensemble import (
    KernelParams,
    RejectionBudgetExceededError,
    SamplerConfig,
    derive_trial_rng,
    expected_projective_log,
    expected_projective_riesz,
    sample_projective_ensemble,
)
from pensemble.energy import projective_pair_sums
from pensemble.geometry import COINCIDENT_OVERLAP
from pensemble.sampler import (
    _assert_no_coincidence,
    _lockstep_points,
    _sample_points,
    _trial_rngs,
    _uniform_unit_vector,
)

KS_ALPHA = 1e-3


def _chart_radial_stat(points):
    # u = |z|^2/(1+|z|^2) of the chart image equals 1 - |<x, e1>|^2.
    return 1.0 - np.abs(points[:, 0]) ** 2


def _uniform_points(d, n, rng):
    # The sampler's proposals: uniform on CP^d, i.e. on the unit sphere of C^(d+1).
    return np.stack([_uniform_unit_vector(d, rng) for _ in range(n)])


def test_uniform_chart_radial_cdf():
    d, n = 2, 100_000
    rng = np.random.default_rng(101)
    pts = _uniform_points(d, n, rng)
    u = _chart_radial_stat(pts)
    res = stats.kstest(u, lambda x: x**d)
    assert res.pvalue > KS_ALPHA


def test_uniform_d1_overlap_is_uniform():
    rng = np.random.default_rng(103)
    vals = np.abs(_uniform_points(1, 100_000, rng)[:, 0]) ** 2
    res = stats.kstest(vals, "uniform")
    assert res.pvalue > KS_ALPHA


def test_uniform_overlap_mean_matches_beta_moment():
    d, n = 3, 100_000
    rng = np.random.default_rng(107)
    vals = np.abs(_uniform_points(d, n, rng)[:, 0]) ** 2
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 1.0 / (d + 1)) <= 4.0 * se


def test_L0_sample_is_one_uniform_point():
    params = KernelParams(2, 0)
    u_stats = []
    for seed in range(2000):
        s = sample_projective_ensemble(SamplerConfig(params=params, seed=seed))
        assert len(s.points) == 1
        u_stats.append(_chart_radial_stat(s.matrix)[0])
    res = stats.kstest(np.array(u_stats), lambda x: x**2)
    assert res.pvalue > KS_ALPHA


@pytest.mark.parametrize("d,L", [(1, 1), (1, 3), (2, 1), (2, 2), (1, 200)])
def test_sample_cardinality_and_norms(d, L):
    params = KernelParams(d, L)
    s = sample_projective_ensemble(SamplerConfig(params=params, seed=5))
    assert len(s.points) == params.r
    assert np.allclose(np.linalg.norm(s.matrix, axis=1), 1.0, atol=1e-12)


def test_sample_points_projectively_distinct():
    params = KernelParams(2, 2)
    s = sample_projective_ensemble(SamplerConfig(params=params, seed=77))
    gram = np.abs(s.matrix @ s.matrix.conj().T)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < 1.0 - 1e-12


def _pair_u_cdf(d, L):
    # u = 1 - |<p_a, p_b>|^2 of one fixed pair. The sampler's output is
    # exchangeable (joint density det/r!), so every fixed pair follows the
    # two-point law: density proportional to (1 - (1-u)^L) u^(d-1) on [0, 1].
    b = special.beta(d, L + 1)
    return lambda u: (u**d / d - b * special.betainc(d, L + 1, u)) / (1.0 / d - b)


@pytest.mark.parametrize("d,L", [(1, 1), (2, 1), (1, 4)])
def test_pair_overlap_follows_two_point_law_ks(d, L):
    samples = 2000
    first, last = np.empty(samples), np.empty(samples)
    for trial in range(samples):
        points, _ = _sample_points(KernelParams(d, L), derive_trial_rng(20261019, trial))
        first[trial] = 1.0 - abs(np.vdot(points[0], points[1])) ** 2
        last[trial] = 1.0 - abs(np.vdot(points[-2], points[-1])) ** 2
    for u in (first, last):
        assert stats.kstest(u, _pair_u_cdf(d, L)).pvalue > KS_ALPHA
        # The same data reject the law of independent uniform points, u^d,
        # so the test can fail.
        assert stats.kstest(u, lambda x: x**d).pvalue < 1e-6


@pytest.mark.parametrize("d,L,seed", [(10, 2, 11), (1, 400, 12)])
def test_extreme_samples_are_distinct_with_finite_energies(d, L, seed):
    # r = 66 at (10, 2) and r = 401 at (1, 400).
    params = KernelParams(d, L)
    points = sample_projective_ensemble(SamplerConfig(params=params, seed=seed)).points
    assert points.shape == (params.r, d + 1)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    gram = np.abs(points @ points.conj().T)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < COINCIDENT_OVERLAP
    riesz, log = projective_pair_sums(points, (1.0,))
    assert math.isfinite(riesz[1.0]) and math.isfinite(log)
    assert math.isfinite(expected_projective_riesz(d, L, 1.0).exact)
    assert math.isfinite(expected_projective_log(d, L).exact)


def test_sampler_and_energies_share_the_coincidence_rule():
    p = np.array([1.0, 0.0])
    same = np.array([1.0, 1e-9]) / math.hypot(1.0, 1e-9)  # overlap rounds to 1
    near = np.array([1.0 - 1e-13, math.sqrt(2e-13)])  # overlap 1 - 1e-13
    with pytest.raises(RuntimeError, match="projectively equal"):
        _assert_no_coincidence(np.stack([p, same]))
    assert math.isinf(projective_pair_sums(np.stack([p, same]), (1.0,))[1])
    _assert_no_coincidence(np.stack([p, near]))
    assert math.isfinite(projective_pair_sums(np.stack([p, near]), (1.0,))[1])


def test_sampler_determinism():
    params = KernelParams(2, 1)
    a = sample_projective_ensemble(SamplerConfig(params=params, seed=42))
    b = sample_projective_ensemble(SamplerConfig(params=params, seed=42))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.proposals_per_step == b.proposals_per_step
    c = sample_projective_ensemble(SamplerConfig(params=params, seed=43))
    assert not np.array_equal(a.matrix, c.matrix)


def test_acceptance_rate_tracks_residual_trace():
    # Mean acceptance rate of step i should be (r - i)/r within 5% relative.
    params = KernelParams(2, 1)
    runs = 4000
    proposals = np.zeros(params.r)
    for seed in range(runs):
        s = sample_projective_ensemble(SamplerConfig(params=params, seed=seed))
        proposals += np.asarray(s.proposals_per_step)
    rates = runs / proposals
    expected = (params.r - np.arange(params.r)) / params.r
    assert np.all(np.abs(rates - expected) <= 0.05 * expected)


@pytest.mark.parametrize("d, L, seed", [(2, 1, 61), (2, 3, 62), (1, 6, 63)])
def test_total_proposals_per_sample_follow_the_geometric_law(d, L, seed):
    # Given any history, the expected residual at step i is exactly (r-i)/r,
    # so step i takes Geometric((r-i)/r) proposals. A sample's total then has
    # mean sum r/(r-i) and variance sum i r/(r-i)^2. Accepting on
    # residual^0.8 or residual^1.2 instead gave |z| of 9.7 to 29.8 here.
    params = KernelParams(d, L)
    r, samples = params.r, 2000
    _, proposals = _lockstep_points(params, _trial_rngs(seed, 0, samples))
    i = np.arange(r)
    mean, var = np.sum(r / (r - i)), np.sum(i * r / (r - i) ** 2)
    z = (proposals.sum(axis=1).mean() - mean) / math.sqrt(var / samples)
    assert abs(z) <= 4.0


def test_larger_rank_sample_completes_with_distinct_points():
    params = KernelParams(1, 20)  # r = 21, late steps accept rarely
    s = sample_projective_ensemble(SamplerConfig(params=params, seed=303))
    assert len(s.points) == 21
    gram = np.abs(s.matrix @ s.matrix.conj().T)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < 1.0 - 1e-12


def _reference_sample(params, rng):
    # Feature-space Gram-Schmidt: accept x with probability |v - proj_U v|^2 / |v|^2.
    basis, points, proposals = [], [], []
    while len(points) < params.r:
        tries = 0
        while True:
            tries += 1
            x = _uniform_unit_vector(params.d, rng)
            v = feature_vector(projective_to_chart(x), params)
            w = v - sum((np.vdot(u, v) * u for u in basis), np.zeros_like(v))
            ratio = np.vdot(w, w).real / np.vdot(v, v).real
            if rng.random() < ratio:
                basis.append(w / math.sqrt(np.vdot(w, w).real))
                points.append(x)
                proposals.append(tries)
                break
    return np.array(points), proposals


@pytest.mark.parametrize("d,L", [(1, 3), (2, 2), (2, 5), (3, 2)])
def test_kernel_chain_rule_matches_feature_space_reference(d, L):
    params = KernelParams(d, L)
    for index in range(3):
        points, proposals = _sample_points(params, derive_trial_rng(31, index))
        ref_points, ref_proposals = _reference_sample(params, derive_trial_rng(31, index))
        assert proposals == ref_proposals
        assert np.array_equal(points, ref_points)


# SHA-256 (first 32 hex digits) of the points and proposal counts of
# `count` samples drawn from derive_trial_rng(20261019, index). Any change to
# the draws, their order or the arithmetic that turns them into points moves
# these; a change to the rng stream must re-derive them and say so.
_STREAM_DIGESTS = [
    (1, 3, 12, "5fb040ab0d10b3a1d18d67a16ca5bf4a"),
    (2, 0, 40, "bd0a4bb0dab62578252df56db3a34b5c"),  # r = 1: the whole sample is step 0
    (2, 1, 40, "9e64c8939e904d11300bdf2b699b0ede"),
    (2, 5, 8, "1520aa42b005d8c99d7bd51e5258a9da"),
    (5, 4, 3, "c9e7412e9f9fbaddf61e280d273236e9"),
]


@pytest.mark.parametrize("d, L, count, digest", _STREAM_DIGESTS)
def test_seeded_samples_match_committed_digest(d, L, count, digest):
    h = hashlib.sha256()
    for index in range(count):
        points, proposals = _sample_points(KernelParams(d, L), derive_trial_rng(20261019, index))
        h.update(points.tobytes())
        h.update(np.asarray(proposals, dtype=np.int64).tobytes())
    assert h.hexdigest()[:32] == digest


# (d, L) with r from 1 to 126: one point at L = 0, d = 1, large d at L = 1, and
# large L at d = 1.
_LOCKSTEP_GRID = [
    (2, 0), (1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 5), (20, 1), (1, 40), (10, 2), (2, 14),
    (5, 4),
]


@pytest.mark.parametrize("d, L", _LOCKSTEP_GRID)
def test_lockstep_block_matches_each_stream_bit_for_bit(d, L):
    # Block sizes that are not the plan's: a partial block of 37, or 5 at large r.
    params = KernelParams(d, L)
    count = 37 if params.r <= 45 else 5
    rngs = [derive_trial_rng(20261020, index) for index in range(count)]
    points, proposals = _lockstep_points(params, rngs)
    assert points.shape == (count, params.r, d + 1)
    assert proposals.shape == (count, params.r)
    for index, rng in enumerate(rngs):
        ref_rng = derive_trial_rng(20261020, index)
        ref_points, ref_proposals = _sample_points(params, ref_rng)
        assert np.array_equal(points[index], ref_points)
        assert proposals[index].tolist() == ref_proposals
        # Each stream is left where the single sampler leaves it, so the
        # lift that follows draws the same phases.
        assert rng.random() == ref_rng.random()


class _ZeroFirstNormal:
    """A stream whose first normal draw is all zeros; logs the draw order."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, size=None, out=None):
        self.draws.append("normal")
        if len(self.draws) > 1:
            return self._rng.standard_normal(size, out=out)
        if out is None:
            return np.zeros(size)
        out[:] = 0.0
        return out

    def random(self):
        self.draws.append("uniform")
        return self._rng.random()


@pytest.mark.filterwarnings("error")  # the zero row must not be divided by its norm
def test_lockstep_redraws_a_zero_proposal_before_its_uniform():
    params = KernelParams(2, 2)
    fake, ref = _ZeroFirstNormal(8), _ZeroFirstNormal(8)
    points, proposals = _lockstep_points(params, [np.random.default_rng(9), fake])
    ref_points, ref_proposals = _sample_points(params, ref)
    assert fake.draws[:3] == ["normal", "normal", "uniform"]
    assert fake.draws == ref.draws
    assert np.array_equal(points[1], ref_points)
    assert proposals[1].tolist() == ref_proposals
    assert np.array_equal(points[0], _sample_points(params, np.random.default_rng(9))[0])


def test_lockstep_rejection_budget_raises(monkeypatch):
    monkeypatch.setattr("pensemble.sampler.MAX_REJECTIONS_PER_POINT", 1)
    rngs = [derive_trial_rng(0, index) for index in range(16)]
    with pytest.raises(RejectionBudgetExceededError):
        _lockstep_points(KernelParams(1, 9), rngs)


def test_rejection_budget_raises(monkeypatch):
    params = KernelParams(1, 9)  # late steps accept rarely; budget 1 must trip
    monkeypatch.setattr("pensemble.sampler.MAX_REJECTIONS_PER_POINT", 1)
    config = SamplerConfig(params=params, seed=0)
    with pytest.raises(RejectionBudgetExceededError):
        sample_projective_ensemble(config)


def test_one_point_intensity_matches_uniform_two_sample_ks():
    # Pooled per-point statistic of the process vs. plain uniform draws.
    d, L, samples = 1, 1, 50_000
    params = KernelParams(d, L)
    pooled = []
    for index in range(samples):
        rng = derive_trial_rng(909, index)
        matrix, _ = _sample_points(params, rng)
        pooled.append(_chart_radial_stat(matrix))
    pooled = np.concatenate(pooled)
    assert pooled.size >= 100_000
    rng = np.random.default_rng(910)
    uniform = _uniform_points(d, 100_000, rng)
    res = stats.ks_2samp(pooled, _chart_radial_stat(uniform))
    assert res.pvalue > KS_ALPHA


def test_derive_trial_rng_repeatable():
    a = derive_trial_rng(7, 3).random(64)
    b = derive_trial_rng(7, 3).random(64)
    assert np.array_equal(a, b)


def test_derive_trial_rng_streams_differ():
    a = derive_trial_rng(7, 0).random(64)
    b = derive_trial_rng(7, 1).random(64)
    assert not np.array_equal(a, b)


def _numpy_stream(master_seed, index):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


# One- and two-word master seeds at both ends of each width, and a few others.
_MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 3141592653, 0x9E3779B97F4A7C15,
                 0x0123456789ABCDEF]
# From 0; across 2^32, where an index turns into two hash words; up to 2^64 - 1.
_INDEX_RANGES = [(0, 40), (2**32 - 3, 2**32 + 3), (2**64 - 4, 2**64)]


@pytest.mark.parametrize("master_seed", _MASTER_SEEDS)
@pytest.mark.parametrize("start, stop", _INDEX_RANGES)
def test_trial_streams_are_numpys_seed_sequence_streams(master_seed, start, stop):
    rngs = _trial_rngs(master_seed, start, stop)
    assert len(rngs) == stop - start
    for index, rng in zip(range(start, stop), rngs):
        ref, single = _numpy_stream(master_seed, index), derive_trial_rng(master_seed, index)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert single.bit_generator.state == ref.bit_generator.state
        first = ref.random()
        assert rng.random() == first and single.random() == first


@pytest.mark.parametrize("index", ["3", 1.0, 2**70, 2**64, -1])
def test_trial_index_must_be_an_unsigned_64_bit_int(index):
    with pytest.raises(ValueError, match="trial_index"):
        derive_trial_rng(7, index)


@pytest.mark.parametrize(
    "start, stop, name",
    [(-1, 3, "start"), ("0", 3, "start"), (2**64, 2**64, "start"), (5, 4, "stop"),
     (0, 3.0, "stop"), (0, 2**64 + 1, "stop")],
)
def test_trial_rngs_checks_its_index_range(start, stop, name):
    with pytest.raises(ValueError, match=name):
        _trial_rngs(7, start, stop)


def test_trial_rngs_of_an_empty_range():
    assert _trial_rngs(7, 5, 5) == []


def test_trial_stream_seed_words_serve_pcg64_only():
    # A stream's seed_seq holds its 4 PCG64 seed words: it neither spawns nor
    # hands them out as any other request.
    rng = derive_trial_rng(7, 3)
    with pytest.raises(TypeError):
        rng.spawn(1)
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(8)


def test_trials_independent_of_execution_order():
    params = KernelParams(1, 1)

    def run(index):
        rng = derive_trial_rng(55, index)
        matrix, _ = _sample_points(params, rng)
        return matrix

    forward = [run(i) for i in range(10)]
    backward = [run(i) for i in reversed(range(10))][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_seed_validation():
    with pytest.raises(ValueError):
        SamplerConfig(params=KernelParams(1, 1), seed=-1)
    with pytest.raises(ValueError):
        derive_trial_rng(2**64, 0)
