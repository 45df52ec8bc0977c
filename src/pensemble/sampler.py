"""Exact sampling of the projection-kernel determinantal process on CP^d.

The process is the projection DPP of the r = C(d+L, d) weighted monomials
sqrt(C_alpha) z^alpha / (1+|z|^2)^((d+L+1)/2), |alpha| <= L, pushed to CP^d
through the affine chart z -> (1, z). For unit representatives its kernel is
(r d!/pi^d) <p,q>^L up to a unimodular phase gauge, so its one-point
intensity is the constant r d!/pi^d.

Chain-rule rejection sampler (Hough, Krishnapur, Peres, Virag 2006, Alg. 18):
the one-point intensity of the process is constant on CP^d, so uniform
points are valid proposals. With p_1..p_i selected, a proposal x is accepted
with probability equal to the Schur complement

    1 - k_x^H G_i^{-1} k_x,   k_x[j] = <p_j, x>^L,   G_i[j, l] = <p_j, p_l>^L,

the conditional intensity at x divided by the constant r d!/pi^d. That
constant and the kernel's phase gauge cancel in the ratio, so no feature
vectors are needed. G_i^{-1} enters through the lower-triangular inverse
Cholesky factor W_i (G_i^{-1} = W_i^H W_i), which grows by one row per
accepted point. The expected acceptance rate at step i is (r-i)/r. Step 0
is an ordinary step: with no point selected its residual is exactly 1, so
its first proposal is accepted, and its uniform is drawn all the same.

`_sample_points` draws one sample from one stream. `_lockstep_points` draws
a block of samples, one per stream, with the steps of all trials in
lockstep: it returns for every stream the bits `_sample_points` returns for
it, and leaves the stream where `_sample_points` leaves it. The Monte Carlo
harness samples every block of trials with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .geometry import COINCIDENT_OVERLAP

__all__ = [
    "KernelParams",
    "SamplerConfig",
    "ProjectiveSample",
    "RejectionBudgetExceededError",
    "sample_projective_ensemble",
    "derive_trial_rng",
]

_MAX_SEED = 2**64
# Proposals one selection step may draw before the sampler gives up; the
# expected count is r/(r-i), so reaching this points at a defect.
MAX_REJECTIONS_PER_POINT = 10_000_000


class RejectionBudgetExceededError(RuntimeError):
    """A single point burned through the rejection budget (likely a defect)."""


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


def _check_d(d: int) -> None:
    """The dimension rule for CP^d, shared by every layer that takes a d."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")


@dataclass(frozen=True)
class KernelParams:
    """Immutable parameters (d, L) of the weighted-monomial subspace."""

    d: int
    L: int

    def __post_init__(self) -> None:
        _check_d(self.d)
        if not isinstance(self.L, int) or self.L < 0:
            raise ValueError("L must be a non-negative integer")

    @cached_property
    def r(self) -> int:
        """Subspace dimension C(d+L, d)."""
        return math.comb(self.d + self.L, self.d)

    @cached_property
    def intensity(self) -> float:
        """Constant one-point intensity on CP^d: r d! / pi^d."""
        return math.exp(
            math.log(self.r) + math.lgamma(self.d + 1) - self.d * math.log(math.pi)
        )


@dataclass(frozen=True)
class SamplerConfig:
    """Everything that determines a sample: kernel parameters and a seed."""

    params: KernelParams
    seed: int

    def __post_init__(self) -> None:
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class ProjectiveSample:
    """An exact draw of r points in CP^d plus generation metadata.

    ``points`` is the read-only (r, d+1) array of unit representatives, row i
    = point i; ``matrix`` is the same array. ``proposals_per_step`` records
    how many uniform proposals each selection step consumed (diagnostics; the
    acceptance rate of step i should hover around (r-i)/r).
    """

    points: np.ndarray
    params: KernelParams
    seed: int
    proposals_per_step: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self.points.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.points


def _uniform_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector in C^(d+1) from 2(d+1) standard normals, (re, im) interleaved."""
    normal = rng.standard_normal
    while True:
        x = normal(2 * (d + 1))
        # re.re + im.im, the squared norm exactly as np.linalg.norm forms it.
        re, im = x[0::2], x[1::2]
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if norm > 1e-150:
            return x.view(np.complex128) / norm


def _sample_points(
    params: KernelParams, rng: np.random.Generator
) -> tuple[np.ndarray, list[int]]:
    """Core sequential sampler; returns (r, d+1) representatives and proposal counts."""
    d, L, r = params.d, params.L, params.r
    budget = MAX_REJECTIONS_PER_POINT
    random = rng.random
    points = np.empty((r, d + 1), dtype=np.complex128)
    inv_chol = np.zeros((r, r), dtype=np.complex128)  # W, lower triangular
    proposals = []
    for i in range(r):
        w, selected = inv_chol[:i, :i], points[:i]
        for tries in range(1, budget + 1):
            cand = _uniform_unit_vector(d, rng)
            y = w @ (selected @ cand.conj()) ** L
            residual = 1.0 - np.vdot(y, y).real
            if random() < residual:
                break
        else:
            raise RejectionBudgetExceededError(
                f"point {i}: no acceptance within {budget} proposals"
            )
        delta = math.sqrt(residual)
        inv_chol[i, :i] = -(y.conj() @ w) / delta
        inv_chol[i, i] = 1.0 / delta
        points[i] = cand
        proposals.append(tries)
    return points, proposals


def _lockstep_proposals(
    d: int, rngs: list[np.random.Generator], pending: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One proposal and its acceptance uniform for each pending trial.

    Each trial draws from its own stream in the order `_sample_points` does:
    normals, a redraw while their norm is tiny, then the uniform. The norms
    go through matmul, which calls the same BLAS dot as `re.dot(re)`.
    """
    n, pending = 2 * (d + 1), pending.tolist()
    x = np.empty((len(pending), n))
    for row, t in zip(x, pending):
        rngs[t].standard_normal(out=row)
    re, im = x[:, 0::2], x[:, 1::2]
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    norm = np.sqrt(squares[:, 0, 0])
    tiny = np.flatnonzero(norm <= 1e-150)
    norm[tiny] = 1.0  # those rows are redrawn below, so no 0/0 here
    cand = x.view(np.complex128) / norm[:, None]
    for j in tiny:
        cand[j] = _uniform_unit_vector(d, rngs[pending[j]])
    uniform = np.array([rngs[t].random() for t in pending])
    return cand, uniform


def _lockstep_points(
    params: KernelParams, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """`_sample_points` for a block of streams at once, bit for bit.

    Returns (T, r, d+1) representatives and (T, r) proposal counts, row t
    equal to `_sample_points(params, rngs[t])`. At step i every trial still
    pending draws a proposal from its own stream; one batched pass then
    forms the residuals of all of them, and a second grows W for those that
    accepted. The rest try again in the next round. Every reduction is a
    matmul, which calls per trial the BLAS routine the single sampler calls
    (gemv, or dot when one side is a vector), so the bits agree.
    """
    d, L, r = params.d, params.L, params.r
    budget = MAX_REJECTIONS_PER_POINT
    trials = np.arange(len(rngs))
    points = np.empty((trials.size, r, d + 1), dtype=np.complex128)
    inv_chol = np.zeros((trials.size, r, r), dtype=np.complex128)
    proposals = np.empty((trials.size, r), dtype=np.int64)
    for i in range(r):
        # Views while every trial is pending; the rows of the pending trials
        # are copied out only when some trial accepts, not on every round.
        pending, w, selected = trials, inv_chol[:, :i, :i], points[:, :i]
        for tries in range(1, budget + 1):
            cand, uniform = _lockstep_proposals(d, rngs, pending)
            y = w @ (selected @ cand.conj()[:, :, None]) ** L
            residual = 1.0 - (y.conj().transpose(0, 2, 1) @ y)[:, 0, 0].real
            accept = uniform < residual
            if accept.any():
                done = pending[accept]
                delta = np.sqrt(residual[accept])[:, None]
                yh = y[accept].conj().transpose(0, 2, 1)
                inv_chol[done, i, :i] = -(yh @ w[accept])[:, 0] / delta
                inv_chol[done, i, i] = 1.0 / delta[:, 0]
                points[done, i] = cand[accept]
                proposals[done, i] = tries
                rest = ~accept
                pending, w, selected = pending[rest], w[rest], selected[rest]
                if not pending.size:
                    break
        else:
            raise RejectionBudgetExceededError(
                f"point {i}: no acceptance within {budget} proposals"
            )
    return points, proposals


def _assert_no_coincidence(matrix: np.ndarray) -> None:
    # Probability-zero event; catching it here beats silent infinities
    # downstream, and the energies flag coincidence at the same overlap.
    gram = np.abs(matrix @ matrix.conj().T)
    np.fill_diagonal(gram, 0.0)
    if gram.size and gram.max() >= COINCIDENT_OVERLAP:
        raise RuntimeError("sampler produced two projectively equal points")


def sample_projective_ensemble(config: SamplerConfig) -> ProjectiveSample:
    """Draw r = C(d+L, d) points of the determinantal process, reproducibly."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    matrix, proposals = _sample_points(config.params, rng)
    _assert_no_coincidence(matrix)
    return ProjectiveSample(
        points=matrix,
        params=config.params,
        seed=config.seed,
        proposals_per_step=tuple(proposals),
    )


def _check_trial_index(index: int, name: str = "trial_index") -> None:
    """The trial index rule, the seed's: an int in [0, 2^64)."""
    if not isinstance(index, int) or not 0 <= index < _MAX_SEED:
        raise ValueError(f"{name} must be an unsigned 64-bit integer")


# numpy's SeedSequence hash at pool size 4 (numpy/random/bit_generator.pyx).
# Its multipliers advance in a sequence that does not depend on the data:
# hashmix call j xors with _HASH_A[j] and multiplies by _HASH_A[j + 1], and
# output word j of generate_state likewise with _HASH_B.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


# The first 16 calls mix the 4 master words (numpy's own SeedSequence makes
# them); each of an index's 1 or 2 words takes 4 more.
# Rows are the index's low and high word, and generate_state's two passes
# over the pool.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 25)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_INDEX_XOR = np.array(_HASH_A[16:24], dtype=np.uint32).reshape(2, 4)
_INDEX_MULT = np.array(_HASH_A[17:25], dtype=np.uint32).reshape(2, 4)
_STATE_XOR = np.array(_HASH_B[:8], dtype=np.uint32).reshape(2, 4)
_STATE_MULT = np.array(_HASH_B[1:9], dtype=np.uint32).reshape(2, 4)


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed words into pools, on uint32 arrays (array
    products wrap silently where numpy scalars warn)."""
    mixed = _MIX_L * pool - _MIX_R * hashed
    mixed ^= mixed >> 16
    return mixed


class _SeedWords(ISeedSequence):
    """The PCG64 seed words of one trial stream, precomputed.

    Serves `generate_state(4, np.uint64)`, the one request `PCG64` makes, with
    the words `SeedSequence(entropy=master_seed, spawn_key=(trial_index,))`
    would give. It does not implement `spawn`.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a trial stream's seed words serve PCG64 only")
        return self.words


def _trial_rngs(master_seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """The streams of trials start..stop-1, one SeedSequence hash for all.

    The master seed's part of the hash depends on no index, so it runs once:
    it is the pool of `SeedSequence(master_seed)`, whose missing words hash
    as zeros, as the zero-padded master words of a keyed sequence do. Every
    other stage is one array operation over the block: the indices' low words
    are mixed into (T, 4) pools, their high words too (under a mask) where an
    index is >= 2^32, and the pools are hashed into (T, 4) PCG64 seed words.
    Row t is the generator that
    `np.random.default_rng(SeedSequence(entropy=master_seed,
    spawn_key=(start + t,)))` builds, bit for bit.
    """
    _check_seed(master_seed)
    _check_trial_index(start, "start")
    if not isinstance(stop, int) or not start <= stop <= _MAX_SEED:
        raise ValueError("stop must be an integer in [start, 2^64]")
    index = np.arange(stop - start, dtype="<u8")
    index += start
    words = index.view("<u4").reshape(-1, 2, 1)  # low and high word of each index
    hashed = (words ^ _INDEX_XOR) * _INDEX_MULT
    hashed ^= hashed >> 16
    pool = _mix(np.random.SeedSequence(master_seed).pool, hashed[:, 0])
    two_words = words[:, 1] > 0  # an index >= 2^32 enters the hash as two words
    pool = np.where(two_words, _mix(pool, hashed[:, 1]), pool)
    state = (pool[:, None] ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> 16
    # Little-endian pairs of words, as SeedSequence.generate_state forms them.
    seeds = state.reshape(-1, 8).astype("<u4", copy=False).view("<u8")
    seeds = seeds.astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in seeds]


def derive_trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream via counter-keyed seed derivation.

    The (master_seed, trial_index) pair fully determines the stream, so
    trials can run in any order, or concurrently, with identical results.
    The stream is numpy's `default_rng(SeedSequence(entropy=master_seed,
    spawn_key=(trial_index,)))`, bit for bit; it is row 0 of `_trial_rngs`.
    Its `bit_generator.seed_seq` holds only the seed words, so it cannot
    `spawn`. Both arguments are ints in [0, 2^64).
    """
    _check_trial_index(trial_index)
    return _trial_rngs(master_seed, trial_index, trial_index + 1)[0]
