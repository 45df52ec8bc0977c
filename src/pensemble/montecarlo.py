"""Seeded Monte Carlo harness comparing sampled energies to closed forms.

Each trial owns an rng derived from (master_seed, trial_index) and draws its
sample and lift phases from it alone. Trials run in blocks of consecutive
indices, of at most 2^15 pair entries (trials * r^2, at least one trial), so
r alone sets their size: a block derives the streams of its trials in one
vectorised seed hash (each the stream `derive_trial_rng` gives that trial),
samples its trials with the one chain-rule sampler, in lockstep, each on its
own stream and with the bits that trial would get alone, lifts them as one
stacked (T, r) phase draw, then evaluates their pair energies in one
batched pass. It builds no
`SphereConfiguration`: a sphere Riesz column off s = 2 sums over the lifted
points of each trial's unit rows, from the builder that
`SphereConfiguration.points` uses. A plan of one block runs in-process; a
process pool maps the blocks of a larger plan, and `workers` bounds its
size. So results are independent of execution order and of the number of
worker processes; aggregation is a deterministic fold in trial order. Trials
whose energies hit a coincident pair are discarded and counted, one trial at
a time.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .closed_forms import (
    expected_green_energy,
    expected_projective_log,
    expected_projective_riesz,
    expected_sphere_2energy_exact,
)
from .energy import (
    _check_riesz_s,
    _green_combination,
    _green_s_values,
    _sphere_2energies,
    _unit_pair_sums,
    riesz_energy,
)
from .geometry import unit_rows
from .lift import _lift_phases, _lifted_points, realify
from .sampler import KernelParams, _check_seed, _lockstep_points, _trial_rngs

__all__ = [
    "EnergySpec",
    "ExperimentConfig",
    "EnergyResult",
    "ExperimentReport",
    "default_energy_specs",
    "run_experiment",
]

_KINDS = ("projective_riesz", "projective_log", "green", "sphere_riesz")
_MOM_BLOCKS = 20
# A block holds as many trials as fit in _BLOCK_PAIRS pair entries (r^2 per
# trial, at least one trial), so the batched passes hold a few arrays of that
# size. It is also the pool threshold: a plan of more than one block starts a
# pool. Measured at r = 3 with 2 workers on 2 cores and one BLAS thread, the
# pool lost up to 3000 trials and won from 4000; one block is 3640 trials.
_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True)
class EnergySpec:
    """One energy to estimate per trial; the log and green kinds take no s (0)."""

    kind: str
    s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in ("projective_log", "green") and self.s != 0.0:
            raise ValueError(f"{self.kind} takes no s, got s = {self.s}")

    def label(self) -> str:
        if self.kind in ("projective_riesz", "sphere_riesz"):
            return f"{self.kind}(s={self.s:g})"
        return self.kind


@dataclass(frozen=True)
class ExperimentConfig:
    """Trial plan: ensemble parameters, requested energies, and seeding.

    The whole plan is checked at construction, before any trial runs: the
    seed and (d, L) by the sampler's own rules, and every energy by
    evaluating its closed form once, so the closed forms' rules reject a bad
    s, d or k. ``exact_values`` keeps those values for the report.
    """

    d: int
    L: int
    k: int  # 0 means projective-only (no sphere lift)
    energies: tuple[EnergySpec, ...]
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        _check_seed(self.master_seed)
        self.params  # built now, so KernelParams rejects a bad d or L here
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError("k must be a non-negative integer (0 means no lift)")
        if not isinstance(self.trials, int) or self.trials < 2:
            raise ValueError("trials must be >= 2 so the standard error is defined")
        if not self.energies:
            raise ValueError("at least one energy spec is required")
        self.exact_values  # evaluated now, so a spec off its closed form's domain fails here

    @cached_property
    def params(self) -> KernelParams:
        return KernelParams(self.d, self.L)

    @cached_property
    def exact_values(self) -> tuple[Optional[float], ...]:
        """The closed-form expectation of each spec, None where there is none."""
        return tuple(_closed_form(self, spec) for spec in self.energies)


@dataclass(frozen=True)
class EnergyResult:
    """Aggregated statistics for one requested energy."""

    kind: str
    s: float
    estimator: str
    sample_mean: float
    sample_std: float
    standard_error: float
    closed_form_exact: Optional[float]
    z_score: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    """Deterministic experiment summary; wall_time stays out of to_dict so
    repeated runs (any worker count) serialize byte-identically."""

    d: int
    L: int
    k: int
    trials: int
    master_seed: int
    results: tuple[EnergyResult, ...]
    trials_retained: int
    trials_discarded: int
    wall_time: float = field(compare=False, default=0.0)

    def max_abs_z(self) -> float:
        zs = [abs(res.z_score) for res in self.results if res.z_score is not None]
        return max(zs) if zs else 0.0

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "L": self.L,
            "k": self.k,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "trials_retained": self.trials_retained,
            "trials_discarded": self.trials_discarded,
            "energies": [res.to_dict() for res in self.results],
        }


def default_energy_specs(d: int, k: int) -> tuple[EnergySpec, ...]:
    """Validation defaults: Riesz at s=2 (s=1 when d=1), log, green for d >= 2,
    and the sphere 2-energy when a lift is requested."""
    specs = [
        EnergySpec("projective_riesz", 2.0 if d >= 2 else 1.0),
        EnergySpec("projective_log"),
    ]
    if d >= 2:
        specs.append(EnergySpec("green"))
    if k >= 1:
        specs.append(EnergySpec("sphere_riesz", 2.0))
    return tuple(specs)


def _trials_per_block(r: int) -> int:
    """Trials per block for configurations of r points; r alone sets it, so
    the blocks of a plan depend on trial indices alone."""
    return max(_BLOCK_PAIRS // (r * r), 1)


def _block_values(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Energy values of trials start..stop-1, one row per trial.

    Each trial samples (in lockstep with the block), then draws its lift
    phases, on its own stream. The block's unit rows, normalised once as one
    stack, feed one batched projective pass and, with the (T, r) phases, one
    batched lifted 2-energy pass.
    """
    params, k = config.params, config.k
    rngs = _trial_rngs(config.master_seed, start, stop)
    points, _ = _lockstep_points(params, rngs)
    mats = unit_rows(points.reshape(-1, params.d + 1)).reshape(points.shape)
    if k >= 1:
        phases = np.array([_lift_phases(params.r, rng) for rng in rngs])
    kinds = {spec.kind for spec in config.energies}
    if kinds - {"sphere_riesz"}:
        s_values = [spec.s for spec in config.energies if spec.kind == "projective_riesz"]
        if "green" in kinds:
            s_values.extend(_green_s_values(config.d))
        riesz, log = _unit_pair_sums(mats, s_values)
    out = np.empty((len(rngs), len(config.energies)))
    for col, spec in enumerate(config.energies):
        if spec.kind == "projective_riesz":
            out[:, col] = riesz[spec.s]
        elif spec.kind == "projective_log":
            out[:, col] = log
        elif spec.kind == "green":
            pairs = params.r * (params.r - 1)
            out[:, col] = _green_combination(config.d, log, riesz.__getitem__, pairs)
        elif spec.s == 2.0:  # sphere_riesz
            out[:, col] = _sphere_2energies(mats, phases, k)
        else:  # pairwise off s = 2, on the points `SphereConfiguration.points` holds
            out[:, col] = [
                riesz_energy(realify(_lifted_points(rows, theta, k)), spec.s)
                for rows, theta in zip(mats, phases)
            ]
    return out


def _closed_form(config: ExperimentConfig, spec: EnergySpec) -> Optional[float]:
    if spec.kind == "projective_riesz":
        return expected_projective_riesz(config.d, config.L, spec.s).exact
    if spec.kind == "projective_log":
        return expected_projective_log(config.d, config.L).exact
    if spec.kind == "green":
        return expected_green_energy(config.d, config.L).exact
    if config.k < 1:
        raise ValueError("sphere_riesz requires a lift (k >= 1)")
    if spec.s == 2.0:
        return expected_sphere_2energy_exact(config.d, config.L, config.k).exact
    _check_riesz_s(spec.s)  # no closed form for sphere Riesz away from s = 2
    return None


def _estimator_for(config: ExperimentConfig, spec: EnergySpec) -> str:
    # Summands near the sin-distance singularity get heavy-tailed once s
    # passes d; fall back to a robust estimate there.
    if spec.kind == "projective_riesz" and spec.s > config.d:
        return "median_of_means"
    return "mean"


def _aggregate_column(values: np.ndarray, estimator: str, mom_blocks: int) -> tuple[float, float, float, str]:
    """Point estimate, overall std, standard error, and estimator label."""
    m = values.size
    std = float(np.std(values, ddof=1))
    if estimator == "mean":
        return float(np.mean(values)), std, std / math.sqrt(m), "mean"
    blocks = min(mom_blocks, m)
    block_means = np.array([float(np.mean(b)) for b in np.array_split(values, blocks)])
    estimate = float(np.median(block_means))
    # Asymptotic standard error of a median of iid block means.
    se = math.sqrt(math.pi / (2.0 * blocks)) * float(np.std(block_means, ddof=1))
    return estimate, std, se, f"median_of_means({blocks})"


def _build_report(
    config: ExperimentConfig, values: np.ndarray, wall_time: float
) -> ExperimentReport:
    finite = np.all(np.isfinite(values), axis=1)
    retained = values[finite]
    discarded = int(values.shape[0] - retained.shape[0])
    if retained.shape[0] == 0:
        raise RuntimeError("all trials were discarded (coincident points in every draw)")
    if retained.shape[0] < 2:
        raise RuntimeError("fewer than 2 trials retained; the standard error is undefined")
    results = []
    for col, (spec, exact) in enumerate(zip(config.energies, config.exact_values)):
        estimator = _estimator_for(config, spec)
        estimate, std, se, label = _aggregate_column(
            retained[:, col], estimator, _MOM_BLOCKS
        )
        if exact is None:
            z = None
        elif se > 0.0:
            z = (estimate - exact) / se
        elif estimate == exact:
            z = 0.0
        else:
            raise RuntimeError(
                f"{spec.kind}: zero variance across trials but the estimate "
                "differs from the closed form"
            )
        results.append(
            EnergyResult(
                kind=spec.kind,
                s=spec.s,
                estimator=label,
                sample_mean=estimate,
                sample_std=std,
                standard_error=se,
                closed_form_exact=exact,
                z_score=z,
            )
        )
    return ExperimentReport(
        d=config.d,
        L=config.L,
        k=config.k,
        trials=config.trials,
        master_seed=config.master_seed,
        results=tuple(results),
        trials_retained=int(retained.shape[0]),
        trials_discarded=discarded,
        wall_time=wall_time,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ExperimentReport:
    """Run all trials, block by block (across processes for plans of more
    than one block), and aggregate by trial index. ``workers`` is the most
    processes to use; it defaults to the number of CPUs this process may
    use."""
    start = time.perf_counter()
    if workers is None:
        workers = _usable_cpus()
    elif not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    trials, size = config.trials, _trials_per_block(config.params.r)
    blocks = [(a, min(a + size, trials)) for a in range(0, trials, size)]
    workers = min(workers, len(blocks))
    if workers <= 1:
        parts = [_block_values(config, a, b) for a, b in blocks]
    else:
        with multiprocessing.get_context().Pool(processes=workers) as pool:
            parts = pool.starmap(partial(_block_values, config), blocks, chunksize=1)
    values = np.vstack(parts)
    return _build_report(config, values, time.perf_counter() - start)
