"""The benchmark's workloads: inputs from a seed, one op, its checks, its replay.

Each workload loads one layer heavily and another lightly (see NOTES.md for
the reasons and the measured shares). ``op`` is what a user runs and what the
untraced run times; ``replay`` drives the same work through public layer
calls so the traced run can attribute time to layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from pensemble import (
    ExperimentConfig,
    KernelParams,
    SamplerConfig,
    default_energy_specs,
    run_experiment,
    sample_projective_ensemble,
)
from pensemble.cli import main as cli_main

from spans import layer_calls, patched_cli

def derive_seed(*keys: int) -> int:
    """A 64-bit seed fully determined by the workload seed and op/trial indices."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)[0])


def _span(tr, name: str):
    return tr.span(name) if tr is not None else contextlib.nullcontext()


class McWorkload:
    """One op is one `validate`-style `run_experiment` call of fixed trial count."""

    def __init__(self, seed, *, d, L, k, trials, workers, tail_pct, trace_ops):
        self.seed, self.d, self.L, self.k = seed, d, L, k
        self.trials, self.workers = trials, workers
        self.tail_pct, self.trace_ops = tail_pct, trace_ops
        self.specs = default_energy_specs(d, k)
        self.params = KernelParams(d, L)

    def config(self, i: int) -> ExperimentConfig:
        return ExperimentConfig(
            d=self.d, L=self.L, k=self.k, energies=self.specs,
            trials=self.trials, master_seed=derive_seed(self.seed, i),
        )

    def op(self, i: int, workers: int | None = None):
        return run_experiment(self.config(i), workers=workers or self.workers)

    def check(self, report) -> bool:
        # Trials with a non-finite energy are dropped and counted by the
        # harness, so a discarded trial is a non-finite energy.
        values = [(res.sample_mean, res.standard_error) for res in report.results]
        return report.trials_discarded == 0 and bool(np.all(np.isfinite(values)))

    def determinism(self, first) -> bool:
        other = 1 if self.workers > 1 else nproc()
        return json.dumps(first.to_dict()) == json.dumps(self.op(0, workers=other).to_dict())

    def pooled_z(self, reports) -> dict[str, float]:
        """z score of the mean pooled over every op's trials, per energy.

        One verdict per run instead of one per op: at |z| <= 4 a single test
        fails spuriously with probability ~6e-5, which over the thousands
        of ops in a campaign of runs would count correct runs as failed.
        """
        out = {}
        for col, spec in enumerate(self.specs):
            rows = [rep.results[col] for rep in reports]
            if any(res.estimator != "mean" for res in rows):
                continue
            n = np.array([rep.trials_retained for rep in reports], dtype=float)
            means = np.array([res.sample_mean for res in rows])
            stds = np.array([res.sample_std for res in rows])
            total = n.sum()
            mean = float(np.dot(n, means) / total)
            var = (np.dot(n - 1, stds**2) + np.dot(n, (means - mean) ** 2)) / (total - 1)
            out[spec.label()] = (mean - rows[0].closed_form_exact) / math.sqrt(var / total)
        return out

    def replay(self, i: int, tr):
        """The op's trials through public calls: sample, lift, energies, closed forms.

        Draws use ``SamplerConfig`` seeds, not ``derive_trial_rng`` streams:
        same law, different draws than ``op``.
        """
        calls = layer_calls(tr)
        op_seed = derive_seed(self.seed, i)
        rows = []
        for t in range(self.trials):
            seed = derive_seed(op_seed, t)
            sample = calls.sample_projective_ensemble(SamplerConfig(self.params, seed))
            points = sample.points
            lifted = None
            if self.k:
                rng = np.random.default_rng([seed, 1])
                lifted = calls.realify(calls.lift_to_sphere(sample, self.k, rng))
            row = []
            for spec in self.specs:
                if spec.kind == "projective_riesz":
                    row.append(calls.projective_riesz_energy(points, spec.s))
                elif spec.kind == "projective_log":
                    row.append(calls.projective_log_energy(points))
                elif spec.kind == "green":
                    row.append(calls.green_energy(points, self.d))
                else:
                    row.append(calls.riesz_energy(lifted, spec.s))
            rows.append(row)
        for spec in self.specs:
            if spec.kind == "projective_riesz":
                calls.expected_projective_riesz(self.d, self.L, spec.s)
            elif spec.kind == "projective_log":
                calls.expected_projective_log(self.d, self.L)
            elif spec.kind == "green":
                calls.expected_green_energy(self.d, self.L)
            else:
                calls.expected_sphere_2energy_exact(self.d, self.L, self.k)
        return rows

    def check_replay(self, rows) -> bool:
        return bool(np.all(np.isfinite(rows)))


class SampleWorkload:
    """One op is one exact sample, single process."""

    def __init__(self, seed, *, d, L, tail_pct, trace_ops):
        self.seed, self.tail_pct, self.trace_ops = seed, tail_pct, trace_ops
        self.params = KernelParams(d, L)

    def op(self, i: int):
        return sample_projective_ensemble(SamplerConfig(self.params, derive_seed(self.seed, i)))

    def check(self, sample) -> bool:
        r, d = self.params.r, self.params.d
        m = sample.matrix
        return (
            len(sample.proposals_per_step) == r
            and m.shape == (r, d + 1)
            and float(np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0))) <= 1e-12
        )

    determinism = None

    def replay(self, i: int, tr):
        config = SamplerConfig(self.params, derive_seed(self.seed, i))
        return layer_calls(tr).sample_projective_ensemble(config)

    check_replay = check


class CliWorkload:
    """One op is one in-process pass of `pensemble` commands in a temp dir."""

    def __init__(self, seed, *, d, L, k, tail_pct, trace_ops, workdir):
        self.seed, self.d, self.L, self.k = seed, d, L, k
        self.tail_pct, self.trace_ops = tail_pct, trace_ops
        self.workdir = workdir

    def _commands(self, i: int, tmp: str):
        cp, s = os.path.join(tmp, "cp.json"), os.path.join(tmp, "s.json")
        d, L, k = str(self.d), str(self.L), str(self.k)
        return [
            ("sample", ["sample", "--d", d, "--L", L, "--seed", str(derive_seed(self.seed, i, 0)), "--out", cp]),
            ("lift", ["lift", "--k", k, "--seed", str(derive_seed(self.seed, i, 1)), "--in", cp, "--out", s]),
            ("energy", ["energy", "--kind", "projective", "--s", "2", "--in", cp]),
            ("energy", ["energy", "--kind", "riesz", "--s", "2", "--in", s]),
            ("expected", ["expected", "--which", "sphere2", "--d", d, "--L", L, "--k", k]),
        ]

    def op(self, i: int, tr=None):
        """Exit codes and the concatenated stdout of the pass."""
        os.makedirs(self.workdir, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=self.workdir)
        out, err = io.StringIO(), io.StringIO()
        codes = []
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for name, argv in self._commands(i, tmp):
                    with _span(tr, f"cli.{name}"):
                        codes.append(cli_main(argv))
        finally:
            shutil.rmtree(tmp)
        return codes, out.getvalue()

    def check(self, result) -> bool:
        return all(code == 0 for code in result[0])

    def determinism(self, first) -> bool:
        return self.op(0)[1] == first[1]

    def replay(self, i: int, tr):
        if tr is None:
            return self.op(i)
        with patched_cli(tr):
            return self.op(i, tr)

    check_replay = check


def make(name: str, seed: int, workdir: str, minimal: bool = False):
    """Build a workload at benchmark size, or at the smallest size that still
    runs every code path (for the self-test)."""
    w = _build(name, seed, workdir, minimal)
    w.name, w.minimal = name, minimal
    # Closed-loop clients in the untraced run: nproc, so every workload keeps
    # all cores busy, except mc_small_r, whose own pool already has nproc workers.
    w.clients = 1 if name == "mc_small_r" else nproc()
    return w


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _build(name, seed, workdir, minimal):
    if name == "mc_small_r":
        return McWorkload(seed, d=2, L=1, k=0, trials=8 if minimal else 500,
                          workers=nproc(), tail_pct=75, trace_ops=1 if minimal else 8)
    if name == "mc_lift_k":
        return McWorkload(seed, d=2, L=2, k=4 if minimal else 128, trials=4 if minimal else 32,
                          workers=1, tail_pct=75, trace_ops=1 if minimal else 6)
    if name == "sample_large_r":
        return SampleWorkload(seed, d=2, L=3 if minimal else 14,
                              tail_pct=75, trace_ops=1 if minimal else 8)
    if name == "cli_roundtrip":
        return CliWorkload(seed, d=2, L=1 if minimal else 5, k=2 if minimal else 64,
                           tail_pct=90, trace_ops=1 if minimal else 30, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")
