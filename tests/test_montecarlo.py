import csv
import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest

from helpers import counting_pools
from pensemble import (
    EnergySpec,
    ExperimentConfig,
    KernelParams,
    SphereConfiguration,
    bound_constants,
    default_energy_specs,
    derive_trial_rng,
    expected_projective_riesz,
    green_energy,
    lift_to_sphere,
    projective_log_energy,
    projective_riesz_energy,
    realify,
    riesz_energy,
    run_experiment,
)
from pensemble.cli import main as cli_main
from pensemble.montecarlo import (
    _aggregate_column,
    _block_values,
    _build_report,
    _trials_per_block,
)
from pensemble.pointset import dumps
from pensemble.sampler import _lockstep_points, _sample_points


def _config(**overrides):
    base = dict(
        d=2,
        L=1,
        k=0,
        energies=(EnergySpec("projective_riesz", 2.0),),
        trials=16,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -------------------------------------------------------------- configuration

def test_config_validation():
    # The per-energy rules are in test_config_rejects_bad_plan_at_construction.
    with pytest.raises(ValueError):
        _config(trials=1)
    with pytest.raises(ValueError):
        _config(energies=())
    with pytest.raises(ValueError):
        EnergySpec("unknown_kind")
    for kind in ("projective_log", "green"):
        with pytest.raises(ValueError, match="takes no s"):
            EnergySpec(kind, 3.0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(master_seed=-1),
        dict(master_seed=2**64),
        dict(master_seed=1.5),
        dict(d=2.5),
        dict(energies=(EnergySpec("projective_riesz", 5.0),)),  # s >= 2d at d = 2
        dict(d=1, energies=(EnergySpec("green"),)),
        dict(energies=(EnergySpec("sphere_riesz", 2.0),), k=0),
        dict(energies=(EnergySpec("sphere_riesz", 1.0),), k=0),
        dict(energies=(EnergySpec("sphere_riesz", -1.0),), k=2),
        dict(energies=(EnergySpec("sphere_riesz", math.inf),), k=2),
        dict(L=0),
        dict(k=-1),
        dict(trials=2.5),
    ],
    ids=[
        "seed-negative", "seed-2**64", "seed-float", "d-float", "s-at-2d",
        "green-d1", "sphere2-no-lift", "sphere1-no-lift", "sphere-s-negative",
        "sphere-s-inf", "L0", "k-negative", "trials-float",
    ],
)
def test_config_rejects_bad_plan_at_construction(overrides):
    # Every rule is checked before a single trial can run.
    with pytest.raises(ValueError):
        _config(**overrides)


def test_config_keeps_closed_forms_for_the_report():
    energies = default_energy_specs(2, 2) + (EnergySpec("sphere_riesz", 1.0),)
    config = _config(energies=energies, k=2)
    assert config.exact_values[0] == expected_projective_riesz(2, 1, 2.0).exact
    assert config.exact_values[-1] is None
    values = np.arange(2.0 * len(config.energies)).reshape(2, -1)
    report = _build_report(config, values, 0.0)
    assert [res.closed_form_exact for res in report.results] == list(config.exact_values)


def test_default_energy_specs():
    kinds = [spec.kind for spec in default_energy_specs(2, 0)]
    assert kinds == ["projective_riesz", "projective_log", "green"]
    kinds = [spec.kind for spec in default_energy_specs(1, 2)]
    assert kinds == ["projective_riesz", "projective_log", "sphere_riesz"]
    assert default_energy_specs(1, 0)[0].s == 1.0
    assert default_energy_specs(3, 0)[0].s == 2.0


@pytest.mark.parametrize("d, L, k", [(2, 1, 0), (3, 2, 2), (2, 2, 128)])
def test_trial_values_match_public_energies(d, L, k):
    # The batched block columns must equal the public per-kind energies on
    # the same draw (same derived stream: sample, then lift). A lift adds a
    # sphere Riesz spec at s = 1.5, which stays on the pairwise sum.
    energies = default_energy_specs(d, k)
    if k:
        energies += (EnergySpec("sphere_riesz", 1.5),)
    config = _config(d=d, L=L, k=k, energies=energies, master_seed=41)
    block = _block_values(config, 0, 3)
    for trial, values in enumerate(block):
        rng = derive_trial_rng(config.master_seed, trial)
        points, _ = _sample_points(KernelParams(d, L), rng)
        lifted = realify(lift_to_sphere(points, k, rng)) if k else None
        for value, spec in zip(values, config.energies):
            if spec.kind == "projective_riesz":
                expected = projective_riesz_energy(points, spec.s)
            elif spec.kind == "projective_log":
                expected = projective_log_energy(points)
            elif spec.kind == "green":
                expected = green_energy(points, d)
            else:
                expected = riesz_energy(lifted, spec.s)
            assert value == pytest.approx(expected, rel=1e-12), spec.label()


def _no_configuration(self):
    raise AssertionError("a SphereConfiguration was built")


@pytest.mark.parametrize("s", [2.0, 1.5])
def test_lifted_block_builds_no_sphere_configuration_at_any_s(monkeypatch, s):
    # The 2-energy reads the block's stacked unit rows and (T, r) phases, and
    # the pairwise column lifts each trial's unit rows directly, so no trial
    # is wrapped in a configuration only to be unpacked again. Patching the
    # constructor catches a build under any imported name.
    monkeypatch.setattr(SphereConfiguration, "__post_init__", _no_configuration)
    energies = default_energy_specs(2, 128) + (EnergySpec("sphere_riesz", s),)
    config = _config(L=2, k=128, energies=energies)
    assert np.all(np.isfinite(_block_values(config, 0, 4)))


def test_block_with_a_coincident_trial_discards_only_that_trial(monkeypatch):
    # Trial 5 gets a duplicated row: its row of the block turns +inf, every
    # other row keeps the values of the unpatched block bit for bit.
    config = _config(energies=default_energy_specs(2, 0), trials=12)
    clean = _block_values(config, 0, 12)
    calls = []

    def duplicating(params, rngs):
        points, proposals = _lockstep_points(params, rngs)
        points[5, 1] = points[5, 0]
        calls.append(len(rngs))
        return points, proposals

    monkeypatch.setattr("pensemble.montecarlo._lockstep_points", duplicating)
    values = _block_values(config, 0, 12)
    assert calls == [12]
    assert np.all(np.isinf(values[5]))
    others = np.arange(12) != 5
    assert np.array_equal(values[others], clean[others])
    report = run_experiment(config, workers=1)
    assert report.trials_discarded == 1 and report.trials_retained == 11


# sha256 of the report JSON of `run_experiment(workers=1)`, first 32 hex
# digits: sampling, lift phases, pair passes and aggregation, bit for bit.
# The first projective plan runs one block of 200 trials; the lifted one,
# blocks of 74 and 1 trials, with a sphere Riesz column off s = 2; the second
# projective plan, blocks of 3640 and 1 trials; the last, one block with a
# sphere Riesz column off s = 2 at 8 coordinates per row.
_REPORT_DIGESTS = [
    (2, 1, 0, (), 200, "05ea3abc2b608b8bb3dcd117faec0efd"),
    (1, 20, 2, (EnergySpec("sphere_riesz", 1.5),), _trials_per_block(21) + 1,
     "addc2527ae5734cb1cc80f3d14d88126"),
    (2, 1, 0, (), _trials_per_block(3) + 1, "7f9b17e078420a1b818ea066d58546b8"),
    (7, 1, 3, (EnergySpec("sphere_riesz", 1.5),), 60, "0fa3fc464357e75c70483551d5faca6f"),
]


def _report_digest(d, L, k, extra, trials, master_seed):
    config = ExperimentConfig(
        d=d, L=L, k=k, energies=default_energy_specs(d, k) + extra,
        trials=trials, master_seed=master_seed,
    )
    doc = dumps(run_experiment(config, workers=1).to_dict())
    return hashlib.sha256(doc.encode()).hexdigest()[:32]


@pytest.mark.parametrize("d, L, k, extra, trials, digest", _REPORT_DIGESTS)
def test_seeded_reports_match_committed_digest(d, L, k, extra, trials, digest):
    assert _report_digest(d, L, k, extra, trials, 20261021) == digest


def test_two_word_master_seed_report_matches_committed_digest():
    # Master seed 2^64 - 1 enters the seed hash as two 32-bit words, and the
    # second block, of 1 trial, derives its stream from index 3640.
    digest = _report_digest(2, 1, 0, (), _trials_per_block(3) + 1, 2**64 - 1)
    assert digest == "c82b7d738eebdd7d0c9a470269205037"


# ---------------------------------------------------------------- aggregation

def test_aggregate_mean_column():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    est, std, se, label = _aggregate_column(vals, "mean", 20)
    assert est == 2.5
    assert std == pytest.approx(np.std(vals, ddof=1))
    assert se == pytest.approx(std / 2.0)
    assert label == "mean"


def test_aggregate_median_of_means_column():
    # 4 blocks of 2: block means 1.5, 3.5, 5.5, 1007.5; median = 4.5.
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 2008.0])
    est, _, se, label = _aggregate_column(vals, "median_of_means", 4)
    assert est == pytest.approx(4.5)
    block_means = np.array([1.5, 3.5, 5.5, 1007.5])
    assert se == pytest.approx(
        math.sqrt(math.pi / 8.0) * np.std(block_means, ddof=1)
    )
    assert label == "median_of_means(4)"


def test_estimator_auto_switches_to_median_of_means():
    config = _config(energies=(EnergySpec("projective_riesz", 3.0),), trials=64)
    report = run_experiment(config, workers=1)
    assert report.results[0].estimator == "median_of_means(20)"
    config = _config(trials=64)  # s = 2 <= d stays on the plain mean
    report = run_experiment(config, workers=1)
    assert report.results[0].estimator == "mean"


def test_build_report_discards_nonfinite_rows():
    config = _config(trials=6)
    values = np.array([[1.0], [2.0], [np.inf], [3.0], [np.inf], [4.0]])
    report = _build_report(config, values, 0.0)
    assert report.trials_discarded == 2
    assert report.trials_retained == 4
    assert report.results[0].sample_mean == pytest.approx(2.5)


def test_build_report_all_discarded_raises():
    config = _config(trials=2)
    with pytest.raises(RuntimeError):
        _build_report(config, np.array([[np.inf], [np.inf]]), 0.0)


def test_build_report_single_retained_trial_raises():
    config = _config(trials=3)
    with pytest.raises(RuntimeError, match="standard error"):
        _build_report(config, np.array([[1.0], [np.inf], [np.inf]]), 0.0)


def test_z_score_formula():
    config = _config(trials=4)
    values = np.array([[8.0], [9.0], [10.0], [9.0]])
    report = _build_report(config, values, 0.0)
    res = report.results[0]
    exact = expected_projective_riesz(2, 1, 2.0).exact
    assert res.closed_form_exact == pytest.approx(exact)
    assert res.z_score == pytest.approx((9.0 - exact) / res.standard_error)


# ------------------------------------------------------------------ execution

def test_run_experiment_deterministic_repeat():
    config = _config(trials=2)
    a = run_experiment(config, workers=1)
    b = run_experiment(config, workers=1)
    assert dumps(a.to_dict()) == dumps(b.to_dict())


def test_run_experiment_worker_count_invariance(monkeypatch):
    # Three blocks at r = 21, past 2^15 pair entries, so every pool size
    # below starts a pool and splits the trials.
    starts = counting_pools(monkeypatch)
    config = _config(
        L=5, trials=2 * _trials_per_block(21) + 1, energies=default_energy_specs(2, 0)
    )
    reports = [run_experiment(config, workers=w) for w in (1, 2, 4)]
    assert len(starts) == 2
    docs = [dumps(rep.to_dict()) for rep in reports]
    assert docs[0] == docs[1] == docs[2]


def test_partial_last_block_is_worker_count_invariant(monkeypatch):
    # Two blocks at r = 21, the second holding one trial: the blocks are cut
    # by trial index, so any pool size gives the same report.
    starts = counting_pools(monkeypatch)
    config = _config(
        d=1, L=20, k=2, trials=_trials_per_block(21) + 1,
        energies=default_energy_specs(1, 2) + (EnergySpec("sphere_riesz", 1.5),),
    )
    docs = [run_experiment(config, workers=w).to_dict() for w in (1, 2, 3)]
    assert len(starts) == 2
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize(
    "d, L", [(1, 1), (2, 1), (2, 2), (2, 5), (2, 20)],
    ids=["r=2", "r=3", "r=6", "r=21", "r=231"],
)
def test_small_plan_never_starts_a_pool(monkeypatch, d, L):
    # A plan of one block (at r = 3, 3640 trials, 32760 pair entries) stays
    # in-process at workers=2, and one trial more starts exactly one pool. At
    # r = 231 a block holds one trial, fewer than a plan may have, so only
    # the two-block plan runs.
    starts = counting_pools(monkeypatch)
    size = _trials_per_block(KernelParams(d, L).r)
    for trials, pools in ((size, 0), (size + 1, 1)):
        if trials < 2:
            continue
        config = _config(
            d=d, L=L, energies=(EnergySpec("projective_riesz", 1.0),), trials=trials
        )
        assert run_experiment(config, workers=2).trials_retained == trials
        assert len(starts) == pools


def _no_trial(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("workers", [0, -4, 1.5, "2"])
def test_run_experiment_rejects_bad_worker_count_before_any_trial(monkeypatch, workers):
    monkeypatch.setattr("pensemble.montecarlo._block_values", _no_trial)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_experiment(_config(), workers=workers)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


def test_default_workers_are_the_cpus_this_process_may_use(monkeypatch):
    # One CPU in the affinity set: a default run of a plan that pools at two
    # workers (three blocks at r = 21) stays in-process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    config = _config(L=5, trials=2 * _trials_per_block(21) + 1)
    assert run_experiment(config).to_dict() == run_experiment(config, workers=1).to_dict()


def test_default_workers_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    config = _config(L=5, trials=2 * _trials_per_block(21) + 1)
    assert run_experiment(config).trials_retained == config.trials


@pytest.mark.parametrize("r, size", [(2, 8192), (3, 3640), (21, 74), (120, 2), (231, 1)])
def test_block_size_follows_r(r, size):
    # Up to 2**15 pair entries per block, at least 1 trial.
    assert _trials_per_block(r) == size


def test_run_experiment_end_to_end_statistics():
    config = _config(trials=400, energies=default_energy_specs(2, 0), master_seed=31)
    report = run_experiment(config, workers=2)
    assert report.trials_retained == 400
    assert report.trials_discarded == 0
    for res in report.results:
        assert res.z_score is not None
        assert abs(res.z_score) < 6.0
    assert report.wall_time > 0.0
    assert "wall_time" not in report.to_dict()


def test_run_experiment_with_lift():
    config = ExperimentConfig(
        d=1,
        L=1,
        k=2,
        energies=(EnergySpec("sphere_riesz", 2.0),),
        trials=300,
        master_seed=17,
    )
    report = run_experiment(config, workers=2)
    res = report.results[0]
    assert res.closed_form_exact == pytest.approx(19.0 / 3.0)
    assert abs(res.z_score) < 6.0


def test_sphere_riesz_without_closed_form():
    config = ExperimentConfig(
        d=1,
        L=1,
        k=2,
        energies=(EnergySpec("sphere_riesz", 1.0),),
        trials=8,
        master_seed=3,
    )
    report = run_experiment(config, workers=1)
    assert report.results[0].closed_form_exact is None
    assert report.results[0].z_score is None


# --------------------------------------------------------------- figure1 data

def _figure1_rows(tmp_path, d_max):
    """Rows (d, projective_bound, harmonic_bound) of ``pensemble figure1``."""
    out = tmp_path / "figure1.csv"
    assert cli_main(["figure1", "--d-max", str(d_max), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["d", "projective_bound", "harmonic_bound"]
        return [(int(d), float(pb), float(hb)) for d, pb, hb in reader]


def test_figure1_rows(tmp_path):
    rows = _figure1_rows(tmp_path, 5)
    assert len(rows) == 5
    d1 = rows[0]
    assert d1[0] == 1
    assert d1[1] == pytest.approx(0.92079, abs=1e-5)
    assert d1[2] == pytest.approx(0.83203, abs=1e-5)
    for d, pb, hb in rows:
        assert pb > hb
        bc = bound_constants(d)
        assert pb == bc.projective_bound and hb == bc.harmonic_bound


def test_figure1_columns_approach_limits(tmp_path):
    rows = _figure1_rows(tmp_path, 120)
    pb_gap = [abs(row[1] - 3.0 / (4.0 * math.e)) for row in rows]
    hb_gap = [abs(row[2] - 2.0 / math.e**2) for row in rows]
    for gaps in (pb_gap, hb_gap):
        sampled = [gaps[i] for i in (0, 9, 49, 99, 119)]
        assert sampled == sorted(sampled, reverse=True)


def test_figure1_domain(tmp_path, capsys):
    out = tmp_path / "figure1.csv"
    assert cli_main(["figure1", "--d-max", "0", "--out", str(out)]) == 2
    assert "d_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()
