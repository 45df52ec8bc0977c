"""Acceptance suite: one test (and one printed line) per criterion.

Criteria 3 and 5 carry stated targets (3.5 and +1/(4 pi^2)) that contradict
three independent oracles: the s -> 0 derivative of the exact Riesz
expectation, direct quadrature of the pair intensity, and the sampled mean
itself. Those two tests are kept exactly as stated and marked as strict
expected failures; the companion tests assert the oracle-derived targets
(1.0 and -1/pi^2). See the project notes for the full derivation.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import counting_pools
from oracles import green_phi, quadrature_expected_projective_riesz
from pensemble import (
    EnergySpec,
    KernelParams,
    ExperimentConfig,
    bound_constants,
    expected_projective_log,
    expected_projective_riesz,
    expected_sphere_2energy_exact,
    expected_green_energy,
    run_experiment,
)
from pensemble.cli import main as cli_main
from pensemble.montecarlo import _BLOCK_PAIRS
from pensemble.sampler import _lockstep_points, _trial_rngs

SEED = 20_250_811
WORKERS = os.cpu_count() or 1
Z_MAX = 4.0


def announce(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status} ({detail})")


def result_by_kind(report, kind):
    return next(res for res in report.results if res.kind == kind)


def z_against(report, kind, target):
    res = result_by_kind(report, kind)
    return (res.sample_mean - target) / res.standard_error, res


@pytest.fixture(scope="module")
def projective_report():
    config = ExperimentConfig(
        d=2,
        L=1,
        k=0,
        energies=(
            EnergySpec("projective_riesz", 2.0),
            EnergySpec("projective_log"),
            EnergySpec("green"),
        ),
        trials=20_000,
        master_seed=SEED,
    )
    return run_experiment(config, workers=WORKERS)


@pytest.fixture(scope="module")
def lifted_report():
    config = ExperimentConfig(
        d=1,
        L=1,
        k=2,
        energies=(EnergySpec("sphere_riesz", 2.0),),
        trials=100_000,
        master_seed=SEED + 1,
    )
    return run_experiment(config, workers=WORKERS)


def test_criterion_1_quadrature_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        for L in (1, 2, 4, 8):
            for s in (d / 2.0, float(d), 1.5 * d):
                exact = expected_projective_riesz(d, L, s).exact
                oracle = quadrature_expected_projective_riesz(d, L, s)
                worst = max(worst, abs(oracle - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    announce(1, "closed form vs quadrature oracle", ok,
             f"worst rel diff {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_projective_riesz_sampler_mean(projective_report):
    z, res = z_against(projective_report, "projective_riesz", 9.0)
    assert expected_projective_riesz(2, 1, 2.0).exact == 9.0
    ok = abs(z) <= Z_MAX
    announce(2, "sampler mean of the sin-distance 2-energy vs 9", ok,
             f"mean {res.sample_mean:.4f}, z {z:+.2f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated target 3.5 contradicts the derivative/quadrature oracles "
    "and the sampled mean (all give 1.0); kept as specified, expected red",
)
def test_criterion_3_log_energy_sampler_mean_as_stated(projective_report):
    z, res = z_against(projective_report, "projective_log", 3.5)
    announce(3, "sampler mean of the log energy vs stated 3.5", abs(z) <= Z_MAX,
             f"mean {res.sample_mean:.4f}, z {z:+.1f}")
    assert abs(z) <= Z_MAX


def test_criterion_3_log_energy_sampler_mean_oracle_corrected(projective_report):
    # Oracle: central difference of the exact Riesz expectation at s = 0.
    r = 3.0

    def riesz_exact(s):
        from pensemble import beta

        return 2.0 / (2.0 - s / 2.0) * r * r - r * r * 2.0 * beta(2.0 - s / 2.0, 2)

    h = 1e-6
    oracle = (riesz_exact(h) - riesz_exact(-h)) / (2.0 * h)
    assert oracle == pytest.approx(1.0, rel=1e-6)
    assert expected_projective_log(2, 1).exact == pytest.approx(1.0, rel=1e-12)
    z, res = z_against(projective_report, "projective_log", 1.0)
    ok = abs(z) <= Z_MAX
    announce(3, "sampler mean of the log energy vs oracle-corrected 1.0", ok,
             f"mean {res.sample_mean:.4f}, z {z:+.2f}")
    assert ok


def test_criterion_4_lifted_sphere_two_energy(lifted_report):
    assert expected_sphere_2energy_exact(1, 1, 2).exact == pytest.approx(19.0 / 3.0)
    z, res = z_against(lifted_report, "sphere_riesz", 19.0 / 3.0)
    ok = abs(z) <= Z_MAX
    announce(4, "lifted 4-point 2-energy vs 19/3", ok,
             f"mean {res.sample_mean:.4f}, z {z:+.2f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated target +1/(4 pi^2) inherits the log-energy sign defect; "
    "quadrature of the pair intensity against the Green kernel and the "
    "sampled mean both give -1/pi^2; kept as specified, expected red",
)
def test_criterion_5_green_energy_sampler_mean_as_stated(projective_report):
    target = 1.0 / (4.0 * math.pi**2)
    z, res = z_against(projective_report, "green", target)
    announce(5, "sampler mean of the Green energy vs stated +1/(4 pi^2)",
             abs(z) <= Z_MAX, f"mean {res.sample_mean:.5f}, z {z:+.1f}")
    assert abs(z) <= Z_MAX


def test_criterion_5_green_energy_sampler_mean_oracle_corrected(projective_report):
    # Oracle: r^2 d int_0^1 (1-(1-u)^L) phi(sqrt(u)) u^(d-1) du at d=2, L=1.
    val, _ = integrate.quad(
        lambda u: -math.expm1(math.log1p(-u)) * float(green_phi(2, math.sqrt(u))) * u,
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=300,
    )
    oracle = 9.0 * 2.0 * val
    target = -1.0 / math.pi**2
    assert oracle == pytest.approx(target, rel=1e-10)
    assert expected_green_energy(2, 1).exact == pytest.approx(target, rel=1e-12)
    z, res = z_against(projective_report, "green", target)
    ok = abs(z) <= Z_MAX
    announce(5, "sampler mean of the Green energy vs oracle-corrected -1/pi^2",
             ok, f"mean {res.sample_mean:.5f}, z {z:+.2f}")
    assert ok


def test_criterion_5_green_zero_mean_quadrature():
    worst = 0.0
    for d in (2, 3):
        val, _ = integrate.quad(
            lambda u: float(green_phi(d, math.sqrt(u))) * u ** (d - 1),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        worst = max(worst, abs(math.pi**d / math.gamma(d) * val))
    ok = worst <= 1e-8
    announce(5, "Green function zero mean by quadrature", ok, f"worst |mean| {worst:.2e}")
    assert ok


def test_criterion_6_fiber_identity():
    worst = 0.0
    for k in range(2, 65):
        total = math.fsum(
            1.0 / (4.0 * math.sin(math.pi * min(m, k - m) / k) ** 2)
            for m in range(1, k)
        )
        worst = max(worst, abs(total - (k * k - 1.0) / 12.0))
    ok = worst <= 1e-12
    announce(6, "roots-of-unity fiber identity k=2..64", ok, f"worst abs err {worst:.2e}")
    assert ok


def test_criterion_7_constants_and_figure1():
    bc1 = bound_constants(1)
    # Exact d=1 expressions; these print as 0.92079... and 0.83203... (the
    # 0.92081 sometimes quoted for the first is a mis-rounding of the same
    # expression).
    exact_pb = 3.0 ** (4.0 / 3.0) * math.pi ** (2.0 / 3.0) / 2.0 ** (10.0 / 3.0)
    exact_hb = 2.0 ** (1.0 / 3.0) * 6.0 ** (2.0 / 3.0) / 5.0
    ok_values = (
        abs(bc1.projective_bound - exact_pb) <= 1e-5
        and abs(bc1.harmonic_bound - exact_hb) <= 1e-5
    )
    ordering = all(
        bound_constants(d).projective_bound > bound_constants(d).harmonic_bound
        for d in range(1, 101)
    )
    bc400 = bound_constants(400)
    ok_limits = (
        abs(bc400.projective_bound - 3.0 / (4.0 * math.e)) < 1e-2
        and abs(bc400.harmonic_bound - 2.0 / math.e**2) < 1e-2
    )
    ok = ok_values and ordering and ok_limits
    announce(7, "bound constants, ordering, and d->infinity limits", ok,
             f"d=1 ({bc1.projective_bound:.5f}, {bc1.harmonic_bound:.5f}), "
             f"d=400 ({bc400.projective_bound:.5f}, {bc400.harmonic_bound:.5f})")
    assert ok_values
    assert ordering
    assert ok_limits


def test_criterion_8_one_point_intensity_ks():
    d, L, samples = 2, 2, 10_000
    params = KernelParams(d, L)
    points, _ = _lockstep_points(params, _trial_rngs(SEED + 2, 0, samples))
    pooled = 1.0 - np.abs(points[:, :, 0].ravel()) ** 2
    res = stats.kstest(pooled, lambda x: x**d)
    ok = res.pvalue > 1e-3
    announce(8, "pooled chart radial statistic vs CDF u^d", ok,
             f"KS p-value {res.pvalue:.4f} over {pooled.size} points")
    assert ok


def _run_cli(*args):
    env = os.environ.copy()
    env.pop("PENSEMBLE_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "pensemble", *args], capture_output=True, env=env
    )


def test_criterion_9_cli_determinism(tmp_path, monkeypatch, capsys):
    commands = [
        ("expected", "--which", "projective", "--d", "2", "--L", "1", "--s", "2"),
        ("expected", "--which", "sphere2", "--d", "1", "--L", "2", "--k", "3"),
        ("constants", "--d", "3"),
        ("sample", "--d", "2", "--L", "1", "--seed", "17"),
        ("validate", "--d", "2", "--L", "1", "--trials", "32", "--seed", "4",
         "--threads", "1", "--z-max", "50"),
    ]
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    assert _run_cli("sample", "--d", "2", "--L", "1", "--seed", "2",
                    "--out", str(cp)).returncode == 0
    assert _run_cli("lift", "--k", "2", "--seed", "3", "--in", str(cp),
                    "--out", str(sp)).returncode == 0
    commands.append(("lift", "--k", "2", "--seed", "3", "--in", str(cp),
                     "--out", os.devnull))
    commands.append(("energy", "--kind", "projective", "--s", "2", "--in", str(cp)))
    commands.append(("energy", "--kind", "riesz", "--s", "2", "--in", str(sp)))

    for cmd in commands:
        first = _run_cli(*cmd)
        second = _run_cli(*cmd)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, f"stdout differs for {cmd}"

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert _run_cli("figure1", "--d-max", "12", "--out", str(out_a)).returncode == 0
    assert _run_cli("figure1", "--d-max", "12", "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    # 150 trials at r = 21 make blocks of 74, 74 and 2 trials, and 150 * 21^2
    # pair entries are past the pool's threshold, so 8 workers split them.
    base = ("validate", "--d", "1", "--L", "20", "--k", "2", "--trials", "150",
            "--seed", "21", "--z-max", "50")
    assert 150 * 21**2 >= _BLOCK_PAIRS
    one = _run_cli(*base, "--threads", "1")
    eight = _run_cli(*base, "--threads", "8")
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout
    doc = json.loads(one.stdout)
    assert doc["trials"] == 150
    # The same run in-process shows that a pool starts, and prints the same.
    starts = counting_pools(monkeypatch)
    capsys.readouterr()
    assert cli_main([*base, "--threads", "8"]) == 0
    assert len(starts) == 1
    assert capsys.readouterr().out.encode() == one.stdout
    announce(9, "CLI determinism and worker-count invariance", True,
             f"{len(commands)} commands byte-stable; 1 vs 8 workers identical")
