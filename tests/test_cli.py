import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pensemble.cli import main as cli_main
from pensemble.pointset import read_pointset


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("PENSEMBLE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pensemble", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
        text=False,
    )


def test_expected_projective_riesz_value():
    res = run_cli("expected", "--which", "projective", "--d", "2", "--L", "1", "--s", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["exact"] == 9.0
    assert doc["leading_term"] == 18.0


def test_expected_projective_log_value():
    res = run_cli("expected", "--which", "projective-log", "--d", "2", "--L", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["exact"] == pytest.approx(1.0, rel=1e-12)


def test_expected_sphere2_value():
    res = run_cli(
        "expected", "--which", "sphere2", "--d", "1", "--L", "1", "--k", "2"
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["exact"] == pytest.approx(19.0 / 3.0, rel=1e-12)
    assert doc["fiber_term"] == pytest.approx(1.0)


def test_expected_green_value():
    res = run_cli("expected", "--which", "green", "--d", "2", "--L", "1")
    assert json.loads(res.stdout)["exact"] == pytest.approx(-1.0 / math.pi**2, rel=1e-12)


def test_expected_requires_s_for_projective():
    res = run_cli("expected", "--which", "projective", "--d", "2", "--L", "1")
    assert res.returncode == 2
    assert b"--s is required" in res.stderr


@pytest.mark.parametrize("which, flags, message", [
    ("projective-log", ["--s", "1"], "--s does not apply to --which projective-log"),
    ("green", ["--s", "3", "--k", "9"], "--s does not apply to --which green"),
    ("green", ["--k", "9"], "--k does not apply to --which green"),
    ("sphere2", ["--k", "2", "--s", "1.5"], "--s does not apply to --which sphere2"),
    ("projective", ["--s", "2", "--k", "3"], "--k does not apply to --which projective"),
    ("projective-log", ["--k", "2"], "--k does not apply to --which projective-log"),
    ("sphere2", [], "--k is required for --which sphere2"),
])
def test_expected_refuses_flags_its_which_does_not_use(capsys, which, flags, message):
    # The record echoes --s and --k, so it must not carry a value it ignored.
    code = cli_main(["expected", "--which", which, "--d", "2", "--L", "1", *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_expected_rejects_out_of_range_s():
    res = run_cli("expected", "--which", "projective", "--d", "1", "--L", "1", "--s", "7")
    assert res.returncode == 2
    assert b"(0, 2)" in res.stderr


def test_constants_values():
    res = run_cli("constants", "--d", "1")
    doc = json.loads(res.stdout)
    assert doc["projective_bound"] == pytest.approx(0.92079, abs=1e-5)
    assert doc["harmonic_bound"] == pytest.approx(0.83203, abs=1e-5)


def test_sample_writes_unit_norm_points(tmp_path):
    out = tmp_path / "cp.json"
    res = run_cli("sample", "--d", "1", "--L", "1", "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    ps = read_pointset(out)
    assert ps.space == "CP" and ps.n == 2 and ps.seed == 7 and ps.L == 1
    assert np.allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-12)


def test_sample_stdout_deterministic():
    a = run_cli("sample", "--d", "2", "--L", "1", "--seed", "11")
    b = run_cli("sample", "--d", "2", "--L", "1", "--seed", "11")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("sample", "--d", "2", "--L", "1", "--seed", "12")
    assert c.stdout != a.stdout


def test_seed_env_var_fallback(tmp_path):
    with_flag = run_cli("sample", "--d", "1", "--L", "2", "--seed", "33")
    with_env = run_cli("sample", "--d", "1", "--L", "2", env_extra={"PENSEMBLE_SEED": "33"})
    assert with_flag.stdout == with_env.stdout
    missing = run_cli("sample", "--d", "1", "--L", "2")
    assert missing.returncode == 2
    assert b"PENSEMBLE_SEED" in missing.stderr


@pytest.mark.parametrize("seed", ["99999999999999999999999", "-1"])
def test_seed_out_of_range_rejected_by_every_command(tmp_path, seed):
    cp = tmp_path / "cp.json"
    cp.write_text('{"space":"CP","d":1,"L":1,"seed":5,"points":[[[1,0],[0,0]],[[0,0],[1,0]]]}')
    sp = tmp_path / "s.json"
    runs = [
        run_cli("sample", "--d", "1", "--L", "1", "--seed", seed),
        run_cli("sample", "--d", "1", "--L", "1", env_extra={"PENSEMBLE_SEED": seed}),
        run_cli("lift", "--k", "2", "--seed", seed, "--in", str(cp), "--out", str(sp)),
        run_cli("validate", "--d", "1", "--L", "1", "--trials", "4", "--seed", seed),
    ]
    for res in runs:
        assert res.returncode == 2
        assert b"error: seed must be an unsigned 64-bit integer" in res.stderr
    assert not sp.exists()


def test_lift_chain(tmp_path):
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    run_cli("sample", "--d", "1", "--L", "1", "--seed", "5", "--out", str(cp))
    res = run_cli("lift", "--k", "3", "--seed", "6", "--in", str(cp), "--out", str(sp))
    assert res.returncode == 0
    ps = read_pointset(sp)
    assert ps.space == "S" and ps.k == 3 and ps.n == 6 and ps.seed == 6
    assert np.allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-12)
    res2 = run_cli("lift", "--k", "3", "--seed", "6", "--in", str(cp), "--out", str(sp))
    assert res2.returncode == 0
    assert read_pointset(sp).points.tolist() == ps.points.tolist()


def test_lift_rejects_sphere_input(tmp_path):
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    run_cli("sample", "--d", "1", "--L", "1", "--seed", "5", "--out", str(cp))
    run_cli("lift", "--k", "2", "--seed", "6", "--in", str(cp), "--out", str(sp))
    res = run_cli("lift", "--k", "2", "--seed", "6", "--in", str(sp), "--out", str(sp))
    assert res.returncode == 2
    assert b"projective" in res.stderr


def test_energy_command_kinds(tmp_path):
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    run_cli("sample", "--d", "2", "--L", "1", "--seed", "9", "--out", str(cp))
    run_cli("lift", "--k", "2", "--seed", "10", "--in", str(cp), "--out", str(sp))

    doc = json.loads(run_cli("energy", "--kind", "projective", "--s", "2", "--in", str(cp)).stdout)
    assert doc["kind"] == "projective_riesz" and doc["n_points"] == 3
    assert doc["infinite"] is False and doc["value"] > 0

    doc = json.loads(run_cli("energy", "--kind", "projective-log", "--in", str(cp)).stdout)
    assert doc["kind"] == "projective_log"

    doc = json.loads(run_cli("energy", "--kind", "green", "--in", str(cp)).stdout)
    assert doc["kind"] == "green" and doc["s"] == 0.0

    doc = json.loads(run_cli("energy", "--kind", "riesz", "--s", "2", "--in", str(sp)).stdout)
    assert doc["n_points"] == 6 and doc["value"] > 0

    doc = json.loads(run_cli("energy", "--kind", "log", "--in", str(sp)).stdout)
    assert doc["kind"] == "log"


def test_energy_riesz_requires_s(tmp_path):
    cp = tmp_path / "cp.json"
    run_cli("sample", "--d", "1", "--L", "1", "--seed", "2", "--out", str(cp))
    res = run_cli("energy", "--kind", "riesz", "--in", str(cp))
    assert res.returncode == 2
    assert b"--s is required" in res.stderr


def _sample_and_lift(tmp_path):
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    assert cli_main(["sample", "--d", "2", "--L", "1", "--seed", "9", "--out", str(cp)]) == 0
    assert cli_main(["lift", "--k", "2", "--seed", "10", "--in", str(cp), "--out", str(sp)]) == 0
    return cp, sp


@pytest.mark.parametrize("kind, s", [("projective-log", "3"), ("green", "5"), ("log", "1.5")])
def test_energy_refuses_s_where_its_kind_takes_none(tmp_path, capsys, kind, s):
    # The record echoes s, so it must not carry a value the kind ignored.
    cp, sp = _sample_and_lift(tmp_path)
    infile = sp if kind == "log" else cp
    code = cli_main(["energy", "--kind", kind, "--s", s, "--in", str(infile)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: --s does not apply to --kind {kind}\n"


def test_energy_refuses_infinite_riesz_s(tmp_path, capsys):
    # Refused before the pair sum, not by the JSON encoder after it.
    _, sp = _sample_and_lift(tmp_path)
    code = cli_main(["energy", "--kind", "riesz", "--s", "inf", "--in", str(sp)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: s must be positive and finite; got inf\n"


def test_energy_green_rejects_d1_file(tmp_path):
    cp = tmp_path / "cp.json"
    run_cli("sample", "--d", "1", "--L", "1", "--seed", "2", "--out", str(cp))
    res = run_cli("energy", "--kind", "green", "--in", str(cp))
    assert res.returncode == 2
    assert b"d >= 2" in res.stderr


def test_energy_flags_coincident_fiber_points(tmp_path):
    # Two points of one fiber (a row and a phase-rotated copy) are
    # projectively coincident; the projective energy must flag them.
    cp = tmp_path / "cp.json"
    run_cli("sample", "--d", "1", "--L", "1", "--seed", "4", "--out", str(cp))
    doc = json.loads(cp.read_text())
    x = doc["points"][0]
    doc["points"].append([[-im, re] for re, im in x])  # i * x
    cp.write_text(json.dumps(doc))
    doc = json.loads(run_cli("energy", "--kind", "projective", "--s", "1", "--in", str(cp)).stdout)
    assert doc["infinite"] is True and doc["value"] is None


@pytest.mark.parametrize(
    "kind", [("projective", "--s", "1"), ("projective-log",), ("green",)], ids=lambda k: k[0]
)
def test_projective_energies_reject_sphere_file(tmp_path, kind):
    # Every row of an S file shares its projective point with its fiber, so
    # a projective energy of it would always be infinite.
    cp = tmp_path / "cp.json"
    sp = tmp_path / "s.json"
    run_cli("sample", "--d", "2", "--L", "1", "--seed", "4", "--out", str(cp))
    run_cli("lift", "--k", "4", "--seed", "5", "--in", str(cp), "--out", str(sp))
    res = run_cli("energy", "--kind", *kind, "--in", str(sp))
    assert res.returncode == 2 and res.stdout == b""
    message = f"error: energy --kind {kind[0]} expects a projective ('CP') point-set file\n"
    assert res.stderr == message.encode()


@pytest.mark.parametrize("kind", [("riesz", "--s", "2"), ("log",)], ids=lambda k: k[0])
def test_euclidean_energies_reject_projective_file(tmp_path, kind):
    # Each row of a CP file carries an arbitrary phase, and a Euclidean
    # energy of the rows would depend on it.
    cp = tmp_path / "cp.json"
    run_cli("sample", "--d", "2", "--L", "1", "--seed", "4", "--out", str(cp))
    res = run_cli("energy", "--kind", *kind, "--in", str(cp))
    assert res.returncode == 2 and res.stdout == b""
    message = f"error: energy --kind {kind[0]} expects a sphere ('S') point-set file\n"
    assert res.stderr == message.encode()


@pytest.mark.parametrize(
    "space, points, message",
    [
        ("CP", [[[1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]], b"[re, im] pair"),
        ("CP", [[1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]], b"[re, im] pair"),
        ("S", [[["NaN", 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]], b"finite"),
        ("CP", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], b"same number of coordinates"),
        ("CP", [[[True, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]], b"[re, im] pair"),
        ("CP", [[["1.0", 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]], b"[re, im] pair"),
        ("S", [[[None, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]], b"[re, im] pair"),
    ],
)
def test_energy_rejects_malformed_point_entries(tmp_path, space, points, message):
    header = {"space": space, "d": 1, "seed": 1, "L" if space == "CP" else "k": 1}
    text = json.dumps({**header, "points": points}).replace('"NaN"', "NaN")
    path = tmp_path / "bad.json"
    path.write_text(text)
    kind = ("projective", "--s", "1") if space == "CP" else ("riesz", "--s", "2")
    res = run_cli("energy", "--kind", *kind, "--in", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: ") and message in res.stderr


_GOOD_CP = {
    "space": "CP", "d": 1, "L": 1, "seed": 1,
    "points": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", b"JSON object"),
        ("[]", b"JSON object"),
        (json.dumps({**_GOOD_CP, "d": [1]}), b"'d' must be an integer"),
        (json.dumps({**_GOOD_CP, "d": True}), b"'d' must be an integer"),
        (json.dumps({**_GOOD_CP, "seed": "7"}), b"'seed' must be an integer"),
        (json.dumps({**_GOOD_CP, "L": 1.5}), b"'L' must be an integer"),
        (json.dumps({**_GOOD_CP, "space": "S", "k": True}), b"'k' must be an integer"),
    ],
    ids=["number", "list", "d-list", "d-true", "seed-string", "L-float", "k-true"],
)
def test_energy_rejects_malformed_header(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = run_cli("energy", "--kind", "projective-log", "--in", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: ") and message in res.stderr


def test_validate_exit_codes_and_determinism():
    args = (
        "validate", "--d", "2", "--L", "1", "--trials", "40",
        "--seed", "3", "--threads", "1", "--z-max", "50",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["all_within_threshold"] is True
    assert doc["trials"] == 40 and doc["z_max"] == 50.0
    assert {e["kind"] for e in doc["energies"]} == {
        "projective_riesz", "projective_log", "green",
    }

    tight = run_cli(
        "validate", "--d", "2", "--L", "1", "--trials", "40",
        "--seed", "3", "--threads", "1", "--z-max", "0.000001",
    )
    assert tight.returncode == 1
    assert json.loads(tight.stdout)["all_within_threshold"] is False


def test_validate_threads_do_not_change_output():
    base = (
        "validate", "--d", "1", "--L", "1", "--k", "2",
        "--trials", "30", "--seed", "8", "--z-max", "50",
    )
    one = run_cli(*base, "--threads", "1")
    two = run_cli(*base, "--threads", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


@pytest.mark.parametrize("flag", [
    ["--threads", "0"],
    ["--threads", "-3"],
    ["--z-max", "nan"],
    ["--z-max", "inf"],
    ["--z-max=-inf"],
    ["--z-max", "-1"],
])
def test_validate_refuses_bad_threads_or_threshold_before_any_trial(monkeypatch, capsys, flag):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("pensemble.montecarlo._block_values", no_trial)
    code = cli_main(["validate", "--d", "2", "--L", "1", "--trials", "40", "--seed", "3", *flag])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["sample", "--d", "2", "--L", "3000", "--seed", "1"],
    ["validate", "--d", "2", "--L", "3000", "--trials", "2", "--seed", "1", "--threads", "1"],
])
def test_plan_too_large_to_allocate_exits_2(capsys, command):
    # r = C(3002, 2) = 4504501: the sampler's r x r complex inverse Cholesky
    # factor would take 295 TiB, past any address space, so numpy refuses
    # the allocation at once. One worker, so no pool starts.
    assert cli_main(command) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate 295. TiB")


def test_figure1_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    res = run_cli("figure1", "--d-max", "5", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,projective_bound,harmonic_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.92079, abs=1e-5)
    assert float(first[2]) == pytest.approx(0.83203, abs=1e-5)


def test_unknown_flag_rejected():
    res = run_cli("sample", "--d", "1", "--L", "1", "--seed", "1", "--bogus")
    assert res.returncode == 2
    res = run_cli("noncommand")
    assert res.returncode == 2
