"""Command-line surface: sample, lift, energy, expected, constants, validate, figure1.

Every command is deterministic given its flags; seeds may also come from the
PENSEMBLE_SEED environment variable. Structured results go to stdout as JSON
(shortest round-trip floats); timing and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from .closed_forms import (
    bound_constants,
    expected_green_energy,
    expected_projective_log,
    expected_projective_riesz,
    expected_sphere_2energy_exact,
)
from .energy import (
    green_energy,
    log_energy,
    projective_log_energy,
    projective_riesz_energy,
    riesz_energy,
)
from .lift import lift_to_sphere, realify
from .montecarlo import ExperimentConfig, default_energy_specs, run_experiment
from .pointset import (
    SPACE_PROJECTIVE,
    SPACE_SPHERE,
    PointSetFile,
    dumps,
    format_float,
    pointset_to_json,
    read_pointset,
)
from .sampler import KernelParams, SamplerConfig, _check_seed, sample_projective_ensemble

SEED_ENV_VAR = "PENSEMBLE_SEED"


def _resolve_seed(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            raise ValueError(f"a seed is required: pass --seed or set {SEED_ENV_VAR}")
        value = int(env)
    return _check_seed(value)


def _read_space(path: str, space: str, command: str) -> PointSetFile:
    """Read a point-set file whose rows must live in ``space``.

    The rows of an "S" file come in fibers of projectively equal points, so
    a projective energy of them is always infinite and a lift of them is no
    lift of a projective sample. The rows of a "CP" file carry an arbitrary
    phase each, which a Euclidean energy of them would depend on.
    """
    ps = read_pointset(path)
    if ps.space != space:
        name = "projective" if space == SPACE_PROJECTIVE else "sphere"
        raise ValueError(f"{command} expects a {name} ({space!r}) point-set file")
    return ps


def _check_flags(args: argparse.Namespace, option: str, owners: dict) -> None:
    """A flag in ``owners`` is required for the values of ``--option`` that
    own it and refused for the rest: a record never echoes an unused value."""
    value = getattr(args, option)
    for flag, owned_by in owners.items():
        if (getattr(args, flag) is None) == (value in owned_by):
            verb = "is required for" if value in owned_by else "does not apply to"
            raise ValueError(f"--{flag} {verb} --{option} {value}")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_sample(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    params = KernelParams(args.d, args.L)
    sample = sample_projective_ensemble(SamplerConfig(params=params, seed=seed))
    ps = PointSetFile(
        space=SPACE_PROJECTIVE, d=args.d, seed=seed, points=sample.matrix, L=args.L
    )
    _write_text(args.out, pointset_to_json(ps))
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    ps = _read_space(args.infile, SPACE_PROJECTIVE, "lift")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    config = lift_to_sphere(ps.points, args.k, rng)
    out = PointSetFile(
        space=SPACE_SPHERE, d=ps.d, seed=seed, points=config.points, k=args.k
    )
    _write_text(args.out, pointset_to_json(out))
    return 0


_ENERGY_KINDS = {
    "riesz": "riesz",
    "log": "log",
    "projective": "projective_riesz",
    "projective-log": "projective_log",
    "green": "green",
}


def cmd_energy(args: argparse.Namespace) -> int:
    _check_flags(args, "kind", {"s": ("riesz", "projective")})
    kind = _ENERGY_KINDS[args.kind]
    s = 0.0 if args.s is None else args.s
    space = SPACE_SPHERE if kind in ("riesz", "log") else SPACE_PROJECTIVE
    ps = _read_space(args.infile, space, f"energy --kind {args.kind}")
    if kind == "riesz":
        value = riesz_energy(realify(ps.points), s)
    elif kind == "log":
        value = log_energy(realify(ps.points))
    elif kind == "projective_riesz":
        value = projective_riesz_energy(ps.points, s)
    elif kind == "projective_log":
        value = projective_log_energy(ps.points)
    else:
        value = green_energy(ps.points, ps.d)
    infinite = math.isinf(value)
    doc = {
        "kind": kind,
        "s": s,
        "value": None if infinite else value,
        "infinite": infinite,
        "n_points": ps.n,
    }
    sys.stdout.write(dumps(doc))
    return 0


def cmd_expected(args: argparse.Namespace) -> int:
    _check_flags(args, "which", {"s": ("projective",), "k": ("sphere2",)})
    which = args.which
    if which == "projective":
        result = expected_projective_riesz(args.d, args.L, args.s)
    elif which == "projective-log":
        result = expected_projective_log(args.d, args.L)
    elif which == "sphere2":
        result = expected_sphere_2energy_exact(args.d, args.L, args.k)
    else:  # green
        result = expected_green_energy(args.d, args.L)
    doc = {"which": which, "d": args.d, "L": args.L, "s": args.s, "k": args.k}
    doc.update(result.to_dict())
    sys.stdout.write(dumps(doc))
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    sys.stdout.write(dumps(bound_constants(args.d).to_dict()))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.z_max) and args.z_max >= 0):
        raise ValueError(f"--z-max must be a finite number >= 0, got {args.z_max}")
    seed = _resolve_seed(args.seed)
    config = ExperimentConfig(
        d=args.d,
        L=args.L,
        k=args.k,
        energies=default_energy_specs(args.d, args.k),
        trials=args.trials,
        master_seed=seed,
    )
    report = run_experiment(config, workers=args.threads)
    passed = report.max_abs_z() <= args.z_max
    doc = report.to_dict()
    doc["z_max"] = args.z_max
    doc["all_within_threshold"] = passed
    sys.stdout.write(dumps(doc))
    print(f"wall time: {report.wall_time:.3f} s", file=sys.stderr)
    return 0 if passed else 1


def cmd_figure1(args: argparse.Namespace) -> int:
    if args.d_max < 1:
        raise ValueError("d_max must be >= 1")
    lines = ["d,projective_bound,harmonic_bound"]
    for d in range(1, args.d_max + 1):
        consts = bound_constants(d)
        lines.append(
            f"{d},{format_float(consts.projective_bound)},{format_float(consts.harmonic_bound)}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pensemble",
        description="Sample a repulsive point process on CP^d, lift to odd spheres, "
        "and validate energies against exact expectations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a projective point set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("lift", help="lift a projective point set to the sphere")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("energy", help="compute a discrete energy of a point-set file")
    p.add_argument("--kind", choices=sorted(_ENERGY_KINDS), required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("expected", help="evaluate an exact expected energy")
    p.add_argument(
        "--which", choices=["projective", "projective-log", "sphere2", "green"],
        required=True,
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("constants", help="second-order energy bound constants")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("validate", help="Monte Carlo comparison against closed forms")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--threads", type=int, default=None,
        help="most worker processes (default: the CPUs this process may use);"
        " small plans run in-process",
    )
    p.add_argument("--z-max", type=float, default=4.0, help="acceptance threshold on |z|")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figure1", help="emit bound-constant comparison data as CSV")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
