"""Self-test of the benchmark itself, at minimal workload sizes (about a minute).

    python3 bench/selftest.py

1. Every workload, run through ``run.py`` in both modes, prints exactly the
   metrics BENCHMARK.json names, each with its unit, and passes its checks.
2. Tampered op results (a NaN energy, one changed report or stdout byte, a
   non-unit sample row, a non-zero exit) are counted as failed ops, so the
   correctness checks do fail when they should.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import run

SEED = 7


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for name in run.NAMES + run.MANUAL:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--minimal"],
                capture_output=True, text=True, timeout=170, cwd=run.ROOT,
            )
            if proc.returncode != 0:
                errors.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in doc["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if printed != wanted:
                errors.append(f"{name} trace={trace}: metrics {sorted(set(printed) ^ set(wanted))} "
                              f"or units differ from BENCHMARK.json")
            if not doc["correct"] or doc["failed"]:
                errors.append(f"{name} trace={trace}: untampered run reported a failure")
            print(f"{name} trace={trace}: " + ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                                                        for k, v in doc["metrics"].items()))
    return errors


def _mc_with_mean(report, fn):
    first = report.results[0]
    results = (dataclasses.replace(first, sample_mean=fn(first.sample_mean)),) + report.results[1:]
    return dataclasses.replace(report, results=results)


def _bad_row(sample):
    return SimpleNamespace(matrix=sample.matrix * 1.001, proposals_per_step=sample.proposals_per_step)


# (workload, what is tampered, tamper, expected failed ops). A NaN energy
# fails the op's own check and the determinism comparison of the same report.
TAMPERS = [
    ("mc_small_r", "NaN energy", lambda rep: _mc_with_mean(rep, lambda x: float("nan")), 2),
    ("mc_lift_k", "one report byte", lambda rep: _mc_with_mean(rep, lambda x: x * (1 + 1e-15)), 1),
    ("sample_large_r", "non-unit row", _bad_row, 1),
    ("cli_roundtrip", "non-zero exit", lambda res: (res[0][:-1] + [2], res[1]), 1),
    ("cli_roundtrip", "one stdout byte", lambda res: (res[0], res[1][:-2] + "x\n"), 1),
]


def check_tampering() -> list[str]:
    import workloads

    errors = []
    for name, what, tamper, expected in TAMPERS:
        w = workloads.make(name, SEED, os.path.join(run.OUT, "tmp"), minimal=True)
        attempted, failed, _, _, record = run.untraced(w, 0.2, SEED, probe_setup=False, tamper=tamper)
        print(f"{name}, tampered {what}: {failed} of {attempted} ops failed (fail_ratio {record['fail_ratio']:.3f})")
        if failed != expected:
            errors.append(f"{name}: tampering with {what} gave {failed} failed ops, expected {expected}")
    return errors


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    run.import_program()
    errors = check_metrics(spec) + check_tampering()
    for err in errors:
        print("FAIL:", err, file=sys.stderr)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
