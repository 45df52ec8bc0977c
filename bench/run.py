"""pensemble benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload mc_small_r --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` times the workload's op in closed loops for ``--seconds`` and
prints the end-to-end metrics. Each loop runs one op at a time; there are
nproc loops, each in its own client process, so the load spans all cores
(``mc_small_r`` runs one loop, as its op's own pool has nproc workers).
``--trace 1`` replays a fixed number of ops through spans around public
layer calls and prints the per-layer metrics. The last stdout line is the
result object; the line before it records the machine, the seed and the
run's own accounting.
The program is imported from ``src/`` next to this directory, never from an
installed copy. Spans and temp files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from multiprocessing import resource_tracker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("mc_small_r", "mc_lift_k", "cli_roundtrip")  # the workloads BENCHMARK.json lists
# Runs by name only: between runs of the same code on a shared host its
# throughput spreads too near the bound to gate a change (see NOTES.md).
MANUAL = ("sample_large_r",)
SETUP_PROBES = 5
Z_MAX = 4.0  # the `validate` default for --z-max


def import_program():
    """Import pensemble from this checkout's ``src/`` or raise ImportError."""
    sys.path.insert(0, SRC)
    import pensemble

    if not os.path.abspath(pensemble.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pensemble resolved to {pensemble.__file__}, not under {SRC}")
    return pensemble


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a reading of how fast the
    (possibly shared) machine runs right now, so gaps between runs can be
    explained."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def tail(latencies: list[float], pct: int) -> tuple[float, float, int]:
    """Nearest-rank latency at ``pct``, lowered until >= 10 ops lie beyond it.

    Returns (value, percentile used, ops beyond it); the maximum, with 0
    beyond, when no percentile above the median qualifies.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(pct, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def setup_probe(workload: str, seed: int, minimal: bool) -> None:
    """Fresh-process set-up: import of the program through the first op."""
    start = time.perf_counter()
    import_program()
    import workloads

    w = workloads.make(workload, seed, os.path.join(OUT, "tmp"), minimal)
    ok = w.check(w.op(0))
    print(json.dumps({"setup_s": time.perf_counter() - start, "ok": ok}))


def measure_setup(w, seed: int) -> list[float]:
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", w.name, "--seed", str(seed)]
    if w.minimal:
        argv.append("--minimal")
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["ok"]:
            raise RuntimeError("set-up probe's first op failed its check")
        values.append(doc["setup_s"])
    return values


def closed_loop(w, client: int, clients: int, start: float, deadline: float) -> dict:
    """One client's timed phase: ops one at a time, each after the previous
    returns, from ``start`` until the first op that ends past ``deadline``.
    Client c runs inputs c+1, c+1+clients, ... so the clients share none."""
    while time.perf_counter() < start:
        pass
    latencies, kept, failed = [], [], 0
    i = 1 + client
    while True:
        t0 = time.perf_counter()
        res = w.op(i)
        end = time.perf_counter()
        latencies.append(end - t0)
        failed += not w.check(res)
        kept.append(res if hasattr(w, "pooled_z") else None)
        i += clients
        if end >= deadline:
            return {"latencies": latencies, "failed": failed, "kept": kept, "end": end}


def client_main(name: str, seed: int, minimal: bool, client: int, clients: int, pipe) -> None:
    """A client process: build and warm the workload, report ready, receive
    the shared start and deadline, run the closed loop, send its results."""
    import_program()
    import workloads

    w = workloads.make(name, seed, os.path.join(OUT, "tmp", f"client{client}"), minimal)
    w.op(0)
    pipe.send("ready")
    start, deadline = pipe.recv()
    pipe.send(closed_loop(w, client, clients, start, deadline))
    pipe.close()


def timed_phase(w, seed: int, seconds: float) -> tuple[list[dict], float]:
    """Run w.clients closed loops at once for ``seconds``; returns the
    clients' results and the start time they shared. One client runs in this
    process; more run in their own processes, each on its own inputs."""
    if w.clients == 1:
        start = time.perf_counter()
        return [closed_loop(w, 0, 1, start, start + seconds)], start
    ctx = multiprocessing.get_context("spawn")
    procs, pipes = [], []
    try:
        for c in range(w.clients):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=client_main, args=(w.name, seed, w.minimal, c, w.clients, child))
            proc.start()
            child.close()  # so a client that dies shows here as EOFError
            procs.append(proc)
            pipes.append(parent)
        for pipe in pipes:
            if pipe.recv() != "ready":
                raise RuntimeError("client did not start")
        start = time.perf_counter() + 0.05
        for pipe in pipes:
            pipe.send((start, start + seconds))
        return [pipe.recv() for pipe in pipes], start
    finally:
        for pipe in pipes:  # a client still waiting to start gets EOFError and exits
            pipe.close()
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
        # Starting a spawned process also started multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        resource_tracker._resource_tracker._stop()


def untraced(w, seconds: float, seed: int, probe_setup: bool = True, tamper=None):
    """Timed phase plus the run's checks; end-to-end metrics."""
    first = w.op(0)  # untimed: warms lazy tables and caches
    if tamper is not None:
        first = tamper(first)
    attempted, failed = 1, int(not w.check(first))
    calibration = [calibration_ms()]
    gc.collect()
    loops, start = timed_phase(w, seed, seconds)
    wall = max(loop["end"] for loop in loops) - start
    calibration.append(calibration_ms())
    latencies = [dt for loop in loops for dt in loop["latencies"]]
    attempted += len(latencies)
    failed += sum(loop["failed"] for loop in loops)
    record = {"calibration_ms_before_after": calibration}
    if w.determinism is not None:
        attempted += 1
        same = w.determinism(first)
        failed += not same
        record["deterministic"] = same
    verdict_ok = True
    if hasattr(w, "pooled_z"):
        zs = w.pooled_z([rep for loop in loops for rep in loop["kept"]])
        record["pooled_z"] = zs
        verdict_ok = all(abs(z) <= Z_MAX for z in zs.values())
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups = measure_setup(w, seed) if probe_setup else [0.0]
    tail_s, tail_pct, beyond = tail(latencies, w.tail_pct)
    record.update({
        "clients": w.clients,
        "ops": len(latencies),
        "ops_by_client": [len(loop["latencies"]) for loop in loops],
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_ops_beyond": beyond,
        "fail_ratio": failed / attempted,
        "setup_probes_s": setups,
        "peak_rss_mb_self": rss_self,
        "peak_rss_mb_children": rss_children,
    })
    metrics = {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss_self, rss_children), "MB"),
    }
    return attempted, failed, verdict_ok, metrics, record


def traced(w, seed: int):
    """Replay a fixed number of ops, each traced and untraced; per-layer metrics."""
    from spans import Tracer

    ops = range(1, w.trace_ops + 1)
    w.op(0)
    w.replay(0, None)
    tr = Tracer()
    attempted = failed = 0
    traced_wall = untraced_wall = 0.0
    for i in ops:  # interleaved, so drift on a shared machine hits both sides
        tr.op = i
        t0 = time.perf_counter()
        res = w.replay(i, tr)
        t1 = time.perf_counter()
        w.replay(i, None)
        untraced_wall += time.perf_counter() - t1
        traced_wall += t1 - t0
        failed += not w.check_replay(res)
        attempted += 1

    run_s = efficiency = discarded = 0.0
    if hasattr(w, "pooled_z"):
        nproc = len(os.sched_getaffinity(0))
        reports = []
        for workers in (1, nproc):
            t0 = time.perf_counter()
            reports.append(w.op(1, workers=workers))
            if workers == 1:
                run_s = time.perf_counter() - t0
            else:
                efficiency = run_s / (nproc * (time.perf_counter() - t0))
        discarded = sum(rep.trials_discarded for rep in reports)
        attempted += 2
        failed += sum(not w.check(rep) for rep in reports)

    st = tr.self_times()
    c = tr.counts
    calls = Counter(name for name, *_ in tr.spans)

    def busy(prefix: str) -> float:
        return math.fsum(v for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    prop = c["sampler.proposals"]
    write_s, read_s = busy("pointset.write"), busy("pointset.read")
    projective = busy("energy.projective_riesz") + busy("energy.projective_log") + busy("energy.green")
    metrics = {
        "sampler.busy_s": (busy("sampler"), "s"),
        "sampler.us_per_proposal": (1e6 * ratio(busy("sampler"), prop), "us"),
        "sampler.proposals_per_sample": (ratio(prop, c["sampler.samples"]), "count"),
        "sampler.acceptance_ratio": (ratio(c["sampler.points"], prop), "ratio"),
        "sampler.proposals_z": (
            ratio(prop - c["sampler.proposals_exact"], math.sqrt(c["sampler.proposals_var"])), "z"),
        "lift.busy_s": (busy("lift"), "s"),
        "lift.points_out": (c["lift.points_out"], "count"),
        "energy.projective_riesz.busy_s": (busy("energy.projective_riesz"), "s"),
        "energy.projective_log.busy_s": (busy("energy.projective_log"), "s"),
        "energy.green.busy_s": (busy("energy.green"), "s"),
        "energy.sphere_riesz.busy_s": (busy("energy.sphere_riesz"), "s"),
        "energy.ns_per_pair": (1e9 * ratio(busy("energy.sphere_riesz"), c["energy.sphere_riesz.pairs"]), "ns"),
        "energy.calls": (sum(v for k, v in calls.items() if k.startswith("energy.")), "count"),
        "closed_forms.busy_s": (busy("closed_forms"), "s"),
        "closed_forms.calls": (calls.get("closed_forms", 0), "count"),
        "montecarlo.run_s": (run_s, "s"),
        "montecarlo.parallel_efficiency": (efficiency, "ratio"),
        "montecarlo.trials_discarded": (discarded, "count"),
        "pointset.write_busy_s": (write_s, "s"),
        "pointset.read_busy_s": (read_s, "s"),
        "pointset.bytes": (c["pointset.bytes"], "B"),
        "pointset.mb_per_s": (ratio(c["pointset.bytes"] / 1e6, write_s + read_s), "MB/s"),
        "cli.sample.busy_s": (busy("cli.sample"), "s"),
        "cli.lift.busy_s": (busy("cli.lift"), "s"),
        "cli.energy.busy_s": (busy("cli.energy"), "s"),
        "cli.expected.busy_s": (busy("cli.expected"), "s"),
        "sampler.share": (busy("sampler") / traced_wall, "ratio"),
        "lift.share": (busy("lift") / traced_wall, "ratio"),
        "energy.projective.share": (projective / traced_wall, "ratio"),
        "energy.sphere_riesz.share": (busy("energy.sphere_riesz") / traced_wall, "ratio"),
        "closed_forms.share": (busy("closed_forms") / traced_wall, "ratio"),
        "pointset.share": ((write_s + read_s) / traced_wall, "ratio"),
        "cli.share": (busy("cli") / traced_wall, "ratio"),
        "trace.coverage": (tr.root_time() / traced_wall, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    path = os.path.join(OUT, f"trace-{w.name}-{seed}.json")
    tr.write(path)
    record = {
        "traced_ops": len(ops),
        "spans": len(tr.spans),
        "spans_file": os.path.relpath(path, ROOT),
        "sampler.proposals_per_sample_exact": ratio(c["sampler.proposals_exact"], c["sampler.samples"]),
        "sampler.acceptance_ratio_exact": ratio(c["sampler.points"], c["sampler.proposals_exact"]),
        "replay_note": "replay draws use SamplerConfig seeds, not derive_trial_rng streams"
        if hasattr(w, "pooled_z") else None,
        "fail_ratio": failed / attempted,
    }
    return attempted, failed, True, metrics, record


def result_line(attempted, failed, verdict_ok, metrics) -> dict:
    return {
        "correct": failed == 0 and verdict_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines:
            print(f"{name}: {line}")
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + MANUAL + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--minimal", action="store_true", help=argparse.SUPPRESS)  # self-test size
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.minimal)
            return 0
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 1
    import workloads

    w = workloads.make(args.workload, args.seed, os.path.join(OUT, "tmp"), args.minimal)
    if args.trace:
        attempted, failed, verdict_ok, metrics, record = traced(w, args.seed)
    else:
        attempted, failed, verdict_ok, metrics, record = untraced(w, args.seconds, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **machine_record(), **record}
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(attempted, failed, verdict_ok, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
