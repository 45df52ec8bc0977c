"""In-memory spans around calls into pensemble's public layers.

Every span is recorded from benchmark code: either a direct call made by a
workload's replay, or a wrapper patched over a name that ``pensemble.cli``
imported. Nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import pensemble
import pensemble.cli
import pensemble.pointset


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans[self.sid] = (self.name, self.start, end, parent, tr.op)


class Tracer:
    """Spans as (name, start, end, parent index or -1, op id), plus counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Summed self time (span time minus time covered by child spans) per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def root_time(self) -> float:
        return math.fsum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)


def _harmonic(r: int) -> float:
    return math.fsum(1.0 / j for j in range(1, r + 1))


def _count_sample(tr: Tracer, args, sample) -> None:
    # Exact law of the rejection loop: the step with j slots left accepts with
    # probability j/r, so its proposal count is geometric with mean r/j and
    # variance r(r-j)/j^2.
    r = len(sample.proposals_per_step)
    tr.counts["sampler.samples"] += 1
    tr.counts["sampler.points"] += r
    tr.counts["sampler.proposals"] += sum(sample.proposals_per_step)
    tr.counts["sampler.proposals_exact"] += r * _harmonic(r)
    tr.counts["sampler.proposals_var"] += math.fsum(r * (r - j) / j**2 for j in range(1, r + 1))


def _count_lift(tr: Tracer, args, config) -> None:
    tr.counts["lift.points_out"] += config.n


def _count_pairs(tr: Tracer, args, value) -> None:
    n = len(args[0])
    tr.counts["energy.sphere_riesz.pairs"] += n * (n - 1)


def _count_written(tr: Tracer, args, text) -> None:
    tr.counts["pointset.bytes"] += len(text.encode("utf-8"))


def _count_read(tr: Tracer, args, ps) -> None:
    tr.counts["pointset.bytes"] += os.path.getsize(args[0])


# Public function -> (span name, counter). The Euclidean Riesz energy only ever
# runs on lifted sphere points in the workloads, hence its span name.
LAYER_CALLS = {
    "sample_projective_ensemble": ("sampler", _count_sample),
    "lift_to_sphere": ("lift", _count_lift),
    "realify": ("lift", None),
    "projective_riesz_energy": ("energy.projective_riesz", None),
    "projective_log_energy": ("energy.projective_log", None),
    "green_energy": ("energy.green", None),
    "riesz_energy": ("energy.sphere_riesz", _count_pairs),
    "expected_projective_riesz": ("closed_forms", None),
    "expected_projective_log": ("closed_forms", None),
    "expected_green_energy": ("closed_forms", None),
    "expected_sphere_2energy_exact": ("closed_forms", None),
    "pointset_to_json": ("pointset.write", _count_written),
    "read_pointset": ("pointset.read", _count_read),
}


def _wrap(tr: Tracer, fn, name: str, count):
    def traced(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tr, args, result)
        return result

    return traced


def layer_calls(tr: Tracer | None) -> SimpleNamespace:
    """The public layer functions, wrapped in spans when ``tr`` is given."""
    fns = {
        key: getattr(pensemble, key, None) or getattr(pensemble.pointset, key)
        for key in LAYER_CALLS
    }
    if tr is not None:
        fns = {key: _wrap(tr, fn, *LAYER_CALLS[key]) for key, fn in fns.items()}
    return SimpleNamespace(**fns)


class patched_cli:
    """Replace the layer functions ``pensemble.cli`` imported with traced ones."""

    def __init__(self, tr: Tracer) -> None:
        self.calls = layer_calls(tr)
        self.saved: dict = {}

    def __enter__(self) -> None:
        for key in LAYER_CALLS:
            if hasattr(pensemble.cli, key):
                self.saved[key] = getattr(pensemble.cli, key)
                setattr(pensemble.cli, key, getattr(self.calls, key))

    def __exit__(self, *exc) -> None:
        for key, fn in self.saved.items():
            setattr(pensemble.cli, key, fn)
