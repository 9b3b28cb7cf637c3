"""In-memory spans around calls into benfold's public functions.

A traced pass installs wrappers from this file on the module attributes
where callers look the functions up, records one span per call (name,
start, end, parent) and restores the originals afterwards.  Nothing inside
`src/benfold` changes.  Spans stay in memory and are reduced to per-layer
totals when the pass ends.

Run as a script, this file is the traced form of `python -m benfold`:

    python -X importtime bench/spans.py table --base 10

It runs the command with the wrappers installed and writes the span summary
to stderr as one line starting with SUMMARY_MARKER.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

SUMMARY_MARKER = "BENCH-SPANS "

# (span name, module that defines the function, function name, modules whose
# attribute callers look up).  `from .x import f` binds f in the importing
# module, so each binding is patched separately.
LAYER_FUNCTIONS = (
    ("density.construct", "benfold.density", "normalized", ("benfold",)),
    ("density.construct", "benfold.density", "const_segment", ("benfold", "benfold.cli")),
    ("density.construct", "benfold.density", "linear_segment", ("benfold", "benfold.cli")),
    ("density.construct", "benfold.density", "exp_segment", ("benfold", "benfold.cli")),
    ("density.construct", "benfold.density", "uniform_log_density", ("benfold", "benfold.cli")),
    ("density.construct", "benfold.density", "triangular_density", ("benfold", "benfold.cli")),
    ("density.scale", "benfold.density", "scale_density", ("benfold", "benfold.oracle")),
    ("density.variation", "benfold.density", "tv_integer_delineated", ("benfold", "benfold.bounds")),
    ("density.variation", "benfold.density", "tv_full_line", ("benfold", "benfold.bounds")),
    ("oracle.delta_numeric", "benfold.oracle", "delta_numeric", ("benfold", "benfold.cli")),
    ("oracle.averaging", "benfold.oracle", "check_averaging_inequality", ("benfold",)),
    ("oracle.averaging", "benfold.oracle", "averaging_residual", ("benfold",)),
    ("bounds.step_density", "benfold.bounds", "bound_step_density", ("benfold", "benfold.cli")),
    ("bounds.tv", "benfold.bounds", "bound_tv_quarter", ("benfold", "benfold.cli")),
    ("bounds.tv", "benfold.bounds", "bound_tv_scaled", ("benfold", "benfold.cli")),
    ("bounds.convex_eighth", "benfold.bounds", "bound_convex_eighth", ("benfold", "benfold.cli")),
    ("bounds.fourier_parseval", "benfold.bounds", "bound_fourier_parseval", ("benfold", "benfold.cli")),
    ("bounds.closed_form", "benfold.bounds", "exact_delta_uniform", ("benfold", "benfold.cli")),
    ("bounds.closed_form", "benfold.bounds", "bound_uniform_log_tv", ("benfold", "benfold.cli")),
    ("bounds.closed_form", "benfold.bounds", "bound_fourier_closed", ("benfold", "benfold.cli")),
)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    size = 1
    for dim in shape:
        size *= dim
    return size


class Recorder:
    """Spans of one traced pass, kept in parallel lists until summarized."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[int] = []
        self.failed: list[bool] = []
        self._stack: list[int] = []
        # totals measured outside this process (traced CLI children), merged as is
        self.external: dict[str, dict] = {}
        # single measurements such as a child's wall time, reported as a mean
        self.samples: dict[str, list[float]] = {}

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(0)
        self.failed.append(False)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.ends[idx] = perf_counter()
        self.failed[idx] = failed
        self._stack.pop()

    def wrap(self, name: str, fn, points=False, evals=False):
        """fn with a span per call.

        points adds the size of the first argument to the span's count;
        evals wraps the first argument, a function, so that the sizes of the
        arguments it is called with are added instead.
        """

        def traced(*args, **kwargs):
            idx = self.open(name)
            if points:
                self.counts[idx] += _size(args[0])
            if evals:
                args = (self._counting(idx, args[0]), *args[1:])
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self.close(idx, not ok)

        return traced

    def _counting(self, idx: int, fn):
        def counting(x):
            self.counts[idx] += _size(x)
            return fn(x)

        return counting

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def summary(self) -> dict:
        """Per span name: calls, ms, self_ms, count and failed.

        ms counts only the outermost span of a name, so a layer function that
        calls another of the same layer is not counted twice.  self_ms is the
        duration minus the time covered by direct children.
        """
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            s = out.setdefault(name, _empty())
            s["calls"] += 1
            s["self_ms"] += 1e3 * (dur - child_time[i])
            s["count"] += self.counts[i]
            s["failed"] += int(self.failed[i])
            if not self._nested_in_same(i):
                s["ms"] += 1e3 * dur
        return merge(out, self.external)

    def _nested_in_same(self, i: int) -> bool:
        name = self.names[i]
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


def _empty() -> dict:
    return {"calls": 0, "ms": 0.0, "self_ms": 0.0, "count": 0, "failed": 0}


def merge(a: dict, b: dict) -> dict:
    """Sum of two span summaries."""
    out = {name: dict(stats) for name, stats in a.items()}
    for name, stats in b.items():
        s = out.setdefault(name, _empty())
        for key, value in stats.items():
            s[key] += value
    return out


@contextmanager
def installed(rec: Recorder):
    """Patch benfold's layer functions to record into rec, then restore them."""
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    try:
        for span, home, fname, lookups in LAYER_FUNCTIONS:
            wrapped = rec.wrap(span, getattr(importlib.import_module(home), fname))
            for modname in lookups:
                patch(importlib.import_module(modname), fname, wrapped)

        oracle = importlib.import_module("benfold.oracle")
        fold_mod1 = oracle.fold_mod1

        def traced_fold(f, *args, **kwargs):
            folded = fold_mod1(f, *args, **kwargs)
            fn = rec.wrap("density.fold", folded.fn, points=True)
            return dataclasses.replace(folded, fn=fn)

        patch(oracle, "fold_mod1", traced_fold)
        patch(oracle, "adaptive_simpson", rec.wrap("oracle.simpson", oracle.adaptive_simpson, evals=True))
        patch(oracle, "bisect_root", rec.wrap("oracle.bisect", oracle.bisect_root, evals=True))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def main(argv: list[str]) -> int:
    cli = importlib.import_module("benfold.cli")
    rec = Recorder()
    with installed(rec):
        code = cli.main(argv)
    sys.stdout.flush()
    print(SUMMARY_MARKER + json.dumps(rec.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
