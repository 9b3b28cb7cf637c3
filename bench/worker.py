"""One workload in a fresh process: set up, time whole passes, check answers.

Started by run.py with the checkout's `src` on PYTHONPATH and one thread
per numerical library.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans
import workloads

# per-layer metrics of the traced run: (metric, span name, field, unit, better)
SPAN_METRICS = (
    ("density.fold.calls", "density.fold", "calls", "count", "lower"),
    ("density.fold.points", "density.fold", "count", "count", "lower"),
    ("density.fold.ms", "density.fold", "ms", "ms", "lower"),
    ("density.construct.calls", "density.construct", "calls", "count", "lower"),
    ("density.construct.ms", "density.construct", "ms", "ms", "lower"),
    ("density.scale.calls", "density.scale", "calls", "count", "lower"),
    ("density.scale.ms", "density.scale", "ms", "ms", "lower"),
    ("density.variation.calls", "density.variation", "calls", "count", "lower"),
    ("density.variation.ms", "density.variation", "ms", "ms", "lower"),
    ("oracle.delta_numeric.calls", "oracle.delta_numeric", "calls", "count", "lower"),
    ("oracle.delta_numeric.ms", "oracle.delta_numeric", "ms", "ms", "lower"),
    ("oracle.simpson.calls", "oracle.simpson", "calls", "count", "lower"),
    ("oracle.simpson.self_ms", "oracle.simpson", "self_ms", "ms", "lower"),
    ("oracle.simpson.evals", "oracle.simpson", "count", "count", "lower"),
    ("oracle.bisect.calls", "oracle.bisect", "calls", "count", "lower"),
    ("oracle.bisect.evals", "oracle.bisect", "count", "count", "lower"),
    ("oracle.bisect.ms", "oracle.bisect", "ms", "ms", "lower"),
    ("oracle.averaging.calls", "oracle.averaging", "calls", "count", "lower"),
    ("oracle.averaging.self_ms", "oracle.averaging", "self_ms", "ms", "lower"),
    ("oracle.integrand.ms", "oracle.integrand", "ms", "ms", "lower"),
    ("bounds.step_density.calls", "bounds.step_density", "calls", "count", "lower"),
    ("bounds.step_density.ms", "bounds.step_density", "ms", "ms", "lower"),
    ("bounds.tv.calls", "bounds.tv", "calls", "count", "lower"),
    ("bounds.tv.ms", "bounds.tv", "ms", "ms", "lower"),
    ("bounds.convex_eighth.calls", "bounds.convex_eighth", "calls", "count", "lower"),
    ("bounds.convex_eighth.ms", "bounds.convex_eighth", "ms", "ms", "lower"),
    ("bounds.convex_eighth.refused", "bounds.convex_eighth", "failed", "count", "lower"),
    ("bounds.fourier_parseval.calls", "bounds.fourier_parseval", "calls", "count", "lower"),
    ("bounds.fourier_parseval.ms", "bounds.fourier_parseval", "ms", "ms", "lower"),
    ("bounds.closed_form.calls", "bounds.closed_form", "calls", "count", "lower"),
    ("bounds.closed_form.ms", "bounds.closed_form", "ms", "ms", "lower"),
)
# means of single measurements of the cli-cold workload
SAMPLE_METRICS = (
    "cli.interp_ms",
    "cli.import_benfold_ms",
    "cli.import_scipy_ms",
    "cli.table.ms",
    "cli.bound.ms",
    "cli.exact.ms",
    "cli.oracle.ms",
)
# metrics computed from the others
DERIVED_METRICS = (
    ("density.fold.points_per_s", "1/s", "higher"),
    ("oracle.failed_calls", "count", "lower"),
    ("oracle.simpson.evals_per_call", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name, unit, better) for name, _, _, unit, better in SPAN_METRICS]
    out += [(name, "ms", "lower") for name in SAMPLE_METRICS]
    out += list(DERIVED_METRICS)
    return out


class Pass(NamedTuple):
    rec: spans.Recorder | None  # set when the pass was traced
    wall_s: float
    outcomes: list  # (latency_s, value, error) per input of the mix


def run_pass(wl, rec, seen):
    """Run the whole mix once: (wall_s, [(latency_s, value, error)] per input).

    seen holds each input's first answer.  An equal answer is replaced by
    that object, so the answers kept for checking do not grow the worker's
    memory with the number of passes.
    """
    outcomes = []
    start = perf_counter()
    for i, item in enumerate(wl.mix):
        t = perf_counter()
        try:
            value, error = wl.run(item, rec), None
        except Exception as exc:  # a failed op is recorded; the run goes on
            value, error = None, exc.with_traceback(None)
        latency = perf_counter() - t
        if i not in seen:
            seen[i] = value
        elif value == seen[i]:
            value = seen[i]
        outcomes.append((latency, value, error))
    return perf_counter() - start, outcomes


def run_passes(wl, seconds, trace):
    """Whole passes until seconds have elapsed.

    With trace, every second pass is traced, starting with the second.
    """
    passes = []
    seen = {}
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and len(passes) < 2):
        rec = spans.Recorder() if trace and len(passes) % 2 == 1 else None
        if rec is not None:
            wl.probe(rec)
        ctx = spans.installed(rec) if rec is not None and wl.in_process else nullcontext()
        with ctx:
            wall, outcomes = run_pass(wl, rec, seen)
        passes.append(Pass(rec, wall, outcomes))
    return passes


def latency_stats(passes, failed, in_process, traced=False):
    """(ops_per_s, p50_s, p90_s) from each input's latency over the untraced
    passes, or over the traced ones.

    Each input runs once per pass.  Other tenants of a shared machine slow
    it down in bursts.  An in-process op takes milliseconds, so each input's
    best time over a run lands in a quiet moment and measures the program.
    A cold process takes up to a second and seldom fits in a quiet moment,
    so its best time is luck; its median over the run is steadier.
    Percentiles are taken over the inputs of the mix; ops_per_s is the
    completed ops of one pass over the sum of the inputs' latencies.
    """
    stat = min if in_process else statistics.median
    chosen = [(p.outcomes, f) for p, f in zip(passes, failed) if (p.rec is not None) == traced]
    per_input = [stat(lat) for lat in zip(*([o[0] for o in out] for out, _ in chosen))]
    ok_per_pass = statistics.fmean(len(out) - f for out, f in chosen)
    p90 = statistics.quantiles(per_input, n=10)[8]
    return ok_per_pass / math.fsum(per_input), statistics.median(per_input), p90


def layer_metrics(recorders) -> dict:
    summaries = [rec.summary() for rec in recorders]
    first = summaries[0]
    total = functools.reduce(spans.merge, summaries)
    npass = len(summaries)
    out = {}
    for name, span, field, _, _ in SPAN_METRICS:
        if field in ("calls", "count", "failed"):
            out[name] = first.get(span, {}).get(field, 0)
        else:
            out[name] = total.get(span, {}).get(field, 0.0) / npass
    for name in SAMPLE_METRICS:
        values = [v for rec in recorders for v in rec.samples.get(name, ())]
        out[name] = statistics.fmean(values) if values else 0.0
    fold_ms = total.get("density.fold", {}).get("ms", 0.0)
    fold_points = total.get("density.fold", {}).get("count", 0)
    out["density.fold.points_per_s"] = fold_points / (fold_ms / 1e3) if fold_ms else 0.0
    out["oracle.failed_calls"] = sum(
        first.get(span, {}).get("failed", 0) for span in ("oracle.delta_numeric", "oracle.averaging")
    )
    calls = out["oracle.simpson.calls"]
    out["oracle.simpson.evals_per_call"] = out["oracle.simpson.evals"] / calls if calls else 0.0
    return out


def check(wl, passes):
    """Failures as {input label: (kind, detail)}, and failed ops per pass."""
    failures = {}
    failed = []
    for p in passes:
        failed.append(0)
        for item, (_, value, error) in zip(wl.mix, p.outcomes):
            if error is not None:
                verdict = workloads.classify_exception(error), f"{type(error).__name__}: {error}"
            else:
                verdict = wl.check(item, value)
            if verdict is not None:
                failed[-1] += 1
                failures.setdefault(wl.label(item), verdict)
    return failures, failed


def peak_rss_kib(wl) -> int:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path(args.root)

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = run_passes(wl, args.seconds, args.trace)
    peak = peak_rss_kib(wl)
    failures, failed = check(wl, passes)
    ops_per_s, p50, p90 = latency_stats(passes, failed, wl.in_process)
    result = {
        "setup_s": setup_s,
        "passes": len(passes),
        "mix_size": len(wl.mix),
        "in_process": wl.in_process,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": sum(failed),
        "wall_s": sum(p.wall_s for p in passes),
        "ops_per_s": ops_per_s,
        "p50_s": p50,
        "p90_s": p90,
        "peak_rss_kib": peak,
        "failures": [
            {"input": label, "kind": kind, "detail": detail}
            for label, (kind, detail) in sorted(failures.items())
        ],
        "layers": None,
    }
    if args.trace:
        recorders = [p.rec for p in passes if p.rec is not None]
        layers = layer_metrics(recorders)
        layers["trace.overhead_ratio"] = ops_per_s / latency_stats(passes, failed, wl.in_process, traced=True)[0]
        result["layers"] = {name: (layers[name], unit) for name, unit, _ in per_layer_metric_specs()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
