"""benfold benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process with one thread per numerical library: one closed-loop caller, no
concurrency.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The lines before it are a readable report: provenance, every
metric with its unit, and every failing input.  Workloads, metrics and the
layer each metric belongs to are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# the names of workloads.WORKLOADS, repeated so this process need not import numpy
WORKLOAD_NAMES = ("oracle-sweep", "bound-suite", "averaging-harness", "cli-cold")
# set-up is measured this many times per untraced run; setup_s is the median
SETUP_REPEATS = 5
# a run must end within this many seconds, whatever --seconds says
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def checkout_root(start: Path) -> Path | None:
    """The directory above start that holds src/benfold, or None."""
    root = start.parent
    return root if (root / "src" / "benfold" / "__init__.py").is_file() else None


def worker_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn_worker(root: Path, args, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", str(root),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(
        argv, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker ran past the time budget")
    finally:
        # timed out, or this process was stopped: end the worker and its children
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def provenance(root: Path, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "benfold").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def end_to_end(main: dict, setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (main["ops_per_s"], "1/s"),
        "op_p50_ms": (1e3 * main["p50_s"], "ms"),
        "op_p90_ms": (1e3 * main["p90_s"], "ms"),
        "peak_rss_mb": (main["peak_rss_kib"] / 1024.0, "MB"),
        "success_rate": (1.0 - main["failed"] / main["attempted"], "ratio"),
    }


def report(args, prov, main, metrics) -> None:
    print(f"benfold benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"ops: {main['attempted']} attempted in {main['passes']} passes of {main['mix_size']} inputs "
          f"over {main['wall_s']:.2f} s, {main['failed']} failed "
          f"(error_rate {main['failed'] / main['attempted']:.4f})")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            stat = "best" if main["in_process"] else "median"
            note = f"  (over {main['mix_size']} inputs, each the {stat} of its passes)"
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    known = [f for f in main["failures"] if f["kind"].startswith("known")]
    unexpected = [f for f in main["failures"] if not f["kind"].startswith("known")]
    for title, rows in (("known-defect failures", known), ("unexpected failures", unexpected)):
        print(f"{title}: {len(rows) or 'none'}")
        for f in rows:
            print(f"  {f['input']}: {f['kind']}: {f['detail']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn_worker ends the worker
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not args.seconds > 0:
        p.error("--seconds must be positive")

    root = checkout_root(BENCH_DIR)
    if root is None:
        print("error: no src/benfold next to the benchmark; run it from a benfold checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    main_run = spawn_worker(root, args, deadline, setup_only=False)
    if args.trace:
        metrics = {name: tuple(value_unit) for name, value_unit in main_run["layers"].items()}
    else:
        setups = [main_run["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_worker(root, args, deadline, setup_only=True)["setup_s"])
        metrics = end_to_end(main_run, setups)
    report(args, provenance(root, args.seed), main_run, metrics)
    correct = all(f["kind"].startswith("known") for f in main_run["failures"])
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
