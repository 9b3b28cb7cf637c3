"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest -q bench/selftest.py

The file name keeps the default `pytest` run of the library's suite from
collecting these; they start benchmark runs and take about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_SUFFIXES = (".calls", ".points", ".evals", ".refused", ".failed_calls")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert layers == [name for name, _, _ in worker.per_layer_metric_specs()]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, unit, _ in worker.per_layer_metric_specs()
    }
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_give_identical_inputs_for_a_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(7, ROOT).mix == cls(7, ROOT).mix
    if name != "cli-cold":  # its inputs are fixed commands in seeded order
        assert cls(7, ROOT).mix != cls(8, ROOT).mix


def test_known_defects_stay_in_the_inputs():
    sweep = workloads.OracleSweep(1, ROOT).mix
    assert {("triangular", None, n) for n in (59, 500, 1000)} <= set(sweep)
    assert ("density", workloads.RAMP) in workloads.BoundSuite(1, ROOT).mix
    assert ("oracle", "--density", "triangular 0 1 2", "--n", "1000") in workloads.CliCold(1, ROOT).mix


def test_import_ms_sums_outermost_package_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2000 |       5000 |     numpy",
        "import time:      1000 |       9000 |   benfold.density",
        "import time:       500 |      10000 | benfold",
        "import time:       800 |      17000 |   scipy",
        "import time:      1000 |      60000 | scipy.optimize",
    ])
    assert workloads.import_ms(stderr, "benfold") == 10.0
    assert workloads.import_ms(stderr, "scipy") == 60.0
    assert workloads.import_ms(stderr, "mpmath") == 0.0


def test_self_time_excludes_children():
    rec = spans.Recorder()
    outer = rec.open("a")
    inner = rec.open("b")
    rec.close(inner, False)
    rec.close(outer, False)
    rec.starts[outer], rec.ends[outer] = 0.0, 1.0
    rec.starts[inner], rec.ends[inner] = 0.25, 0.75
    s = rec.summary()
    assert s["a"]["ms"] == 1000.0 and s["a"]["self_ms"] == 500.0
    assert s["b"]["self_ms"] == 500.0


def test_tracing_restores_the_library():
    import benfold
    import benfold.oracle

    before = (benfold.delta_numeric, benfold.oracle.fold_mod1, benfold.oracle.adaptive_simpson)
    with spans.installed(spans.Recorder()):
        assert benfold.delta_numeric is not before[0]
    assert (benfold.delta_numeric, benfold.oracle.fold_mod1, benfold.oracle.adaptive_simpson) == before


def test_missing_library_is_refused():
    assert run.checkout_root(BENCH) == ROOT
    assert run.checkout_root(BENCH / "nowhere") is None


def test_traced_and_untraced_runs_agree_and_counts_repeat():
    plain = _run("bound-suite", 3, trace=0)
    traced = [_run("bound-suite", 3, trace=1) for _ in range(2)]
    for res in [plain] + traced:
        assert res["correct"]
    rates = {r["failed"] / r["attempted"] for r in [plain] + traced}
    assert len(rates) == 1, rates
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        for r in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["bounds.step_density.calls"] > 0
