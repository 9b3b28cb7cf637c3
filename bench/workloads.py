"""The four workloads of the benfold benchmark.

Each workload turns a seed into a fixed mix of inputs.  The worker repeats
the whole mix ("a pass") until its time is up, so every input is attempted
equally often and the failed share is a property of the mix, not of where
the clock stopped.  Every op's answer is checked after the timed phase.

The generators live here rather than in tests/_support.py so that a change
to the test helpers cannot silently change what the benchmark measures.

An op fails when it raises, exits non-zero or returns a wrong answer.  Two
known defects stay in the inputs and count as failed ops, so that their
fixes show as fewer failures:

- KNOWN_BISECTION: the oracle raises "bisection needs a sign change" on an
  exactly uniform fold, for instance `triangular 0 1 2` at n = 59, 500 and
  1000; the CLI then exits 2.
- KNOWN_CONVEX: `bound_convex_eighth` certifies 3/8 for the ramp
  `linear_segment(1/3, 1, 4.5, -1.5)`, whose true distance is 4/9.

Any other failure is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

KNOWN_BISECTION = "known: oracle bisection on an exactly uniform fold"
KNOWN_CONVEX = "known: convex_eighth certified below the true distance"
UNEXPECTED = "unexpected"

BISECTION_MESSAGE = "bisection needs a sign change"
BASES = (2.0, math.e, 10.0, 100.0)
TOL = 1e-8


def _bf():
    # imported on first use so that importing this module stays cheap and
    # the benfold import is counted in the worker's set-up time
    import benfold

    return benfold


def classify_exception(exc: BaseException) -> str:
    if isinstance(exc, ValueError) and BISECTION_MESSAGE in str(exc):
        return KNOWN_BISECTION
    return UNEXPECTED


class Workload:
    """A named mix of inputs, the op run on each, and the check of its answer."""

    name = ""
    # True when ops call the library in the worker; False when they start
    # processes, whose own tracing the op collects
    in_process = True

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.mix: list[tuple] = self.generate(np.random.default_rng(seed))

    def probe(self, rec) -> None:
        """Measurements taken once per traced pass, outside the timed ops."""

    def generate(self, rng) -> list[tuple]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, item: tuple, rec):
        """Run one op; rec is a spans.Recorder in a traced pass, else None."""
        raise NotImplementedError

    def check(self, item: tuple, value) -> tuple[str, str] | None:
        """None when value is right for item, else (kind, detail)."""
        raise NotImplementedError

    def label(self, item: tuple) -> str:
        """The input as the report prints it."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

# n on a log-spaced grid over 1..1e5 with seeded jitter inside each grid
# step.  The endpoints stay fixed: n = 1e5 sets the peak memory, so pinning
# it keeps peak_rss_mb independent of the seed.
SWEEP_GRID = 25
SWEEP_JITTER = 0.1  # share of a grid step (in log n) a point may move
SWEEP_MAX_N = 100_000
TRIANGULAR_NS = (1, 2, 3, 10, 59, 100, 500, 1000)


class OracleSweep(Workload):
    """delta_numeric on uniform-log densities and the triangular fold."""

    name = "oracle-sweep"

    def generate(self, rng):
        step = math.log10(SWEEP_MAX_N) / (SWEEP_GRID - 1)
        items = []
        for b in BASES:
            for j in range(SWEEP_GRID):
                x = j * step
                if 0 < j < SWEEP_GRID - 1:
                    x += float(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)) * step
                items.append(("uniform-log", b, int(round(10.0**x))))
        items.extend(("triangular", None, n) for n in TRIANGULAR_NS)
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def warm_up(self):
        self.run(("uniform-log", 10.0, 3), None)
        self.run(("triangular", None, 2), None)

    def run(self, item, rec):
        bf = _bf()
        kind, b, n = item
        f = bf.uniform_log_density(b) if kind == "uniform-log" else bf.triangular_density(0.0, 1.0, 2.0)
        return bf.delta_numeric(f, n).value

    def check(self, item, value):
        kind, b, n = item
        want = _bf().exact_delta_uniform(b, n).value if kind == "uniform-log" else 0.0
        if abs(value - want) <= TOL:
            return None
        return UNEXPECTED, f"oracle {value!r} vs expected {want!r}"

    def label(self, item):
        kind, b, n = item
        if kind == "triangular":
            return f"delta_numeric(triangular 0 1 2, n={n})"
        return f"delta_numeric(uniform-log b={b:.6g}, n={n})"


# ---------------------------------------------------------------------------
# bound-suite
# ---------------------------------------------------------------------------

SUITE_DENSITIES = 240
SUITE_PARSEVAL = 2
SUITE_CLOSED = 20
SUITE_NS = (1, 2, 4, 8)
PARSEVAL_K_MAX = 100_000
RAMP = (("linear", 1.0 / 3.0, 1.0, 4.5, -1.5),)


def _random_segment(rng, lo, hi):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ("const", lo, hi, float(rng.uniform(0.05, 2.0)))
    if kind == 1:
        y0 = float(rng.uniform(0.0, 2.0))
        y1 = float(rng.uniform(0.0, 2.0))
        slope = (y1 - y0) / (hi - lo)
        return ("linear", lo, hi, slope, y0 - slope * lo)
    amp = float(rng.uniform(0.05, 1.5))
    rate = float(rng.uniform(-2.0, 2.0))
    if abs(rate) < 1e-3:
        rate = 1.0
    return ("exp", lo, hi, amp * math.exp(-rate * lo), rate)


def random_density_spec(rng, i):
    """Segments of a random piecewise density, before normalization.

    Const, linear and exp segments over 1-5 integer cells, with interior
    gaps.  Cell and segment counts cycle with i so that every seed gets the
    same shapes in the same proportions; the seed draws the rest.
    """
    n_cells = 1 + i % 5
    n_segs = 1 + (i // 5) % 4
    offset = float(rng.integers(0, 3))
    jitter_lo = float(rng.uniform(0.0, 0.4)) if rng.random() < 0.7 else 0.0
    jitter_hi = float(rng.uniform(0.0, 0.4)) if rng.random() < 0.7 else 0.0
    s_lo = offset + jitter_lo
    s_hi = offset + n_cells - jitter_hi
    inner = np.sort(rng.uniform(s_lo, s_hi, n_segs - 1))
    edges = [s_lo, *(float(x) for x in inner), s_hi]
    segments = []
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi - lo < 1e-2:
            continue
        if 0 < k < n_segs - 1 and rng.random() < 0.15:
            continue
        segments.append(_random_segment(rng, lo, hi))
    if not segments:
        segments.append(("const", s_lo, s_hi, 1.0))
    return tuple(segments)


def build_density(spec):
    bf = _bf()
    segs = []
    for kind, lo, hi, *params in spec:
        if kind == "const":
            segs.append(bf.const_segment(lo, hi, *params))
        elif kind == "linear":
            segs.append(bf.linear_segment(lo, hi, *params))
        else:
            segs.append(bf.exp_segment(lo, hi, *params))
    return bf.normalized(segs)


class BoundSuite(Workload):
    """Every general bound on random densities, plus Fourier and closed forms."""

    name = "bound-suite"

    def __init__(self, seed, root):
        self._refs: dict = {}
        super().__init__(seed, root)

    def generate(self, rng):
        items = [("density", random_density_spec(rng, i)) for i in range(SUITE_DENSITIES)]
        items.append(("density", RAMP))
        for _ in range(SUITE_PARSEVAL):
            items.append(("parseval", BASES[int(rng.integers(0, 4))], int(rng.integers(1, 9))))
        for _ in range(SUITE_CLOSED):
            n = int(round(10.0 ** float(rng.uniform(0.0, 3.0))))
            items.append(("closed", BASES[int(rng.integers(0, 4))], n))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def warm_up(self):
        # the first bound_step_density that meets a crossing imports
        # scipy.optimize; the log-uniform density always has one
        bf = _bf()
        bf.bound_step_density(bf.uniform_log_density(10.0))
        for kind in ("density", "closed"):
            self.run(next(item for item in self.mix if item[0] == kind), None)

    def run(self, item, rec):
        bf = _bf()
        if item[0] == "parseval":
            _, b, n = item
            report = bf.bound_fourier_parseval(
                bf.uniform_log_coeffs(b), n, PARSEVAL_K_MAX, bf.uniform_log_tail_bound(b, n)
            )
            return {(n, "fourier_parseval"): report.value}
        if item[0] == "closed":
            _, b, n = item
            return {
                (n, "exact_uniform"): bf.exact_delta_uniform(b, n).value,
                (n, "uniform_log_closed"): bf.bound_uniform_log_tv(b, n).value,
                (n, "fourier_closed"): bf.bound_fourier_closed(b, n).value,
            }
        f = build_density(item[1])
        out = {}
        for n in SUITE_NS:
            scaled = bf.scale_density(f, n)
            out[(n, "step_density")] = bf.bound_step_density(scaled).value
            out[(n, "tv_quarter")] = bf.bound_tv_quarter(scaled).value
            out[(n, "tv_scaled")] = bf.bound_tv_scaled(f, n).value
            try:
                out[(n, "convex_eighth")] = bf.bound_convex_eighth(scaled).value
            except bf.DensityError:
                out[(n, "convex_eighth")] = None  # refused: hypotheses not met
        return out

    def reference(self, item, n):
        """Oracle distance for item at scale n, computed once per input."""
        key = (item[0], item[1], n)
        if key not in self._refs:
            bf = _bf()
            f = build_density(item[1]) if item[0] == "density" else bf.uniform_log_density(item[1])
            try:
                self._refs[key] = bf.delta_numeric(f, n).value
            except Exception as exc:  # the reference itself hit a defect
                self._refs[key] = exc
        return self._refs[key]

    def check(self, item, value):
        for (n, method), v in value.items():
            ref = self.reference(item, n)
            if isinstance(ref, Exception):
                return classify_exception(ref), f"oracle reference at n={n}: {ref!r}"
            if v is None:
                continue
            if method == "exact_uniform":
                if abs(v - ref) > TOL:
                    return UNEXPECTED, f"exact {v!r} vs oracle {ref!r} at n={n}"
            elif v < ref - TOL:
                kind = KNOWN_CONVEX if method == "convex_eighth" else UNEXPECTED
                return kind, f"{method} {v!r} below oracle {ref!r} at n={n}"
        return None

    def label(self, item):
        if item[0] == "density":
            segs = ", ".join(
                f"{kind}[{lo:.4g},{hi:.4g}]" for kind, lo, hi, *_ in item[1]
            )
            return f"bounds on normalized({segs})"
        kind, b, n = item
        return f"{kind} b={b:.6g} n={n}"


# ---------------------------------------------------------------------------
# averaging-harness
# ---------------------------------------------------------------------------

AVG_CONVEX = 500
AVG_BOUNDED = 500


def monotone_convex_fn(family, params, a):
    """Affine, offset-exponential or constant function on [a, b]."""
    if family == "exp":
        base, amp, rate = params
        return lambda x: base + amp * np.exp(rate * (np.asarray(x, dtype=float) - a))
    if family == "linear":
        base, slope = params
        return lambda x: base + slope * np.asarray(x, dtype=float)
    (base,) = params
    return lambda x: np.full(np.shape(np.asarray(x, dtype=float)), base)


def bounded_fn(family, params, a, b):
    """Step, polynomial or trigonometric function on [a, b]."""
    if family == "step":
        values, cuts = np.asarray(params[0]), np.asarray(params[1])

        def step(x):
            idx = np.searchsorted(cuts, np.asarray(x, dtype=float), side="right")
            return values[np.clip(idx, 0, len(values) - 1)]

        return step
    if family == "poly":
        coeffs = np.asarray(params[0])
        return lambda x: np.polyval(coeffs, np.asarray(x, dtype=float) - a)
    coeffs, phases, offset = params
    w = math.pi / (b - a)

    def trig(x):
        xs = np.asarray(x, dtype=float)
        out = np.full(xs.shape, offset)
        for j, (cj, pj) in enumerate(zip(coeffs, phases), start=1):
            out = out + cj * np.sin(j * w * (xs - a) + pj)
        return out

    return trig


def _convex_item(rng, i):
    lo = float(rng.uniform(-2.0, 2.0))
    hi = lo + float(rng.uniform(0.2, 3.0))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    base = float(rng.uniform(-1.0, 2.0))
    family = ("exp", "linear", "const")[i % 3]
    if family == "exp":
        params = (base, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 3.0)) * direction)
    elif family == "linear":
        params = (base, float(rng.uniform(-3.0, 3.0)))
    else:
        params = (base,)
    fn = monotone_convex_fn(family, params, lo)
    fa, fb = float(fn(lo)), float(fn(hi))
    return ("convex", family, params, lo, hi, min(fa, fb), max(fa, fb), ())


def _bounded_item(rng, i):
    lo = float(rng.uniform(-2.0, 2.0))
    hi = lo + float(rng.uniform(0.2, 3.0))
    pick = i % 10
    cuts = ()
    if pick < 4:
        values = tuple(float(v) for v in rng.uniform(-2.0, 2.0, int(rng.integers(2, 5))))
        cuts = tuple(float(c) for c in np.sort(rng.uniform(lo, hi, len(values) - 1)))
        family, params = "step", (values, cuts)
        c, d = min(values), max(values)
    else:
        if pick < 7:
            family = "poly"
            params = (tuple(float(v) for v in rng.uniform(-1.0, 1.0, int(rng.integers(2, 6)))),)
        else:
            family = "trig"
            params = (
                tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3)),
                tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 3)),
                float(rng.uniform(-1.0, 1.0)),
            )
        ys = bounded_fn(family, params, lo, hi)(np.linspace(lo, hi, 4097))
        pad = 1e-9 * (float(ys.max() - ys.min()) + 1.0)
        c, d = float(ys.min()) - pad, float(ys.max()) + pad
    return ("bounded", family, params, lo, hi, c, d, cuts)


# the two equality witnesses on [0, 1] -> [0.5, 2.5]: a half-half two-valued
# function reaches (b-a)(d-c)/2 and a straight line reaches (b-a)(d-c)/4
WITNESSES = (("witness", "two-valued", (), 0.0, 1.0, 0.5, 2.5, (0.5,)),
             ("witness", "line", (), 0.0, 1.0, 0.5, 2.5, ()))


class AveragingHarness(Workload):
    """check_averaging_inequality on random functions, plus both witnesses."""

    name = "averaging-harness"

    def generate(self, rng):
        items = [_convex_item(rng, i) for i in range(AVG_CONVEX)]
        items += [_bounded_item(rng, i) for i in range(AVG_BOUNDED)]
        items += list(WITNESSES)
        order = rng.permutation(len(items))
        mix = [items[i] for i in order]
        self._fns = {item: self._fn(item) for item in mix}
        return mix

    @staticmethod
    def _fn(item):
        kind, family, params, a, b, c, d, _ = item
        if kind == "convex":
            return monotone_convex_fn(family, params, a)
        if kind == "bounded":
            return bounded_fn(family, params, a, b)
        mid = 0.5 * (a + b)
        if family == "two-valued":
            return lambda x: np.where(np.asarray(x, dtype=float) < mid, c, d)
        return lambda x: c + (d - c) * (np.asarray(x, dtype=float) - a) / (b - a)

    def warm_up(self):
        for kind in ("convex", "bounded", "witness"):
            self.run(next(item for item in self.mix if item[0] == kind), None)

    def run(self, item, rec):
        bf = _bf()
        kind, _, _, a, b, c, d, cuts = item
        fn = self._fns[item]
        if rec is not None:
            fn = rec.wrap("oracle.integrand", fn)
        cfg = bf.QuadratureConfig(breakpoints=cuts)
        if kind == "witness":
            residual, _, _ = bf.averaging_residual(fn, a, b, cfg)
            return residual
        return bf.check_averaging_inequality(fn, a, b, c, d, kind == "convex", cfg)

    def check(self, item, value):
        kind, family, _, a, b, c, d, _ = item
        if kind != "witness":
            return None if value is True else (UNEXPECTED, "inequality reported violated")
        want = (b - a) * (d - c) / (2.0 if family == "two-valued" else 4.0)
        if abs(value - want) <= 1e-12:
            return None
        return UNEXPECTED, f"witness residual {value!r} vs {want!r}"

    def label(self, item):
        kind, family, _, a, b, *_ = item
        return f"{kind} {family} on [{a:.4g}, {b:.4g}]"


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("table", "--base", "10"),
    ("bound", "--density", "uniform-log b=10", "--method", "step_density"),
    ("bound", "--density", "triangular 0 1 2", "--method", "tv_quarter"),
    ("exact", "--base", "10", "--exponent", "3"),
    ("oracle", "--density", "uniform-log b=10", "--n", "1000"),
    ("oracle", "--density", "triangular 0 1 2", "--n", "1000"),
)
CLI_PASSES_PER_MIX = 2
CLI_INTERP_SAMPLES = 3
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_ms(stderr: str, package: str) -> float:
    """Cumulative import time of package, from `python -X importtime` output.

    Sums the cumulative time of every entry of the package whose enclosing
    import is not itself part of the package.  Entries come children first,
    so the enclosing import of an entry is the next one at a smaller depth.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total_us = 0
    for i, (depth, name, cum) in enumerate(rows):
        if name != package and not name.startswith(package + "."):
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not (parent[1] == package or parent[1].startswith(package + ".")):
            total_us += cum
    return total_us / 1e3


class CliCold(Workload):
    """Fresh `python -m benfold` processes, one at a time."""

    name = "cli-cold"
    in_process = False

    def generate(self, rng):
        mix = []
        for _ in range(CLI_PASSES_PER_MIX):
            mix.extend(CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS)))
        return mix

    def _spawn(self, argv):
        # the worker's environment already puts the checkout's src first
        return subprocess.run(argv, cwd=self.root, capture_output=True, text=True, timeout=60)

    def probe(self, rec):
        for _ in range(CLI_INTERP_SAMPLES):
            t = perf_counter()
            self._spawn([sys.executable, "-c", "pass"])
            rec.sample("cli.interp_ms", 1e3 * (perf_counter() - t))

    def warm_up(self):
        # one command that loads numpy, benfold and scipy.optimize from disk
        self.run(CLI_COMMANDS[1], None)

    def run(self, item, rec):
        if rec is None:
            proc = self._spawn([sys.executable, "-m", "benfold", *item])
            return proc.returncode, proc.stdout, proc.stderr
        script = str(Path(__file__).with_name("spans.py"))
        t = perf_counter()
        proc = self._spawn([sys.executable, "-X", "importtime", script, *item])
        rec.sample(f"cli.{item[0]}.ms", 1e3 * (perf_counter() - t))
        rec.sample("cli.import_benfold_ms", import_ms(proc.stderr, "benfold"))
        scipy_ms = import_ms(proc.stderr, "scipy")
        if scipy_ms:
            rec.sample("cli.import_scipy_ms", scipy_ms)
        kept = []
        for line in proc.stderr.splitlines():
            if line.startswith(spans.SUMMARY_MARKER):
                summary = json.loads(line[len(spans.SUMMARY_MARKER):])
                rec.external = spans.merge(rec.external, summary)
            elif not line.startswith("import time:"):
                kept.append(line)
        return proc.returncode, proc.stdout, "\n".join(kept)

    def reference(self, item):
        """The library's answer for a command, computed in this process."""
        bf = _bf()
        cmd, *rest = item
        if cmd == "exact":
            return bf.exact_delta_uniform(10.0, 3.0).value
        density = (
            bf.uniform_log_density(10.0)
            if rest[1] == "uniform-log b=10"
            else bf.triangular_density(0.0, 1.0, 2.0)
        )
        if cmd == "oracle":
            return bf.delta_numeric(density, 1000).value
        if rest[3] == "step_density":
            return bf.bound_step_density(density).value
        return bf.bound_tv_quarter(density).value

    def check(self, item, value):
        code, stdout, stderr = value
        if code != 0:
            kind = KNOWN_BISECTION if BISECTION_MESSAGE in stderr else UNEXPECTED
            return kind, f"exit {code}: {stderr.strip()}"
        if item[0] == "table":
            golden = (self.root / "tests" / "data" / "table_b10.golden").read_text()
            return None if stdout == golden else (UNEXPECTED, "table differs from the golden file")
        got = next(
            (float(line.split(":", 1)[1]) for line in stdout.splitlines() if line.startswith("unrounded:")),
            None,
        )
        try:
            want = self.reference(item)
        except Exception as exc:
            return UNEXPECTED, f"CLI printed {got!r} but the library raised {exc!r}"
        if got == want:
            return None
        return UNEXPECTED, f"unrounded {got!r} vs library {want!r}"

    def label(self, item):
        return "benfold " + " ".join(f'"{a}"' if " " in a else a for a in item)


WORKLOADS = {w.name: w for w in (OracleSweep, BoundSuite, AveragingHarness, CliCold)}
