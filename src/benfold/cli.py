"""Command-line front end: comparison table, single bounds, and the oracle.

Exit codes are a stable contract for scripting: 0 success, 2 usage or
input error, 3 numerical failure (vacuous bound, quadrature breakdown).
"""

from __future__ import annotations

import argparse
import importlib
import io
import math
import sys

from . import _EXPORTS, __version__
from .closed import (
    METHODS,
    BisectionError,
    BoundReport,
    DensityError,
    ExactUniformParams,
    QuadratureError,
    VacuousBoundError,
    _Record,
    bound_fourier_closed,
    bound_uniform_log_tv,
    exact_delta_uniform,
)

# The numpy-backed modules are loaded by _load on first use, so `table` and
# `exact` never import numpy.  The code below calls their functions as
# globals of this module, which is also where a wrapper set on it takes effect.
# json and csv are imported where used: only `--format json|csv` and piecewise
# files need them.


def _load(module: str) -> None:
    """Import a submodule and bind its public names here, keeping names already bound."""
    mod = importlib.import_module(f".{module}", __package__)
    scope = globals()
    for name, home in _EXPORTS.items():
        if home == module:
            scope.setdefault(name, getattr(mod, name))


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


DEFAULT_NS = (1, 2, 3, 4, 5, 8, 10, 20, 50, 100, 1000)


class TableRow(_Record):
    """One comparison row: exact distance vs the two closed-form bounds."""

    __slots__ = _fields = ("n", "exact", "tv_bound", "fourier_bound")

    def __init__(self, n: int, exact: float, tv_bound: float, fourier_bound: float):
        vals = (exact, tv_bound, fourier_bound)
        if not all(0.0 <= v < 1.0 for v in vals):
            raise VacuousBoundError(f"table row out of [0, 1): {vals}")
        if not (exact <= tv_bound < fourier_bound):
            raise VacuousBoundError(f"ordering chain violated in row n={n}: {vals}")
        self._set(n=n, exact=exact, tv_bound=tv_bound, fourier_bound=fourier_bound)


def table(b: float = 10.0, ns=DEFAULT_NS) -> list[TableRow]:
    """Comparison rows for the log-uniform family at base b, one per n."""
    if not ns:
        raise DensityError("need at least one n")
    rows = []
    for n in ns:
        rows.append(
            TableRow(
                n=int(n),
                exact=exact_delta_uniform(b, n).value,
                tv_bound=bound_uniform_log_tv(b, n).value,
                fourier_bound=bound_fourier_closed(b, n).value,
            )
        )
    return rows


def render_text(rows: list[TableRow], digits: int = 7) -> str:
    nw = max(1, *(len(str(r.n)) for r in rows))
    cols = ("exact", "tv_bound", "fourier_bound")
    widths = [max(len(c), digits + 2) for c in cols]
    lines = ["{:>{}}  ".format("n", nw) + "  ".join(c.rjust(w) for c, w in zip(cols, widths))]
    for r in rows:
        vals = (r.exact, r.tv_bound, r.fourier_bound)
        cells = [f"{v:.{digits}f}".rjust(w) for v, w in zip(vals, widths)]
        lines.append(f"{r.n:>{nw}}  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def render_csv(rows: list[TableRow]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "exact", "tv_bound", "fourier_bound"])
    for r in rows:
        writer.writerow(
            [r.n, f"{r.exact:.17g}", f"{r.tv_bound:.17g}", f"{r.fourier_bound:.17g}"]
        )
    return buf.getvalue()


def render_json(rows: list[TableRow], b: float) -> str:
    import json

    payload = {
        "metadata": {
            "base": b,
            "method_refs": {
                "exact": "exact_uniform",
                "tv_bound": "uniform_log_closed",
                "fourier_bound": "fourier_closed",
            },
            "tool_version": __version__,
        },
        "rows": [
            {
                "n": r.n,
                "exact": r.exact,
                "tv_bound": r.tv_bound,
                "fourier_bound": r.fourier_bound,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# density description mini-language
# ---------------------------------------------------------------------------


def parse_density(text: str) -> tuple[PiecewiseDensity, dict]:
    """Parse a density description.

    Grammar: `uniform LO HI`, `uniform-log b=B`, `exp-on-unit b=B` (one
    `b=` token, nothing else), `triangular LO PEAK HI`, `piecewise FILE`.
    Returns the density and an info dict with the kind and any named
    parameters.
    """
    _load("density")
    parts = text.split()
    if not parts:
        raise DensityError("empty density description")
    kind = parts[0]
    if kind == "uniform":
        if len(parts) != 3:
            raise DensityError(f"uniform takes LO HI, got {text!r}")
        lo, hi = _num(parts[1]), _num(parts[2])
        return uniform_density(lo, hi), {"kind": kind, "lo": lo, "hi": hi}
    if kind in ("uniform-log", "exp-on-unit"):
        if len(parts) != 2 or not parts[1].startswith("b="):
            raise DensityError(f"{kind} needs exactly one b=BASE, got {text!r}")
        b = _num(parts[1][2:])
        return uniform_log_density(b), {"kind": kind, "b": b}
    if kind == "triangular":
        if len(parts) != 4:
            raise DensityError(f"triangular takes LO PEAK HI, got {text!r}")
        lo, peak, hi = _num(parts[1]), _num(parts[2]), _num(parts[3])
        return triangular_density(lo, peak, hi), {"kind": kind}
    if kind == "piecewise":
        path = " ".join(parts[1:])
        if not path:
            raise DensityError("piecewise needs a file path")
        return load_piecewise_file(path), {"kind": kind, "path": path}
    raise DensityError(f"unknown density kind {kind!r}")


def _num(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DensityError(f"expected a number, got {token!r}") from exc


def load_piecewise_file(path: str) -> PiecewiseDensity:
    """Load a density from a JSON array of segment records.

    Each record: {lo, hi, kind: "const"|"linear"|"exp", params,
    monotonicity?, convexity?}.  lo, hi and params are JSON numbers, the
    flags strings; flags default to what the kind implies.  A record field
    or a param name outside these is refused.
    """
    import json

    _load("density")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise DensityError("piecewise file must hold a nonempty JSON array of segments")
    builders = {
        "const": (const_segment, ("value",)),
        "linear": (linear_segment, ("slope", "intercept")),
        "exp": (exp_segment, ("amp", "rate")),
    }
    segments = []
    for entry in data:
        try:
            kind = entry["kind"]
            if kind not in builders:
                raise DensityError(f"unknown segment kind {kind!r}")
            builder, names = builders[kind]
            params = entry.get("params", {})
            numbers = (entry["lo"], entry["hi"], *(params[k] for k in names))
            if not all(type(x) in (int, float) for x in numbers):  # a bool is no JSON number
                raise TypeError("bounds and params must be numbers")
            unknown = sorted({*entry} - {"lo", "hi", "kind", "params", "monotonicity", "convexity"})
            unknown += sorted({*params} - {*names})
            if unknown:
                raise DensityError(f"unknown segment record fields {unknown} in {entry!r}")
            seg = builder(*map(float, numbers))
            flags = [entry.get(k, getattr(seg, k)) for k in ("monotonicity", "convexity")]
            if not all(type(flag) is str for flag in flags):
                raise TypeError("flags must be strings")
        except KeyError as exc:
            raise DensityError(f"segment record missing field {exc}") from exc
        except (TypeError, OverflowError) as exc:  # a value of the wrong type, or an int past the floats
            raise DensityError(f"malformed segment record {entry!r}") from exc
        segments.append(Segment(seg.lo, seg.hi, None, *flags, seg.kind, seg.params))
    return PiecewiseDensity(tuple(segments))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_bound(density_text: str, method: str, n: float, k_max: int = 1000) -> BoundReport:
    density, info = parse_density(density_text)
    _load("bounds")
    if method in ("step_density", "tv_quarter", "convex_eighth"):
        # these bound X mod 1, so n*X mod 1 is bounded from the density of n*X
        report = globals()[f"bound_{method}"](scale_density(density, n))
        return BoundReport(method, report.value, report.hypotheses_verified, n=float(n))
    if method == "tv_scaled":
        return bound_tv_scaled(density, n)
    b = info.get("b")
    if b is None:
        raise DensityError(
            f"method {method!r} needs a log-uniform density (uniform-log b=B)"
        )
    n_int = _as_int(n)
    if method == "uniform_log_closed":
        return bound_uniform_log_tv(b, n_int)
    if method == "fourier_closed":
        return bound_fourier_closed(b, n_int)
    if method == "fourier_parseval":
        return bound_fourier_parseval(
            uniform_log_coeffs(b), n_int, k_max, uniform_log_tail_bound(b, n_int)
        )
    raise DensityError(f"unknown bound method {method!r}")


def run_oracle(
    density_text: str, n: float, engine: str = "quad", samples: int = 10_000_000, bins: int = 1000,
    seed: int = 0, tol: float = 1e-10,
) -> OracleResult:
    density, _ = parse_density(density_text)
    _load("oracle")
    if engine == "quad":
        return delta_numeric(density, n, QuadratureConfig(abs_tol=tol))
    if engine == "mc":
        return delta_monte_carlo(inverse_cdf_sampler(density), n, samples, bins, seed)
    raise DensityError(f"unknown oracle engine {engine!r}")


def _as_int(n: float) -> int:
    r = round(n)
    if abs(n - r) > 1e-9 or r < 1:
        raise DensityError(f"method needs a positive integer n, got {n!r}")
    return int(r)


def _print_bound(report: BoundReport) -> None:
    head = f"{report.method}  value={report.value:.7f}  n={report.n:g}"
    if report.b is not None:
        head += f"  b={report.b:g}"
    print(head)
    print(f"unrounded: {report.value!r}")
    print("hypotheses: " + "; ".join(report.hypotheses_verified))


def _print_oracle(result: OracleResult) -> None:
    print(
        f"{result.method}  value={result.value:.7f}  "
        f"error_estimate={result.error_estimate:.3e}"
    )
    print(f"unrounded: {result.value!r}")
    print(f"detail: {result.detail}")


def _int_or_real(text: str) -> float:
    # an integer token stays an int, so an integer n prints as an integer
    try:
        return int(text)
    except ValueError:
        return float(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benfold",
        description=(
            "Exact values and upper bounds for the distance of n*X mod 1 "
            "(equivalently, significands of powers) from the uniform limit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="comparison table: exact vs variation vs Fourier bound")
    p.add_argument("--base", type=float, default=10.0)
    p.add_argument("--n", dest="ns", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--digits", type=int, default=7)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("bound", help="compute one upper bound for a density")
    p.add_argument("--density", required=True)
    p.add_argument(
        "--method", required=True, choices=[m for m in METHODS if m != "exact_uniform"]
    )
    p.add_argument("--n", type=float, default=1)
    p.add_argument("--k-max", type=int, default=1000)

    p = sub.add_parser("exact", help="closed-form exact distance for the log-uniform family")
    p.add_argument("--base", type=float, required=True)
    p.add_argument("--exponent", type=float, required=True)

    p = sub.add_parser("oracle", help="independent numerical distance (quadrature or MC)")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=_int_or_real, required=True)
    p.add_argument("--engine", choices=("quad", "mc"), default="quad")
    p.add_argument("--samples", type=int, default=10_000_000)
    p.add_argument("--bins", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    return parser


def _dispatch(args) -> int:
    if args.command == "table":
        ns = args.ns if args.ns else DEFAULT_NS
        if args.digits < 1:
            raise DensityError("digits must be positive")
        rows = table(args.base, ns)
        if args.format == "text":
            sys.stdout.write(render_text(rows, args.digits))
        elif args.format == "csv":
            sys.stdout.write(render_csv(rows))
        else:
            sys.stdout.write(render_json(rows, args.base))
        return 0
    if args.command == "bound":
        _print_bound(run_bound(args.density, args.method, args.n, args.k_max))
        return 0
    if args.command == "exact":
        report = exact_delta_uniform(args.base, args.exponent)
        params = ExactUniformParams(args.base, args.exponent)
        print(f"exact_uniform  value={report.value:.7f}  b={args.base:g}  a={args.exponent:g}")
        print(f"unrounded: {report.value!r}")
        print(f"x={params.x!r}  u={params.u!r}  t0={params.t0!r}")
        return 0
    if args.command == "oracle":
        _print_oracle(run_oracle(args.density, args.n, args.engine, args.samples, args.bins, args.seed, args.tol))
        return 0
    raise DensityError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (VacuousBoundError, QuadratureError, BisectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
