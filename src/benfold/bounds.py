"""Upper bounds and exact values for the distance of a fold from uniform.

Four families live here: the step-density L1 bound (valid for any density),
the variation bounds TV/4 and TV/(4n) with the convexity-boosted
(sup-inf)/8 variant, the Fourier route (rigorous truncated Parseval sum and
the closed form ln b/(2*sqrt(12)*n)), and the closed-form exact distance for
the log-uniform family together with its folded CDF.

Every report carries the shape hypotheses the method relied on and whether
they were certified from segment flags or merely asserted by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    DensityError,
    PiecewiseDensity,
    _piece_list,
    _snap_int,
    tv_full_line,
    tv_integer_delineated,
    variation_is_certified,
)

METHODS = (
    "step_density",
    "tv_quarter",
    "convex_eighth",
    "tv_scaled",
    "uniform_log_closed",
    "fourier_parseval",
    "fourier_closed",
    "exact_uniform",
)

_TWO_SQRT_TWELVE = 2.0 * math.sqrt(12.0)


class VacuousBoundError(RuntimeError):
    """The requested bound is infinite and carries no information."""


@dataclass(frozen=True)
class BoundReport:
    """One computed upper bound (or exact value) with its provenance."""

    method: str
    value: float
    hypotheses_verified: tuple[str, ...]
    n: float = 1.0
    b: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"bound value must be finite and nonnegative, got {self.value!r}")
        if self.method == "exact_uniform" and not self.value < 1.0:
            raise ValueError("exact distance must lie in [0, 1)")
        object.__setattr__(self, "hypotheses_verified", tuple(self.hypotheses_verified))


def _require_base(b: float) -> float:
    if not (isinstance(b, (int, float)) and math.isfinite(b) and b > 1):
        raise DensityError(f"base must satisfy b > 1, got {b!r}")
    return float(b)


def _require_positive_int(n) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DensityError(f"n must be a positive integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# step-density bound (valid for every density)
# ---------------------------------------------------------------------------


def bound_step_density(f: PiecewiseDensity) -> BoundReport:
    """Half the L1 distance between f and its per-cell averaged step density.

    The step density matches f's mass on every integer cell and folds to the
    exact uniform, so half the L1 gap bounds the distance of X mod 1 from
    uniform with no shape hypotheses at all.  Exact when the support spans a
    single cell.
    """
    n_lo, m_hi = f.delineated_interval()
    closed_form = all(seg.kind != "custom" for seg in f.segments)
    total = 0.0
    for k in range(n_lo, m_hi):
        s_k = sum(seg.mass(k, k + 1) for seg in f.segments)
        total += _cell_abs_deviation(f, float(k), float(k + 1), s_k)
    hyp = (
        "no shape hypotheses required",
        "cell integrals: closed form" if closed_form else "cell integrals: quadrature",
    )
    return BoundReport("step_density", 0.5 * total, hyp)


def _cell_abs_deviation(f: PiecewiseDensity, a: float, b: float, level: float) -> float:
    """Integral of |f - level| over the cell [a, b], gaps included."""
    total = 0.0
    covered = a
    for seg in f.segments:
        lo = max(seg.lo, a)
        hi = min(seg.hi, b)
        if hi <= lo:
            continue
        if lo > covered:
            total += level * (lo - covered)  # f is zero on the gap
        total += _segment_abs_deviation(seg, lo, hi, level)
        covered = hi
    if covered < b:
        total += level * (b - covered)
    return total


def _segment_abs_deviation(seg, lo: float, hi: float, level: float) -> float:
    cuts = sorted({lo, hi, *seg.crossings(level, lo, hi)})
    total = 0.0
    for p, q in zip(cuts, cuts[1:]):
        total += abs(seg.mass(p, q) - level * (q - p))
    return total


# ---------------------------------------------------------------------------
# variation bounds
# ---------------------------------------------------------------------------


def _variation_hypothesis(f: PiecewiseDensity) -> str:
    if variation_is_certified(f):
        return "variation: exact (monotone segment flags)"
    return "variation: grid estimate, a lower bound; bound not certified"


def bound_tv_quarter(f: PiecewiseDensity) -> BoundReport:
    """Quarter of the integer-delineated variation bounds the fold distance."""
    tv = tv_integer_delineated(f)
    if not math.isfinite(tv):
        raise VacuousBoundError("variation is infinite; TV/4 carries no information")
    return BoundReport("tv_quarter", tv / 4.0, (_variation_hypothesis(f),))


def bound_tv_scaled(f: PiecewiseDensity, n) -> BoundReport:
    """Variation bound for the scale-n fold: TV/(4n).

    Integer scales use the integer-delineated variation.  Real scales lose
    the integer-delineation structure, so the full-line variation is used
    instead (it is never smaller, keeping the bound sound).
    """
    if not (isinstance(n, (int, float, np.integer)) and math.isfinite(n) and n > 0):
        raise DensityError(f"scale must be positive, got {n!r}")
    n = float(n)
    n_int = _snap_int(n)
    if n_int is not None and n_int >= 1:
        tv = tv_integer_delineated(f)
        route = "integer scale: integer-delineated variation"
    else:
        tv = tv_full_line(f)
        route = "real scale: full-line variation"
    if not math.isfinite(tv):
        raise VacuousBoundError("variation is infinite; TV/(4n) carries no information")
    return BoundReport(
        "tv_scaled", tv / (4.0 * n), (route, _variation_hypothesis(f)), n=n
    )


def bound_convex_eighth(
    f: PiecewiseDensity,
    n_lo: float | None = None,
    m_hi: float | None = None,
    assume_hypotheses: bool = False,
) -> BoundReport:
    """Convexity-boosted bound (sup f - inf f)/8 over the interval (n_lo, m_hi).

    The eighth constant treats straight lines as the worst monotone convex
    shape, which holds when one affine or exponential segment covers the
    whole interval; a ramp that idles at zero before rising, or a power-law
    profile like x**1.5, exceeds it.  So only that case is certified, from
    its flags plus a grid spot check.  Anything else raises DensityError,
    or with assume_hypotheses is reported as caller-asserted; hard
    contradictions such as opposing monotone flags, concave flags, interior
    gaps, or interior jumps are rejected regardless.
    """
    auto_n, auto_m = f.delineated_interval()
    n_lo = float(auto_n) if n_lo is None else float(n_lo)
    m_hi = float(auto_m) if m_hi is None else float(m_hi)
    s_lo, s_hi = f.support()
    if s_lo < n_lo - 1e-12 or s_hi > m_hi + 1e-12:
        raise DensityError(
            f"support [{s_lo}, {s_hi}] is not inside the stated interval ({n_lo}, {m_hi})"
        )

    directions = {
        seg.monotonicity for seg in f.segments if seg.monotonicity not in ("constant",)
    }
    if {"increasing", "decreasing"} <= directions:
        raise DensityError("segment flags contradict a single monotone direction")
    if any(seg.convexity in ("concave", "neither") for seg in f.segments):
        raise DensityError("a segment flag contradicts convexity")

    pieces = _piece_list(f)
    if any(seg is None for seg, _, _ in pieces):
        raise DensityError("interior zero gap breaks monotonicity and convexity")
    vals = [(float(seg(lo)), float(seg(hi))) for seg, lo, hi in pieces]
    scale = max(max(v) for v in vals) + 1e-30
    for (_, left_hi), (right_lo, _) in zip(vals, vals[1:]):
        if abs(right_lo - left_hi) > 1e-9 * scale:
            raise DensityError("interior jump between segments breaks convexity")
    # a jump up from zero strictly inside the interval also breaks convexity
    if s_lo > n_lo + 1e-12 and vals[0][0] > 1e-9 * scale:
        raise DensityError("jump from zero at the left support edge inside the interval")
    if s_hi < m_hi - 1e-12 and vals[-1][1] > 1e-9 * scale:
        raise DensityError("jump to zero at the right support edge inside the interval")

    flags_certify = directions <= {"increasing"} or directions <= {"decreasing"} or not directions
    flags_certify = flags_certify and all(seg.convexity == "convex" for seg in f.segments)
    certified = (
        flags_certify
        and len(f.segments) == 1
        and f.segments[0].kind != "custom"
        and s_lo <= n_lo + 1e-12
        and s_hi >= m_hi - 1e-12
    )
    if not certified and not assume_hypotheses:
        raise DensityError(
            "certified only for one affine or exponential segment with monotone and "
            f"convex flags covering ({n_lo:g}, {m_hi:g}); "
            "pass assume_hypotheses=True to assert the hypotheses"
        )
    label = "caller-asserted"
    if certified:
        if not _grid_monotone_convex(f, s_lo, s_hi):
            raise DensityError("grid spot check contradicts the monotone+convex flags")
        label = "certified (segment flags, grid-checked)"
    hyp = (f"monotone: {label}", f"convex: {label}", f"one affine or exponential segment: {label}")

    flat = [v for pair in vals for v in pair]
    sup = max(flat)
    inf = min(flat)
    return BoundReport("convex_eighth", (sup - inf) / 8.0, hyp)


def _grid_monotone_convex(f: PiecewiseDensity, s_lo: float, s_hi: float) -> bool:
    xs = np.linspace(s_lo, s_hi, 257)
    ys = f(xs)
    d1 = np.diff(ys)
    tol = 1e-9 * (np.max(np.abs(ys)) + 1e-30)
    monotone = np.all(d1 >= -tol) or np.all(d1 <= tol)
    d2 = np.diff(ys, 2)
    return bool(monotone and np.all(d2 >= -tol))


def bound_uniform_log_tv(b: float, n) -> BoundReport:
    """Closed-form variation bound ln(b)/(8n) for the log-uniform density."""
    b = _require_base(b)
    n = _require_positive_int(n)
    return BoundReport(
        "uniform_log_closed",
        math.log(b) / (8.0 * n),
        ("density increasing and convex on its support: by construction",),
        n=n,
        b=b,
    )


# ---------------------------------------------------------------------------
# Fourier route
# ---------------------------------------------------------------------------


def fourier_coeff_uniform_log(b: float, k: int) -> complex:
    """k-th Fourier coefficient of the log-uniform density: ln b/(ln b - 2 pi i k)."""
    b = _require_base(b)
    lnb = math.log(b)
    return lnb / complex(lnb, -2.0 * math.pi * k)


def uniform_log_coeffs(b: float):
    b = _require_base(b)
    return lambda k: fourier_coeff_uniform_log(b, k)


def uniform_log_tail_bound(b: float, n) -> "callable":
    """Tail majorant for the log-uniform coefficients at scale n.

    |coeff(m)|^2 < (ln b)^2/(2 pi m)^2, so the two-sided tail beyond K sums
    below (ln b)^2/(2 pi^2 n^2 K).
    """
    b = _require_base(b)
    n = _require_positive_int(n)
    lnb = math.log(b)

    def tail(k_max: int) -> float:
        return lnb * lnb / (2.0 * math.pi**2 * n * n * k_max)

    return tail


def bound_fourier_parseval(coeffs, n, k_max: int, tail_bound) -> BoundReport:
    """Rigorous truncated Parseval bound: half the root of the coefficient power.

    Sums |coeffs(n*k)|^2 over 0 < |k| <= k_max and adds tail_bound(k_max),
    which must dominate the discarded two-sided tail; without a tail bound
    the truncated sum is only a lower estimate and is refused.
    """
    n = _require_positive_int(n)
    if k_max < 1:
        raise DensityError("k_max must be at least 1")
    if tail_bound is None:
        raise DensityError(
            "a tail bound is required; without coefficient decay the "
            "truncated Parseval sum is not an upper bound"
        )
    power = 0.0
    for k in range(1, k_max + 1):
        power += abs(coeffs(n * k)) ** 2 + abs(coeffs(-n * k)) ** 2
    tail = float(tail_bound(k_max))
    if not (math.isfinite(tail) and tail >= 0):
        raise DensityError(f"tail bound must be finite and nonnegative, got {tail!r}")
    return BoundReport(
        "fourier_parseval",
        0.5 * math.sqrt(power + tail),
        (
            f"coefficients summed to |k| <= {k_max}",
            f"tail beyond {k_max} dominated by {tail:.3e} (caller-provided decay)",
        ),
        n=n,
    )


def bound_fourier_closed(b: float, n) -> BoundReport:
    """Closed-form Fourier bound ln(b)/(2*sqrt(12)*n) for the log-uniform density."""
    b = _require_base(b)
    n = _require_positive_int(n)
    return BoundReport(
        "fourier_closed",
        math.log(b) / (_TWO_SQRT_TWELVE * n),
        ("coefficient moduli majorized termwise; no shape hypotheses",),
        n=n,
        b=b,
    )


# ---------------------------------------------------------------------------
# exact closed form for the log-uniform family
# ---------------------------------------------------------------------------


def _mean_growth_minus_one(h: float) -> float:
    """(e**h - 1 - h)/h, which is u - 1, without the small-h cancellation.

    The direct difference loses ~2*eps/h relative accuracy as h -> 0, so a
    short series sum(h**k/(k+1)!) takes over below 0.5.
    """
    if abs(h) >= 0.5:
        return (math.expm1(h) - h) / h
    term = h / 2.0
    total = term
    for k in range(2, 40):
        term *= h / (k + 1)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


@dataclass(frozen=True)
class ExactUniformParams:
    """Derived quantities for the exact log-uniform distance.

    x = b**(1/a) is the fold's growth factor, u = (x-1)/ln(x) the mean value
    of the folded density, and t0 = log_x(u) the crossing point where the
    folded density equals 1.
    """

    b: float
    a: float
    x: float = 0.0
    u: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        b = _require_base(self.b)
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a) and self.a > 0):
            raise DensityError(f"exponent must be positive, got {self.a!r}")
        h = math.log(b) / float(self.a)  # = ln x
        if h > 700.0:
            # x overflows; only the asymptotic distance is representable
            object.__setattr__(self, "x", math.inf)
            object.__setattr__(self, "u", math.inf)
            object.__setattr__(self, "t0", 1.0 - math.log(h) / h)
            return
        v = _mean_growth_minus_one(h)
        object.__setattr__(self, "x", 1.0 + math.expm1(h))
        object.__setattr__(self, "u", 1.0 + v)
        object.__setattr__(self, "t0", math.log1p(v) / h)
        if not self.u < self.x + 1e-12:
            raise DensityError("mean value landed outside (1, x); inputs look corrupt")


def exact_delta_uniform(b: float, a: float) -> BoundReport:
    """Exact distance of the a-th-power log-uniform fold from uniform.

    Evaluates (u ln u - u + 1)/(x - 1) with x = b**(1/a), u = (x-1)/ln x,
    using expm1/log1p and a small-v series so the x -> 1 regime (large a)
    stays fully accurate, and the asymptotic form once x overflows.
    """
    params = ExactUniformParams(b, a)
    h = math.log(params.b) / float(a)
    if not math.isfinite(params.x):
        value = 1.0 - (math.log(h) + 1.0) / h
        return _exact_report(value, b, a)
    v = _mean_growth_minus_one(h)  # params.u - 1.0 would re-cancel for tiny h
    if abs(v) < 1e-2:
        # (1+v)ln(1+v) - v = sum_{j>=2} (-1)^j v^j / (j(j-1)); the direct
        # expression cancels to roundoff here, the series does not
        num = v * v * (
            0.5
            + v
            * (
                -1.0 / 6.0
                + v
                * (
                    1.0 / 12.0
                    + v * (-1.0 / 20.0 + v * (1.0 / 30.0 + v * (-1.0 / 42.0 + v / 56.0)))
                )
            )
        )
    else:
        num = (1.0 + v) * math.log1p(v) - v
    return _exact_report(num / math.expm1(h), b, a)


def _exact_report(value: float, b: float, a: float) -> BoundReport:
    return BoundReport(
        "exact_uniform",
        max(value, 0.0),
        ("closed form for the log-uniform family; no hypotheses beyond b > 1, a > 0",),
        n=float(a),
        b=float(b),
    )


def folded_cdf_uniform(b: float, a: float, t: float) -> float:
    """CDF of the folded log-uniform variable: (x**t - 1)/(x - 1), x = b**(1/a)."""
    b = _require_base(b)
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise DensityError(f"exponent must be positive, got {a!r}")
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise DensityError(f"t must lie in [0, 1], got {t!r}")
    t = min(max(t, 0.0), 1.0)
    h = math.log(b) / float(a)
    if h > 700.0:
        if t == 0.0:
            return 0.0
        return math.exp((t - 1.0) * h) * (-math.expm1(-t * h)) / (-math.expm1(-h))
    return math.expm1(t * h) / math.expm1(h)
