"""Upper bounds for the distance of a fold from uniform, for any density.

Three families live here: the step-density L1 bound (valid for any density),
the variation bounds TV/4 and TV/(4n) with the convexity-boosted
(sup-inf)/8 variant, and the rigorous truncated Parseval sum with the
log-uniform coefficients and tail majorant it is fed.  The log-uniform
closed forms live in `closed` and are re-exported here.

Every report carries the hypotheses the method relied on and where each
came from: the segment kinds, or the caller's tail bound.  Every segment is
const, linear or exp, so the shape hypotheses are certified by kind; an
arbitrary smooth density is bounded through a piecewise approximation of it,
and the bound certifies that approximation.  The (sup-inf)/8 bound is
certified or refused, never assumed.
"""

from __future__ import annotations

import math
import sys

# the closed forms are re-exported, so benfold.bounds.<name> resolves to them
from .closed import (
    METHODS,
    BoundReport,
    DensityError,
    ExactUniformParams,
    VacuousBoundError,
    _require_base,
    _require_positive,
    _require_positive_int,
    bound_fourier_closed,
    bound_uniform_log_tv,
    exact_delta_uniform,
    folded_cdf_uniform,
    fourier_coeff_uniform_log,
)
from .density import PiecewiseDensity, _snap_int, tv_full_line, tv_integer_delineated


# ---------------------------------------------------------------------------
# step-density bound (valid for every density)
# ---------------------------------------------------------------------------


def bound_step_density(f: PiecewiseDensity) -> BoundReport:
    """Half the L1 distance between f and its per-cell averaged step density.

    The step density matches f's mass on every integer cell and folds to the
    exact uniform, so half the L1 gap bounds the distance of X mod 1 from
    uniform with no shape hypotheses at all; every cell integral and level
    crossing is in closed form.  Exact when the support spans a single cell.
    """
    n_lo, m_hi = f.delineated_interval()
    total = 0.0
    for k in range(n_lo, m_hi):
        s_k = sum(seg.mass(k, k + 1) for seg in f.segments)
        total += _cell_abs_deviation(f, float(k), float(k + 1), s_k)
    hypotheses = ("no shape hypotheses required", "cell integrals: closed form")
    return BoundReport("step_density", 0.5 * total, hypotheses)


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


_VARIATION_HYPOTHESIS = "variation: exact, every segment monotone by its kind"


def bound_tv_quarter(f: PiecewiseDensity) -> BoundReport:
    """Quarter of the integer-delineated variation bounds the fold distance."""
    tv = tv_integer_delineated(f)
    if not math.isfinite(tv):
        raise VacuousBoundError("variation is infinite; TV/4 carries no information")
    return BoundReport("tv_quarter", tv / 4.0, (_VARIATION_HYPOTHESIS,))


def bound_tv_scaled(f: PiecewiseDensity, n) -> BoundReport:
    """Variation bound for the scale-n fold: TV/(4n).

    Integer scales use the integer-delineated variation.  Real scales lose
    the integer-delineation structure, so the full-line variation is used
    instead (it is never smaller, keeping the bound sound).
    """
    scale = _require_positive(n, "scale")
    n_int = _snap_int(scale)
    if n_int is not None and n_int >= 1:
        tv = tv_integer_delineated(f)
        route = "integer scale: integer-delineated variation"
    else:
        tv = tv_full_line(f)
        route = "real scale: full-line variation"
    value = tv / (4.0 * scale)
    if not math.isfinite(value):
        raise VacuousBoundError(f"TV/(4n) = {tv!r}/(4*{scale!r}) is not finite: no information")
    return BoundReport("tv_scaled", value, (route, _VARIATION_HYPOTHESIS), n=scale)


def bound_convex_eighth(f: PiecewiseDensity) -> BoundReport:
    """Convexity-boosted bound (sup f - inf f)/8 over the integer interval of f.

    The eighth constant treats straight lines as the worst monotone convex
    shape, which holds when one affine or exponential segment covers the
    whole interval; a ramp that idles at zero before rising, or a power-law
    profile like x**1.5, exceeds it.  So only that case is certified, from
    the segment's kind alone, and anything else raises DensityError.
    """
    seg = f.segments[0]
    n_lo, m_hi = f.delineated_interval()
    if (
        len(f.segments) > 1
        or not n_lo - 1e-12 <= seg.lo <= n_lo + 1e-12
        or not m_hi - 1e-12 <= seg.hi <= m_hi + 1e-12
    ):
        raise DensityError(f"certified only for one const, linear or exp segment covering ({n_lo:g}, {m_hi:g})")
    # const, linear and exp (amp > 0) are monotone and convex by construction
    label = "certified (segment kind)"
    hyp = (f"monotone: {label}", f"convex: {label}", f"one affine or exponential segment: {label}")
    return BoundReport("convex_eighth", abs(float(seg(seg.hi)) - float(seg(seg.lo))) / 8.0, hyp)


# ---------------------------------------------------------------------------
# Fourier route
# ---------------------------------------------------------------------------


def uniform_log_coeffs(b: float):
    b = _require_base(b)
    return lambda k: fourier_coeff_uniform_log(b, k)


def uniform_log_tail_bound(b: float, n) -> "callable":
    """Tail majorant for the log-uniform coefficients at scale n.

    |coeff(m)|^2 < (ln b)^2/(2 pi m)^2, so the two-sided tail beyond K sums
    below (ln b)^2/(2 pi^2 n^2 K).  Where that is no positive normal double
    the coefficients underflow too, and VacuousBoundError is raised.
    """
    b = _require_base(b)
    n = _require_positive_int(n)
    lnb = math.log(b)

    def tail(k_max: int) -> float:
        value = lnb * lnb / (2.0 * math.pi**2 * n * n * k_max)
        if value < sys.float_info.min:
            raise VacuousBoundError(f"the tail majorant underflows at n={n:g}, k_max={k_max}: no certified bound")
        return value

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
