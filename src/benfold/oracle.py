"""Independent numerical ground truth for the distance to uniform.

Everything here is self-contained on purpose: the quadrature is a
hand-rolled adaptive Simpson scheme and roots come from bisection, so
the oracle shares no code path with the closed forms and library-backed
integrals it is used to check.

The L1 integrand |f_n - 1| is non-smooth exactly at the fold images of
segment endpoints and at crossings of 1, so both are located first and
forced as breakpoints; integrating an absolute value adaptively across a
kink or a crossing wastes depth and ruins the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed import _require_positive_int
from .density import (
    FoldedDensity,
    PiecewiseDensity,
    _floor_snapped,
    _snap_int,
    fold_mod1,
    scale_density,
)

# relative inset used for endpoint evaluations, so one-sided limits are
# sampled instead of the other piece's value at a shared breakpoint
_EDGE_INSET = 1e-12
# adaptive Simpson gives up when its active interval set would outgrow this
_MAX_INTERVALS = 1 << 20
# rounds of bracket refinement in bisect_root
_BISECT_STEPS = 80
# interior points per bisect_root round on a closed-form fold, where one call
# on this many points costs about as much as a call on one
_SECTION_POINTS = 255
# scan samples closer to the level than this share of the values' magnitude
# are taken as roundoff, not as a side of a crossing
_ROUNDOFF_FLOOR = 1e-12


class BisectionError(ValueError):
    """Bisection was handed an interval without a sign change."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance.

    Carries the partial value and the accumulated error estimate.
    """

    def __init__(self, message, partial_value=float("nan"), error_estimate=float("inf")):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    max_depth: int = 60
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float
    method: str  # quadrature_L1 | crossing_point | monte_carlo
    detail: str = ""


def _make_batch_eval(fn):
    """Evaluate fn over arrays, probing once whether it vectorizes."""
    state = {"vec": None}

    def evalf(xs):
        if state["vec"] is None:
            try:
                out = np.asarray(fn(xs), dtype=float)
                if out.shape == xs.shape:
                    state["vec"] = True
                    return out
            except (TypeError, ValueError):
                pass
            state["vec"] = False
        if state["vec"]:
            return np.asarray(fn(xs), dtype=float)
        return np.array([float(fn(x)) for x in xs], dtype=float)

    return evalf


def adaptive_simpson(
    fn,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_depth: int = 60,
    breakpoints=(),
):
    """Integrate fn over [a, b] with a level-synchronous adaptive Simpson rule.

    [a, b] is split at the breakpoints inside it, and every piece starts
    with the tolerance abs_tol / pieces.  All intervals pending at a given
    depth, in every piece, are refined with a single batched evaluation, so
    vectorized integrands run at numpy speed however many pieces there are.
    Accepted intervals use Richardson extrapolation of the two Simpson
    estimates.  Endpoint samples are taken a hair inside each interval so
    breakpoints can sit exactly on jump discontinuities.

    Returns (value, error_estimate).  Raises QuadratureError if a piece hits
    max_depth with more unresolved error than its tolerance, or if an
    unattainable tolerance makes the active set outgrow 2**20 intervals.
    """
    if b <= a:
        return 0.0, 0.0
    evalf = _make_batch_eval(fn)
    edges = np.array(sorted({a, b, *(p for p in breakpoints if a < p < b)}))
    lo = edges[:-1]
    hi = edges[1:]
    n_pieces = len(lo)
    share = abs_tol / n_pieces
    eta = _EDGE_INSET * (hi - lo)
    f3 = evalf(np.concatenate([lo + eta, 0.5 * (lo + hi), hi - eta]))
    flo = f3[:n_pieces]
    fmid = f3[n_pieces : 2 * n_pieces]
    fhi = f3[2 * n_pieces :]
    s = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    tol = np.full(n_pieces, share)
    piece = np.arange(n_pieces)
    total = 0.0
    err_total = 0.0
    unresolved = np.zeros(n_pieces)
    for depth in range(max_depth + 1):
        mids = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mids)
        rmid = 0.5 * (mids + hi)
        fnew = evalf(np.concatenate([lmid, rmid]))
        flm = fnew[: len(lo)]
        frm = fnew[len(lo):]
        s_left = (mids - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mids) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (s_left + s_right - s) / 15.0
        done = np.abs(err) <= tol
        if depth == max_depth:
            unresolved += np.bincount(piece[~done], np.abs(err[~done]), n_pieces)
            done = np.ones_like(done)
        if done.any():
            total += float((s_left[done] + s_right[done] + err[done]).sum())
            err_total += float(np.abs(err[done]).sum())
        keep = ~done
        if not keep.any():
            break
        if 2 * int(keep.sum()) > _MAX_INTERVALS:
            partial = total + float(s[keep].sum())
            raise QuadratureError(
                f"tolerance {abs_tol:g} unattainable: active subdivision count "
                f"exceeded {_MAX_INTERVALS}",
                partial_value=partial,
                error_estimate=err_total + float(np.abs(err[keep]).sum()),
            )
        lo = np.concatenate([lo[keep], mids[keep]])
        hi = np.concatenate([mids[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        s = np.concatenate([s_left[keep], s_right[keep]])
        tol = np.concatenate([tol[keep] / 2.0, tol[keep] / 2.0])
        piece = np.concatenate([piece[keep], piece[keep]])
    if np.any(unresolved > share):
        raise QuadratureError(
            f"quadrature did not converge within depth {max_depth}",
            partial_value=total,
            error_estimate=err_total + float(unresolved.sum()),
        )
    return total, err_total + float(unresolved.sum())


def integrate(fn, a: float, b: float, cfg: QuadratureConfig | None = None):
    """Adaptive Simpson over [a, b] split at the config's forced breakpoints."""
    cfg = cfg or QuadratureConfig()
    return adaptive_simpson(fn, a, b, cfg.abs_tol, cfg.max_depth, cfg.breakpoints)


def bisect_root(fn, a: float, b: float, points: int = 1, ends=None) -> float:
    """Sectioned bisection for a sign change of fn on [a, b].

    Each round evaluates fn at `points` equally spaced interior points of
    the bracket in one call and keeps the first sub-bracket with a sign
    change, until no representable interior point is left.  points=1 is
    plain bisection on floats, so a scalar-only fn works and a round costs
    no array work; more points suit an fn whose cost barely grows with the
    number of points it is given.  ends, when given, holds (fn(a), fn(b)),
    which the caller already has, so fn is not evaluated there again.
    """
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    fa, fb = (fn(a), fn(b)) if ends is None else ends
    fa, fb = float(fa), float(fb)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BisectionError("bisection needs a sign change")
    w = np.arange(1, points + 1) / (points + 1)
    for _ in range(_BISECT_STEPS):
        if points == 1:
            m = 0.5 * (a + b)
            if not a < m < b:
                break  # the bracket is two adjacent floats; more rounds change nothing
            xs, ys = [m], [float(fn(m))]
            flips = [0] if fa * ys[0] <= 0.0 else []
        else:
            # a + (b - a) * w rounds monotonically in w, so xs stays sorted
            xs = a + (b - a) * w
            xs = xs[(a < xs) & (xs < b)]
            if not xs.size:
                break
            ys = np.asarray(fn(xs), dtype=float)
            flips = np.flatnonzero(fa * ys <= 0.0)
        if not len(flips):
            a, fa = float(xs[-1]), float(ys[-1])
            continue
        i = flips[0]
        if ys[i] == 0.0:
            return float(xs[i])
        b = float(xs[i])
        if i:
            a, fa = float(xs[i - 1]), float(ys[i - 1])
    return 0.5 * (a + b)


def _fold_kinks(f: PiecewiseDensity):
    """Images in (0, 1) of segment endpoints under folding; fn is non-smooth there."""
    kinks = set()
    for seg in f.segments:
        for e in (seg.lo, seg.hi):
            t = e - _floor_snapped(e)
            if _snap_int(t) is None and 0.0 < t < 1.0:
                kinks.add(t)
    return sorted(kinks)


def _section_points(folded: FoldedDensity) -> int:
    """Points per bisect_root round: many only where a call's cost is flat in them."""
    return _SECTION_POINTS if folded.route == "closed-form" else 1


def _abs_deviation(fn, level, pts, abs_tol, max_depth, scan_points, section_points=1):
    """Integral of |fn - level| from pts[0] to pts[-1], signs resolved per piece.

    Each interval between consecutive pts is scanned on a grid, and every
    sign change of fn - level between consecutive samples is refined by
    bisect_root (with section_points per round) into a further breakpoint.
    Samples within a roundoff floor of level (_ROUNDOFF_FLOOR times the
    values' magnitude) are skipped, so a function equal to level up to
    roundoff has no crossings; the area the floor can hide, floor times
    width, goes into the error estimate.  |fn - level| is then integrated
    over all sign-resolved pieces in one adaptive_simpson run.

    Returns (value, error_estimate, number of sign-resolved pieces).
    """

    def g(x):
        return np.asarray(fn(x), dtype=float) - level

    evalg = _make_batch_eval(g)
    bounds = [pts[0]]
    err = 0.0
    for p, q in zip(pts, pts[1:]):
        inset = _EDGE_INSET * (q - p)
        xs = np.linspace(p + inset, q - inset, scan_points)
        ys = evalg(xs)
        floor = _ROUNDOFF_FLOOR * (abs(level) + float(np.max(np.abs(ys))))
        above = np.abs(ys) > floor
        xs, ys = xs[above], ys[above]
        neg = ys < 0
        for i in np.flatnonzero(neg[:-1] != neg[1:]):
            root = bisect_root(
                g, float(xs[i]), float(xs[i + 1]), section_points, ends=(ys[i], ys[i + 1])
            )
            bounds.append(root)
        bounds.append(q)
        err += floor * (q - p)
    # inside a sign-resolved piece |g| differs from g only in sign, so the
    # Simpson decisions are those of integrating g piece by piece
    value, e = adaptive_simpson(
        lambda x: np.abs(g(x)), bounds[0], bounds[-1], abs_tol, max_depth, bounds[1:-1]
    )
    return value, err + e, len(bounds) - 1


def delta_numeric(
    f: PiecewiseDensity, n: int, cfg: QuadratureConfig | None = None
) -> OracleResult:
    """Distance of n*X mod 1 from uniform, by direct L1 quadrature.

    Folds the scaled density, forces breakpoints at the fold images of
    segment endpoints, splits again at crossings of 1 found by bisection,
    and integrates |f_n - 1| over the sign-resolved pieces in one Simpson run.
    """
    n = _require_positive_int(n)
    cfg = cfg or QuadratureConfig()
    scaled = scale_density(f, float(n))
    folded = fold_mod1(scaled)
    kinks = _fold_kinks(scaled)
    pieces = sorted({0.0, 1.0, *kinks, *(p for p in cfg.breakpoints if 0.0 < p < 1.0)})
    value, err, n_pieces = _abs_deviation(
        folded, 1.0, pieces, cfg.abs_tol, cfg.max_depth, 65, _section_points(folded)
    )
    return OracleResult(
        value=0.5 * value,
        error_estimate=0.5 * err,
        method="quadrature_L1",
        detail=(
            f"adaptive Simpson, n={n}, {n_pieces} sign-resolved pieces, "
            f"{len(kinks)} fold kinks, abs_tol={cfg.abs_tol:g}, fold {folded.route}"
        ),
    )


def delta_crossing_unimodal(
    folded: FoldedDensity, cfg: QuadratureConfig | None = None
) -> OracleResult:
    """Distance to uniform for a strictly monotone folded density.

    Locates the crossing point t0 where the density equals 1 by bisection,
    then returns |t0 - F(t0)| with F obtained by quadrature.  The caller
    certifies monotonicity; a density that never crosses 1 is accepted only
    if it is flat at 1 everywhere.
    """
    cfg = cfg or QuadratureConfig()

    def g(t):
        return np.asarray(folded(t), dtype=float) - 1.0

    a = _EDGE_INSET
    b = 1.0 - _EDGE_INSET
    ga = float(g(a))
    gb = float(g(b))
    if ga * gb >= 0:
        # no strict sign change: a monotone density with unit mass must then
        # be flat at 1, otherwise the monotonicity certificate is wrong
        dev = float(np.max(np.abs(_make_batch_eval(g)(np.linspace(a, b, 257)))))
        if dev < 1e-6:
            return OracleResult(
                value=0.0,
                error_estimate=dev,
                method="crossing_point",
                detail=(
                    "no crossing of 1; density is uniform within grid tolerance, "
                    f"fold {folded.route}"
                ),
            )
        raise ValueError(
            "folded density never crosses 1 but is not uniform; "
            "strict monotonicity hypothesis looks violated"
        )
    t0 = bisect_root(g, a, b, _section_points(folded), ends=(ga, gb))
    cdf_t0, err = integrate(folded, 0.0, t0, cfg)
    return OracleResult(
        value=abs(t0 - cdf_t0),
        error_estimate=err,
        method="crossing_point",
        detail=f"t0={t0:.15f}, cdf(t0)={cdf_t0:.15f}, fold {folded.route}",
    )


def delta_monte_carlo(
    sampler, n: int, samples: int, bins: int, seed: int
) -> OracleResult:
    """Histogram estimate of the distance of n*X mod 1 from uniform.

    sampler(rng, size) must return `size` i.i.d. draws of X.  The value is
    half the L1 distance between the empirical histogram and the flat one;
    it is biased low (a histogram cannot see within-bin deviation), so it is
    a statistical sanity check, never an acceptance arbiter.
    """
    if not (samples >= 1 and bins >= 1):
        raise ValueError("samples and bins must be positive")
    if samples < bins * bins:
        raise ValueError(
            f"need samples >= bins**2 for a stable histogram ({samples} < {bins**2})"
        )
    rng = np.random.default_rng(seed)
    draws = np.asarray(sampler(rng, samples), dtype=float)
    if draws.shape != (samples,):
        raise ValueError("sampler must return a 1-d array of the requested size")
    if not np.all(np.isfinite(draws)):
        raise ValueError("sampler produced non-finite values")
    t = (n * draws) % 1.0
    counts, _ = np.histogram(t, bins=bins, range=(0.0, 1.0))
    value = 0.5 * float(np.abs(counts / samples - 1.0 / bins).sum())
    sigma = 0.5 * math.sqrt(bins / samples)
    return OracleResult(
        value=value,
        error_estimate=sigma,
        method="monte_carlo",
        detail=(
            f"seed={seed}, samples={samples}, bins={bins}; histogram distance "
            "estimates a lower bound of the true distance"
        ),
    )


def inverse_cdf_sampler(f: PiecewiseDensity):
    """Exact sampler for a piecewise density via per-segment inverse CDFs.

    Segments are chosen by mass, then inverted in closed form by kind:
    constants uniformly, affine pieces by solving the quadratic CDF,
    exponentials by the log formula.  Custom segments fall back to a fine
    numerical inverse.
    """
    masses = np.array(f.segment_masses)
    weights = masses / masses.sum()

    def sample(rng, size):
        out = np.empty(size, dtype=float)
        which = rng.choice(len(f.segments), size=size, p=weights)
        u = rng.random(size)
        for i, seg in enumerate(f.segments):
            m = which == i
            if not m.any():
                continue
            out[m] = _invert_segment(seg, masses[i], u[m])
        return out

    return sample


def _invert_segment(seg, mass, u):
    lo, width = seg.lo, seg.hi - seg.lo
    if seg.kind == "const" or (seg.kind == "linear" and seg.params[0] == 0.0):
        return lo + u * width
    if seg.kind == "linear":
        # solve (v_lo + s*(x-lo)/2)*(x-lo) = u*mass for x-lo
        s, c = seg.params
        v_lo = s * lo + c
        return lo + (np.sqrt(v_lo * v_lo + 2.0 * s * u * mass) - v_lo) / s
    if seg.kind == "exp":
        amp, r = seg.params
        return np.log(np.exp(r * lo) + u * r * mass / amp) / r
    return _numeric_inverse(seg, mass, u)


def _numeric_inverse(seg, mass, u):
    xs = np.linspace(seg.lo, seg.hi, 4097)
    ys = seg(xs)
    cdf = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) * 0.5 * np.diff(xs))])
    cdf /= cdf[-1]
    return np.interp(u, cdf, xs)


def uniform_sampler(lo: float, hi: float):
    def sample(rng, size):
        return rng.uniform(lo, hi, size)

    return sample


def uniform_log_sampler(b: float):
    """Draws of log_b(U[1, b])."""
    lnb = math.log(b)

    def sample(rng, size):
        return np.log(rng.uniform(1.0, b, size)) / lnb

    return sample


def averaging_residual(fn, a: float, b: float, cfg: QuadratureConfig | None = None):
    """Mean value y of fn on [a, b] and the integral of |fn - y|.

    Returns (residual, y, error_estimate).  Crossings of the mean are
    located by bisection and the residual is assembled from sign-resolved
    pieces, so piecewise-constant and affine inputs come out exact.
    """
    cfg = cfg or QuadratureConfig()
    total, err_mean = integrate(fn, a, b, cfg)
    y = total / (b - a)
    pts = sorted({a, b, *(p for p in cfg.breakpoints if a < p < b)})
    residual, err, _ = _abs_deviation(
        fn, y, pts, cfg.abs_tol, cfg.max_depth, scan_points=129
    )
    return residual, y, err_mean + err


def check_averaging_inequality(
    fn,
    a: float,
    b: float,
    c: float,
    d: float,
    convex_monotone: bool,
    cfg: QuadratureConfig | None = None,
) -> bool:
    """Check the mean-deviation inequality for fn: [a, b] -> [c, d].

    The deviation integral of any such fn is at most (b-a)(d-c)/2, and at
    most (b-a)(d-c)/4 when fn is monotone and convex.  Used as a randomized
    property harness; equality holds for two-valued half-half functions and
    for straight lines respectively.
    """
    if not (b > a and d >= c):
        raise ValueError("need b > a and d >= c")
    cfg = cfg or QuadratureConfig()
    residual, _, err = averaging_residual(fn, a, b, cfg)
    limit = (b - a) * (d - c) / (4.0 if convex_monotone else 2.0)
    slack = max(1e-10, 10.0 * err)
    return residual <= limit + slack
