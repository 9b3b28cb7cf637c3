"""Independent numerical ground truth for the distance to uniform.

Everything here is self-contained on purpose: the quadrature is a
hand-rolled adaptive Simpson scheme and roots come from ITP bracketing, so
the oracle shares no code path with the closed forms it is used to check.
Both run on Python floats; a fold is evaluated on lists of points, in
`math` without numpy.
The fold itself, `fold_mod1`, lives here too: nothing in `bounds` folds, so
only the oracle loads `dataclasses` for the `FoldedDensity` it returns.

The L1 integrand |f_n - 1| is non-smooth exactly at the fold images of
segment endpoints and at crossings of 1, so both are located first and
forced as breakpoints; integrating an absolute value adaptively across a
kink or a crossing wastes depth and ruins the error estimate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, eq, lt, ne
from typing import Callable

from .closed import BisectionError, QuadratureError, _Record, _require_positive
from .density import PiecewiseDensity, _LazyNumpy, _snap_int, scale_density

np = _LazyNumpy(globals())  # for Monte Carlo, samplers and vectorized integrands

# relative inset used for endpoint evaluations, so one-sided limits are
# sampled instead of the other piece's value at a shared breakpoint
_EDGE_INSET = 1e-12
# adaptive Simpson gives up when its active interval set would outgrow this
_MAX_INTERVALS = 1 << 20
# an error estimate (S_left + S_right - S)/15 that is not 0 is at least about
# eps/60 of |S|; a tolerance below this share of |S_left| + |S_right| + |S|,
# 8x under that, is met only by an estimate of exactly 0
_ROUNDING_FLOOR = 2.0**-52 / 960.0
# a tolerance below this share of scale * width, for samples computed from
# values of magnitude `scale`, is under their rounding: converging runs sit
# 1.4x above it, uniform-log b=10, n=1000 at abs_tol 1e-18 1.4x below
_SCALE_FLOOR = 2.0**-52 / 320.0
# see adaptive_simpson; on 780 runs at abs_tol 1e-16 .. 3e-19 none that converge stop
_STALL_OPEN, _STALL_GROWTH, _STALL_LEVELS = 4096, 3.0, 4
# rounds of bracket refinement in bisect_root
_BISECT_STEPS = 80
# scan samples closer to the level than this share of the values' magnitude
# are taken as roundoff, not as a side of a crossing
_ROUNDOFF_FLOOR = 1e-12


class QuadratureConfig(_Record):
    __slots__ = _fields = ("abs_tol", "breakpoints")

    def __init__(self, abs_tol: float = 1e-10, breakpoints=()):
        if not abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        self._set(abs_tol=abs_tol, breakpoints=tuple(breakpoints))


_DEFAULT_CONFIG = QuadratureConfig()  # records are immutable, so every caller can share it


class OracleResult(_Record):
    __slots__ = _fields = ("value", "error_estimate", "method", "detail")

    def __init__(self, value: float, error_estimate: float, method: str, detail: str = ""):
        # method: quadrature_L1 | crossing_point | monte_carlo
        self._set(value=value, error_estimate=error_estimate, method=method, detail=detail)


@dataclass(frozen=True)
class FoldedDensity:
    """Density of X mod 1 on [0, 1), as a sum of integer translates.

    kinks holds the sorted points of (0, 1) where fn may be non-smooth.
    monotone holds, per interval of (0, *kinks), whether fn is monotone
    there, so that it crosses a level at most once and has its extremes at
    the interval's ends; () where that is not known, as for a fold given by
    hand.  Being fields, both are kept by `dataclasses.replace(folded, fn=...)`.
    """

    fn: Callable
    kinks: tuple = ()
    monotone: tuple = ()

    def __call__(self, t):
        return self.fn(t)


def fold_mod1(f: PiecewiseDensity) -> FoldedDensity:
    """Fold f modulo 1: eval(t) = sum over integers k of f(t + k), nothing truncated.

    t owns the translates k of a segment with lo <= t + k < hi.  An end e folds
    to (k_e, t_e): the integer it snaps to and 0, else floor(e) and
    e - floor(e); so k_lo + (t < t_lo) <= k < k_hi + (t < t_hi).  The end
    images other than 0 are the fold's kinks.  Between two consecutive kinks
    every segment owns one fixed range, the one its images pick at the
    interval's left end.  Each range some interval uses is bound once into a
    `Segment.series` list kernel, and each interval's into one that adds them
    in segment order from 0.0.  fn._on_list sends each point of [0, 1) to its
    interval by a bisect on the kinks and calls each interval's kernel once; a
    number or an array goes through it too, reduced by t - floor(t).  An
    interval is monotone when the `Segment.direction`s of the series it sums,
    flat ones aside, agree, or all are const or linear: then the sum is affine.
    """
    pieces = []  # per segment: its two images sorted and a kernel (or None) per range
    for seg in f.segments:
        width = seg.hi - seg.lo
        (k0, t0), (k1, t1) = _fold_end(seg.lo, width), _fold_end(seg.hi, width)
        below, above = min(t0, t1), max(t0, t1)
        # (k0, k1, whether an interval uses it) of the ranges below the lower
        # image, between the two and above the upper one
        ranges = ((k0 + 1, k1 + 1, below > 0.0), (k0 + (t0 > t1), k1 + (t1 > t0), below < above), (k0, k1, True))
        pieces.append((below, above, *[seg.series(a, b) if used and b > a else None for a, b, used in ranges]))
    kinks = tuple(sorted({t for piece in pieces for t in piece[:2]} - {0.0}))
    kernels, monotone = [], []  # per interval [e, next kink): its kernels summed, whether it is monotone
    for e in (0.0, *kinks):
        owned = [first if e < below else middle if e < above else last for below, above, first, middle, last in pieces]
        kernels.append(_summed([kernel for kernel in owned if kernel is not None]))
        summed = [seg for seg, kernel in zip(f.segments, owned) if kernel is not None]
        ways = {seg.direction for seg in summed} - {0}
        monotone.append(len(ways) <= 1 or {seg.kind for seg in summed} <= {"const", "linear"})
    return FoldedDensity(_fold_fn(kinks, kernels), kinks, tuple(monotone))


def _summed(kernels):
    # one kernel as it is; else ts -> 0.0 + kernels[0](ts) + kernels[1](ts) + ..., pointwise
    if len(kernels) == 1:
        return kernels[0]

    def total(ts):
        out = [0.0] * len(ts)
        for kernel in kernels:
            out = list(map(add, out, kernel(ts)))
        return out

    return total


def _fold_fn(kinks, kernels):
    # fn, the fold at a number or an array, and fn._on_list, on a list of [0, 1)
    def on_list(ts):
        if not kinks:
            return kernels[0](ts)
        where = list(map(bisect_right, repeat(kinks), ts))
        owners = set(where)
        if len(owners) == 1:
            return kernels[where[0]](ts)
        values = [None] * len(kernels)
        for i in owners:
            values[i] = iter(kernels[i](list(compress(ts, map(eq, where, repeat(i))))))
        return list(map(next, map(values.__getitem__, where)))

    def fn(t):
        if type(t) in (float, int):
            return on_list([t if 0.0 <= t < 1.0 else t - math.floor(t)])[0]
        ts = np.asarray(t, dtype=float)
        out = np.array(on_list([x if 0.0 <= x < 1.0 else x - math.floor(x) for x in ts.reshape(-1).tolist()]))
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)

    fn._on_list = on_list
    return fn


class _Integral(tuple):
    """(value, error_estimate), with the value of each piece in `pieces`."""

    def __new__(cls, value, error, pieces):
        out = super().__new__(cls, (value, error))
        out.pieces = pieces
        return out


def _evaluator(fn, lo=0.0, hi=1.0):
    """Evaluate fn on a list of floats of [lo, hi], as a list of floats.

    A list form `_on_list` (a fold's takes points of [0, 1)) is used as it
    is where [lo, hi] lies in [0, 1].  Otherwise fn is probed on the first
    point: a Python number back means a `map` of fn, anything else a
    vectorized call, and a `map` after all if that call fails.
    """
    call = fn.fn if isinstance(fn, FoldedDensity) else fn  # skip FoldedDensity.__call__
    on_list = getattr(call, "_on_list", None)
    if on_list is not None and 0.0 <= lo and hi <= 1.0:
        return on_list
    vec = None

    def evalf(xs):
        nonlocal vec
        if vec is False:
            return list(map(float, map(call, xs)))
        head = []
        if vec is None:
            y = call(xs[0])
            vec = type(y) not in (float, int)
            head, xs = [float(y)], xs[1:]
        if vec and xs:
            try:
                ys = np.asarray(call(np.array(xs)), dtype=float)
                if ys.shape == (len(xs),):
                    return head + ys.tolist()
            except (TypeError, ValueError):
                pass
            vec = False
        return head + list(map(float, map(call, xs)))

    return evalf


def _linspace(a: float, b: float, num: int) -> list[float]:
    # the points of np.linspace(a, b, num), as floats
    step = (b - a) / (num - 1)
    return [a + i * step for i in range(num - 1)] + [b]


def adaptive_simpson(
    fn, a: float, b: float, abs_tol: float = 1e-10, max_depth: int = 60, breakpoints=(), scale=0.0
):
    """Integrate fn over [a, b] with a level-synchronous adaptive Simpson rule.

    [a, b] is split at the breakpoints inside it, and every piece starts
    with the tolerance abs_tol / pieces.  All intervals pending at a given
    depth, in every piece, are refined with one evaluation of their points:
    a list form's call (a fold's calls each interval's kernel once), one
    numpy call for a vectorized fn, a `map` for a scalar one.  Accepted
    intervals use Richardson extrapolation of the two Simpson estimates.
    Endpoints are sampled a hair inside each interval, so a breakpoint may sit on a jump.

    Returns (value, error_estimate), a tuple whose `pieces` attribute holds
    the value of each piece between consecutive breakpoints.  Raises
    QuadratureError if a piece hits max_depth with more unresolved error
    than its tolerance, or if the tolerance is unattainable: a rejected
    interval's tolerance is below the rounding of its Simpson estimates
    (_ROUNDING_FLOOR) or of the values' magnitude `scale` (_SCALE_FLOOR),
    the open error stopped falling, or 2**20 intervals are open.  Under the
    rounding of `scale` an error estimate is noise that halves with the
    interval, as the tolerance does, so the open set dies out or grows
    geometrically: it counts as growing once 4096 or more open intervals are
    such noise and their error over tolerance tripled in four levels.
    """
    if b <= a:
        return _Integral(0.0, 0.0, ())
    evalf = _evaluator(fn, a, b)
    edges = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    n_pieces = len(edges) - 1
    share = abs_tol / n_pieces
    lo, hi = edges[:-1], edges[1:]
    f3 = evalf(
        [p + _EDGE_INSET * (q - p) for p, q in zip(lo, hi)]
        + [0.5 * (p + q) for p, q in zip(lo, hi)]
        + [q - _EDGE_INSET * (q - p) for p, q in zip(lo, hi)]
    )
    # active intervals: (lo, hi, f(lo), f(mid), f(hi), Simpson estimate, piece);
    # all of them have the same depth and so the same tolerance
    active = [
        (p, q, x, y, z, (q - p) / 6.0 * (x + 4.0 * y + z), i)
        for i, (p, q, x, y, z) in enumerate(zip(lo, hi, f3, f3[n_pieces:], f3[2 * n_pieces :]))
    ]
    tol, errs, unresolved = share, [], [0.0] * n_pieces
    parts = [[] for _ in range(n_pieces)]  # accepted values per piece
    noise = []  # open error over tolerance, per level
    for depth in range(max_depth + 1):
        fnew = evalf(
            [0.5 * (iv[0] + 0.5 * (iv[0] + iv[1])) for iv in active]
            + [0.5 * (0.5 * (iv[0] + iv[1]) + iv[1]) for iv in active]
        )
        kept, open_val, open_err, open_width, floored = [], 0.0, 0.0, 0.0, False
        reach = tol / _ROUNDING_FLOOR  # |S_left| + |S_right| + |S| above this rounds past tol
        refine = depth < max_depth
        for (p, q, fp, fm, fq, s, i), fl, fr in zip(active, fnew, fnew[len(active) :]):
            m = 0.5 * (p + q)
            s_left = (m - p) / 6.0 * (fp + 4.0 * fl + fm)
            s_right = (q - m) / 6.0 * (fm + 4.0 * fr + fq)
            err = (s_left + s_right - s) / 15.0
            size = abs(err)
            if not size <= tol:
                if refine:
                    kept += [(p, m, fp, fl, fm, s_left, i), (m, q, fm, fr, fq, s_right, i)]
                    open_val += s_left + s_right + err
                    open_err += size
                    open_width += q - p
                    floored = floored or abs(s_left) + abs(s_right) + abs(s) > reach
                    floored = floored or scale * (q - p) * _SCALE_FLOOR > tol
                    continue
                unresolved[i] += size
            parts[i].append(s_left + s_right + err)
            errs.append(size)
        noise.append(open_err / tol)
        stalled = len(kept) >= _STALL_OPEN and open_err <= 2.0**-52 * scale * open_width
        stalled = stalled and depth >= _STALL_LEVELS and noise[-1] >= _STALL_GROWTH * noise[-1 - _STALL_LEVELS]
        if floored or stalled or len(kept) > _MAX_INTERVALS:
            why = "below the rounding floor of the Simpson estimates" if floored else "the open error stopped falling"
            why = why if floored or stalled else f"active subdivision count exceeded {_MAX_INTERVALS}"
            raise QuadratureError(
                f"tolerance {abs_tol:g} unattainable: {why}",
                math.fsum([*map(math.fsum, parts), open_val]),
                math.fsum(errs) + open_err,
            )
        active, tol = kept, tol / 2.0
        if not active:
            break
    pieces = [math.fsum(v) for v in parts]
    value = math.fsum(pieces)
    err_total = math.fsum(errs) + math.fsum(unresolved)
    if any(u > share for u in unresolved):
        message = f"quadrature did not converge within depth {max_depth}"
        raise QuadratureError(message, value, err_total)
    return _Integral(value, err_total, tuple(pieces))


def integrate(fn, a: float, b: float, cfg: QuadratureConfig | None = None):
    """Adaptive Simpson over [a, b] split at the config's forced breakpoints."""
    cfg = cfg or _DEFAULT_CONFIG
    return adaptive_simpson(fn, a, b, cfg.abs_tol, breakpoints=cfg.breakpoints)


def bisect_root(fn, a: float, b: float, ends=None) -> float:
    """A sign change of fn on [a, b] by ITP, one scalar point per round.

    ITP (Oliveira & Takahashi, ACM TOMS 2020) moves the regula falsi point
    0.2 * w**2 / (b - a) toward the midpoint of the width-w bracket, then
    near enough to it that the bracket after round j is no wider than
    bisection's after round j - 1: superlinear on a smooth fn, one round more
    than bisection at worst.  The bracket shrinks on Python floats until no
    representable midpoint is left, so a scalar-only fn works.  ends, when
    given, holds (fn(a), fn(b)), which the caller already has.
    """
    fa, fb = map(float, (fn(a), fn(b)) if ends is None else ends)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise BisectionError("bisection needs a sign change")
    budget = b - a  # the widest bracket this round may leave
    k1 = 0.2 / budget
    for _ in range(_BISECT_STEPS):
        m = 0.5 * (a + b)
        if not a < m < b:
            break  # the bracket is two adjacent floats; more rounds change nothing
        w = b - a
        radius = budget - 0.5 * w
        budget *= 0.5
        xf = a - fa * w / (fb - fa)  # regula falsi
        delta = k1 * w * w
        x = xf - math.copysign(delta, xf - m) if delta <= abs(xf - m) else m
        if not abs(x - m) <= radius:
            x = m + math.copysign(radius, xf - m)
        if not a < x < b:
            x = m
        fx = float(fn(x))
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return 0.5 * (a + b)


def _fold_end(e: float, width: float):
    # (k, image mod 1) of an endpoint: (the integer it snaps to, 0.0) or (floor(e), e - floor(e))
    k = _snap_int(e, width)
    return (k, 0.0) if k is not None else (math.floor(e), e - math.floor(e))


def _abs_deviation(fn, level, pts, abs_tol, scans):
    """Integral of |fn - level| from pts[0] to pts[-1], signs resolved per piece.

    Each interval between consecutive pts is scanned on a grid of as many
    points as scans gives for it, and every sign change of fn - level
    between consecutive samples is refined by bisect_root into a further
    breakpoint.  2 points, the interval's two inset ends, suffice where fn
    is monotone: it changes sign there at most once, and its extremes are
    those ends.  Samples within a roundoff floor
    of level (_ROUNDOFF_FLOOR times the values' magnitude) are skipped, so a
    function equal to level up to roundoff has no crossings; the area the
    floor can hide, floor times width, goes into the error estimate.  An
    interval whose samples all lie on one side, past the floor, has no sign
    change; elsewhere the sign changes are found by passes in C over the
    kept samples, all of them when none lies within the floor.
    |fn - level| is then integrated over all sign-resolved pieces in one
    adaptive_simpson run, through a list form over the scan's evaluator.
    Returns (value, error_estimate, pieces, signed integral of fn - level),
    the last from each piece's value with the sign of its scan samples (0
    where they all sit within the floor).  The largest |level| + |fn| on
    the scans is Simpson's `scale`.
    """
    evalf = _evaluator(fn, pts[0], pts[-1])
    f = fn.fn if isinstance(fn, FoldedDensity) else fn  # skip FoldedDensity.__call__
    bounds, signs, err, scale = [pts[0]], [], 0.0, 0.0

    def gap(x):
        return f(x) - level

    def close(x, y):
        # end the current piece at x, signed as its scan samples y; none is
        # empty, though a scan end may round onto a breakpoint and its jump
        if x > bounds[-1]:
            bounds.append(x)
            signs.append(math.copysign(1.0, y) if y else 0.0)

    for p, q, scan_points in zip(pts, pts[1:], scans):
        inset = _EDGE_INSET * (q - p)
        xs = _linspace(p + inset, q - inset, scan_points)
        fs = evalf(xs)
        # max |f| and max |f - level| sit at the extremes of fs, since
        # rounding y - level is monotone in y
        f_lo, f_hi = min(fs), max(fs)
        y_lo, y_hi = f_lo - level, f_hi - level
        scale = max(scale, abs(level) + max(abs(f_lo), abs(f_hi)))
        floor = _ROUNDOFF_FLOOR * (abs(level) + max(abs(y_lo), abs(y_hi)))
        if y_lo > floor or y_hi < -floor:  # every sample on one side, past the floor
            close(q, y_lo)
        else:
            ys = [y - level for y in fs]
            kept = list(map(lt, repeat(floor), map(abs, ys)))  # abs(y) > floor
            if not all(kept):
                xs, ys = list(compress(xs, kept)), list(compress(ys, kept))
            below = list(map(lt, ys, repeat(0.0)))
            for i in compress(count(), map(ne, below, below[1:])):
                close(bisect_root(gap, xs[i], xs[i + 1], ends=(ys[i], ys[i + 1])), ys[i])
            close(q, ys[-1] if ys else 0.0)
        err += floor * (q - p)

    def deviation(x):
        return abs(f(x) - level)

    deviation._on_list = lambda xs: [abs(y - level) for y in evalf(xs)]
    # inside a sign-resolved piece |fn - level| differs from fn - level only
    # in sign, so the Simpson decisions are those of integrating fn - level piece by piece
    result = adaptive_simpson(deviation, pts[0], pts[-1], abs_tol, breakpoints=bounds[1:-1], scale=scale)
    signed = math.fsum(s * v for s, v in zip(signs, result.pieces))
    return result[0], err + result[1], len(bounds) - 1, signed


def delta_numeric(f: PiecewiseDensity, n: float, cfg: QuadratureConfig | None = None) -> OracleResult:
    """Distance of n*X mod 1 from uniform, by direct L1 quadrature, for a finite real n > 0.

    Folds the scaled density, forces breakpoints at the fold images of
    segment endpoints, splits again at crossings of 1 found by bisect_root,
    and integrates |f_n - 1| over the sign-resolved pieces in one Simpson run.
    The crossings are looked for on 65 scan points per interval between
    breakpoints, or on its two ends where the fold marks its kink interval
    monotone.
    The same run's signed piece values give the integral of f_n - 1, which
    is 0 for a density of mass 1; where it is not, within max(10 * error
    estimate, 1e-9), the quadrature missed part of the fold and
    QuadratureError is raised.
    """
    cfg = cfg or _DEFAULT_CONFIG
    folded = fold_mod1(scale_density(f, n))  # which refuses an n that is no finite real > 0
    pts = sorted({0.0, 1.0, *folded.kinks, *(p for p in cfg.breakpoints if 0.0 < p < 1.0)})
    monotone = folded.monotone  # () for a fold built without it
    # 2 points on a monotone kink interval, unless its inset upper end rounds
    # onto the next kink and so reads the next interval's value
    scans = [
        2 if monotone and monotone[bisect_right(folded.kinks, p)] and q - _EDGE_INSET * (q - p) < q else 65
        for p, q in zip(pts, pts[1:])
    ]
    value, err, n_pieces, signed = _abs_deviation(folded, 1.0, pts, cfg.abs_tol, scans)
    if abs(signed) > max(10.0 * err, 1e-9):
        message = f"fold mass is off by {signed:.3g}: the quadrature missed part of the fold"
        raise QuadratureError(message, 0.5 * value, 0.5 * err)
    detail = (
        f"adaptive Simpson, n={n}, {n_pieces} sign-resolved pieces, "
        f"{len(folded.kinks)} fold kinks, abs_tol={cfg.abs_tol:g}, "
        f"{sum(monotone)} of {len(folded.kinks) + 1} kink intervals monotone"
    )
    return OracleResult(0.5 * value, 0.5 * err, "quadrature_L1", detail)


def delta_crossing_unimodal(
    folded: FoldedDensity, cfg: QuadratureConfig | None = None
) -> OracleResult:
    """Distance to uniform for a strictly monotone folded density.

    Locates the crossing point t0 where the density equals 1 by bisect_root,
    then returns |t0 - F(t0)| with F obtained by quadrature.  The caller
    certifies monotonicity; a density that never crosses 1 is accepted only
    if it is flat at 1 everywhere.
    """
    cfg = cfg or _DEFAULT_CONFIG

    def g(t):
        return folded(t) - 1.0

    a, b = _EDGE_INSET, 1.0 - _EDGE_INSET
    ga, gb = float(g(a)), float(g(b))
    if ga * gb >= 0:
        # no strict sign change: a monotone density with unit mass must then
        # be flat at 1, otherwise the monotonicity certificate is wrong
        dev = max(abs(y - 1.0) for y in _evaluator(folded)(_linspace(a, b, 257)))
        if dev < 1e-6:
            detail = "no crossing of 1; density is uniform within grid tolerance"
            return OracleResult(0.0, dev, "crossing_point", detail)
        raise ValueError(
            "folded density never crosses 1 but is not uniform; "
            "strict monotonicity hypothesis looks violated"
        )
    t0 = bisect_root(g, a, b, ends=(ga, gb))
    cdf_t0, err = integrate(folded, 0.0, t0, cfg)
    detail = f"t0={t0:.15f}, cdf(t0)={cdf_t0:.15f}"
    return OracleResult(abs(t0 - cdf_t0), err, "crossing_point", detail)


def delta_monte_carlo(sampler, n: float, samples: int, bins: int, seed: int) -> OracleResult:
    """Histogram estimate of the distance of n*X mod 1 from uniform, for a finite real n > 0.

    sampler(rng, size) must return `size` i.i.d. draws of X.  The value is
    half the L1 distance between the empirical histogram and the flat one;
    it is biased low (a histogram cannot see within-bin deviation), so it is
    a statistical sanity check, never an acceptance arbiter.
    """
    n = _require_positive(n, "scale factor")
    if not (samples >= 1 and bins >= 1):
        raise ValueError("samples and bins must be positive")
    if samples < bins * bins:
        raise ValueError(f"need samples >= bins**2 for a stable histogram ({samples} < {bins**2})")
    rng = np.random.default_rng(seed)
    draws = np.asarray(sampler(rng, samples), dtype=float)
    if draws.shape != (samples,):
        raise ValueError("sampler must return a 1-d array of the requested size")
    if not np.all(np.isfinite(draws)):
        raise ValueError("sampler produced non-finite values")
    t = draws * n  # the one temporary, folded in place; the sampler's array is never written
    t %= 1.0
    counts, _ = np.histogram(t, bins=bins, range=(0.0, 1.0))
    value = 0.5 * float(np.abs(counts / samples - 1.0 / bins).sum())
    sigma = 0.5 * math.sqrt(bins / samples)
    detail = "histogram distance estimates a lower bound of the true distance"
    return OracleResult(value, sigma, "monte_carlo", f"seed={seed}, samples={samples}, bins={bins}; {detail}")


def inverse_cdf_sampler(f: PiecewiseDensity):
    """Exact sampler for a piecewise density via per-segment inverse CDFs.

    Each segment takes a multinomial share of the draws by mass and inverts
    as many uniforms by kind: constants uniformly, affine pieces by the
    quadratic CDF, exponentials by the log formula.  Blocks are joined and
    shuffled, so the draws stay i.i.d.
    """
    masses = np.array(f.segment_masses)
    weights = masses / masses.sum()

    def sample(rng, size):
        counts = rng.multinomial(size, weights)
        blocks = [_invert_segment(seg, mass, rng.random(k)) for seg, mass, k in zip(f.segments, masses, counts) if k]
        if len(blocks) == 1:
            return blocks[0]
        out = np.concatenate(blocks) if blocks else np.empty(0)
        rng.shuffle(out)
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
    amp, r, at = seg.params
    return at + np.log(np.exp(r * (lo - at)) + u * r * mass / amp) / r


def averaging_residual(fn, a: float, b: float, cfg: QuadratureConfig | None = None):
    """Mean value y of fn on [a, b] and the integral of |fn - y|.

    Returns (residual, y, error_estimate).  Crossings of the mean are
    located by bisect_root and the residual is assembled from sign-resolved
    pieces, so piecewise-constant and affine inputs come out exact.
    """
    cfg = cfg or _DEFAULT_CONFIG
    total, err_mean = integrate(fn, a, b, cfg)
    y = total / (b - a)
    pts = sorted({a, b, *(p for p in cfg.breakpoints if a < p < b)})
    residual, err, _, _ = _abs_deviation(fn, y, pts, cfg.abs_tol, repeat(129))
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
    cfg = cfg or _DEFAULT_CONFIG
    residual, _, err = averaging_residual(fn, a, b, cfg)
    limit = (b - a) * (d - c) / (4.0 if convex_monotone else 2.0)
    slack = max(1e-10, 10.0 * err)
    return residual <= limit + slack
