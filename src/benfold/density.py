"""Piecewise-smooth probability densities, folding modulo 1, and variation.

A density is a list of smooth segments with analyst-supplied shape flags
(monotonicity, convexity).  The flags are what let the variation and the
convexity-boosted bounds run on certified closed forms; "unknown" flags
degrade to grid estimation, which is reported as a lower bound.

numpy is imported on first array use.  Building densities from built-in
segments, their masses, their variation and their translate series at Python
floats need only `math`, so `benfold bound` and `benfold oracle` on them run
without numpy.  Segments and densities are `closed._Record`s, so this
module does not import `dataclasses` either; folding lives in `oracle`.
"""

from __future__ import annotations

import math
import sys

from .closed import DensityError, _as_real, _Record, _require_base


class _LazyNumpy:
    # a module's np until numpy is first needed, then rebinds it to numpy
    def __init__(self, scope):
        self._scope = scope

    def __getattr__(self, name):
        import numpy

        self._scope["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())

MONOTONICITIES = ("increasing", "decreasing", "constant", "unknown")
CONVEXITIES = ("convex", "concave", "neither", "unknown")

# Per segment kind: the power of n each parameter picks up when the density
# is stretched to x -> f(x/n)/n, and the power of c it picks up when the
# amplitude is multiplied by c.
_PARAM_MAPS = {
    "const": ((-1,), (1,)),  # value
    "linear": ((-2, -1), (1, 1)),  # slope, intercept
    "exp": ((-1, -1, 1), (1, 0, 0)),  # amp, rate, at
    "custom": ((1, -1), (0, 1)),  # xscale, amp
}

# relative slack when deciding whether an endpoint sits exactly on an integer
_INT_SNAP_TOL = 1e-12
# an endpoint never snaps farther than this share of its segment's width, so
# both ends of a segment cannot snap to one integer
_SNAP_WIDTH_SHARE = 1e-3
# a segment whose mass falls below this is identically zero for our purposes
_ZERO_MASS = 1e-15
# a density's total mass must be 1 within this
_TOTAL_MASS_TOL = 1e-10
# translates a custom segment's series sums per numpy call; custom folds at
# n = 1e5 ran about 3x slower with 1024 and 2x slower with 65536
_SERIES_BLOCK = 16384


def _quad(fn, a: float, b: float) -> float:
    # mass of a custom segment, which has no closed-form antiderivative
    from scipy.integrate import quad

    val, _ = quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def _brentq(fn, a: float, b: float) -> float:
    # crossing of a custom segment, which has no closed form
    from scipy.optimize import brentq

    return float(brentq(fn, a, b, xtol=1e-14, rtol=1e-15))


def _snap_int(x: float, width: float = math.inf) -> int | None:
    # width is that of the segment x ends, when x is an endpoint
    r = round(x)
    if abs(x - r) <= min(_INT_SNAP_TOL * max(1.0, abs(x)), _SNAP_WIDTH_SHARE * width):
        return int(r)
    return None


def _snapped(x: float, width: float, outward) -> int:
    # x snapped to an integer, else rounded by outward (math.floor or math.ceil)
    r = _snap_int(x, width)
    return r if r is not None else outward(x)


def _exp(x: float, amp: float = 1.0) -> float:
    # amp * e**x with overflow to inf, as numpy gives; where e**x alone
    # overflows, a positive amp goes into the exponent (log form)
    try:
        return amp * math.exp(x)
    except OverflowError:
        pass
    try:
        return math.exp(x + math.log(amp))
    except (OverflowError, ValueError):
        return amp * math.inf


class Segment(_Record):
    """One smooth piece of a density on [lo, hi], tagged with its kind.

    kind names the shape and params holds its parameters:

        const   (value,)            value
        linear  (slope, intercept)  slope*x + intercept
        exp     (amp, rate, at=0)   amp * e**(rate*(x - at)), amp > 0, rate nonzero
        custom  (xscale, amp)       amp * base(x / xscale)

    base is the callable of a custom segment (None for the other kinds) and
    must be vectorized over numpy arrays.  Value, mass and level crossings
    have closed forms for every kind but custom, which integrates and finds
    crossings numerically with scipy, imported on first use.  Called on a
    Python int or float, a built-in kind returns a float computed with
    `math`; on anything else, an array.  The shape flags certify behaviour
    the variation and bound code is allowed to rely on.
    """

    _fields = ("lo", "hi", "base", "monotonicity", "convexity", "kind", "params")
    __slots__ = (*_fields, "_exp_scale")

    def __init__(
        self,
        lo: float,
        hi: float,
        base=None,
        monotonicity: str = "unknown",
        convexity: str = "unknown",
        kind: str = "custom",
        params=(1.0, 1.0),
    ):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DensityError("segment endpoints must be finite")
        if not math.isfinite(hi - lo):
            raise DensityError(f"segment width hi - lo must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise DensityError(f"segment needs lo < hi, got [{lo}, {hi}]")
        if monotonicity not in MONOTONICITIES:
            raise DensityError(f"unknown monotonicity flag {monotonicity!r}")
        if convexity not in CONVEXITIES:
            raise DensityError(f"unknown convexity flag {convexity!r}")
        if kind not in _PARAM_MAPS:
            raise DensityError(f"unknown segment kind {kind!r}")
        if (base is None) == (kind == "custom"):
            raise DensityError("a custom segment needs a callable base; other kinds take none")
        params = tuple(params)
        params += (0.0,) if kind == "exp" and len(params) == 2 else ()  # at
        if len(params) != len(_PARAM_MAPS[kind][0]):
            raise DensityError(f"wrong parameter count for a {kind} segment: {params!r}")
        # the scale amp/expm1(rate) of the geometric series an exp segment
        # folds to, or None where the series can overflow (a long steep piece)
        # or the scale underflows (a huge base): the series then uses log form
        scale = 0.0
        if kind == "exp":
            amp, r, _ = params
            if amp == 0.0 or r == 0.0:  # a negative amp fails the value check below
                raise DensityError("exp segment needs a nonzero amp and rate")
            if abs(r) * (hi - lo + 2.0) < 700.0:
                scale = amp / math.expm1(r)
        self._set(
            lo=lo, hi=hi, base=base, monotonicity=monotonicity, convexity=convexity, kind=kind,
            params=params, _exp_scale=scale if abs(scale) >= sys.float_info.min else None,
        )
        if kind == "custom":
            xs = np.linspace(lo, hi, 17)
            try:
                ys = self(xs)
            except (TypeError, ValueError) as exc:
                raise DensityError(f"segment function must be vectorized: {exc}") from exc
            if ys.shape != xs.shape:
                raise DensityError("segment function must be vectorized over numpy arrays")
            ys = ys.tolist()
        else:
            # the built-in kinds are monotone, so their ends bound every value
            ys = [self(float(lo)), self(float(hi))]
        if not all(map(math.isfinite, ys)):
            raise DensityError("segment evaluates to a non-finite value")
        if min(ys) < -1e-12:
            raise DensityError("segment evaluates negative; densities are nonnegative")

    def __call__(self, x):
        p = self.params
        if type(x) in (float, int) and self.kind != "custom":
            # a Python scalar gets the same formula in math, as a float
            x = float(x)
            if self.kind == "const":
                return float(p[0])
            if self.kind == "linear":
                return p[0] * x + p[1]
            return _exp(p[1] * (x - p[2]), p[0])
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.full(x.shape, p[0])
        if self.kind == "linear":
            return p[0] * x + p[1]
        if self.kind == "exp":
            with np.errstate(over="ignore"):
                y = p[0] * np.exp(p[1] * (x - p[2]))
                if p[0] > 0.0 and np.isinf(y).any():  # log form where e**(rate*x) overflows
                    y = np.where(np.isinf(y), np.exp(p[1] * (x - p[2]) + math.log(p[0])), y)
            return y
        return p[1] * np.asarray(self.base(x / p[0]), dtype=float)

    def mass(self, a: float | None = None, b: float | None = None) -> float:
        """Integral of the segment over [a, b] (defaults to the whole piece)."""
        a = self.lo if a is None else max(a, self.lo)
        b = self.hi if b is None else min(b, self.hi)
        if b <= a:
            return 0.0
        p = self.params
        if self.kind == "const":
            return p[0] * (b - a)
        if self.kind == "linear":
            return 0.5 * p[0] * (b * b - a * a) + p[1] * (b - a)
        if self.kind == "exp":
            try:
                return (p[0] / p[1]) * (math.exp(p[1] * (b - p[2])) - math.exp(p[1] * (a - p[2])))
            except OverflowError:  # log form, from the larger end
                top = max(p[1] * (a - p[2]), p[1] * (b - p[2]))
                return _exp(top, p[0] / abs(p[1])) * -math.expm1(-abs(p[1]) * (b - a))
        return _quad(self, a, b)

    def crossings(self, level: float, a: float, b: float) -> list[float]:
        """Points of [a, b] where the segment crosses level.

        Built-in kinds are monotone, so they cross at most once, at a point
        given in closed form.  A custom segment is scanned (at its endpoints
        only when flagged monotone) and each sign change refined by brentq.
        """
        p = self.params
        if self.kind == "const" or (self.kind == "linear" and p[0] == 0.0):
            return []
        if self.kind == "linear":
            x = (level - p[1]) / p[0]
            return [x] if a < x < b else []
        if self.kind == "exp":
            x = p[2] + math.log(level / p[0]) / p[1] if level > 0 else math.nan
            return [x] if a < x < b else []
        monotone = self.monotonicity in ("increasing", "decreasing", "constant")
        xs = np.linspace(a, b, 2 if monotone else 65)
        ys = self(xs) - level
        roots = []
        for i in range(len(xs) - 1):
            if ys[i] == 0.0:
                roots.append(float(xs[i]))
            elif ys[i] * ys[i + 1] < 0:
                roots.append(
                    _brentq(lambda x: float(self(x)) - level, float(xs[i]), float(xs[i + 1]))
                )
        return roots

    def series(self, k0, k1):
        """The list kernel ts -> [sum of self(t + k) over the integers k0 <= k < k1 for t in ts].

        A built-in kind, for k1 > k0, is one list comprehension over its closed
        form in math (m equal terms, an arithmetic or a geometric series), all
        but t computed here, once; a custom segment sums each point's translates
        in blocks of _SERIES_BLOCK, one numpy call each (0.0 for no translates).
        """
        if self.kind == "custom":
            blocks = [(k, min(k + _SERIES_BLOCK, k1)) for k in range(k0, k1, _SERIES_BLOCK)]
            return lambda ts: [
                sum((float(self(t + np.arange(a, b, dtype=float)).sum()) for a, b in blocks), 0.0) for t in ts
            ]
        m = k1 - k0
        if self.kind == "const":
            total = m * self.params[0]
            return lambda ts: [total] * len(ts)
        if self.kind == "linear":
            slope, intercept = self.params
            mid = 0.5 * (k0 + k1 - 1.0)
            return lambda ts: [m * (slope * (t + mid) + intercept) for t in ts]
        amp, r, at = self.params
        scale, exp = self._exp_scale, math.exp
        if scale is not None:
            growth, shift = math.expm1(r * m), k0 - at

            def kernel(ts):
                try:
                    return [scale * exp(r * (t + shift)) * growth for t in ts]
                except OverflowError:  # inf where e**x overflows, as _exp gives
                    return [scale * _exp(r * (t + shift)) * growth for t in ts]

            return kernel
        # sum down from the largest term, with amp inside the exponent
        log_amp, fall = math.log(amp), -abs(r)
        top = (k1 - 1.0 if r > 0 else k0) - at
        terms = math.expm1(fall * m) / math.expm1(fall)
        return lambda ts: [_exp(log_amp + r * (t + top)) * terms for t in ts]

    def stretched(self, n: float) -> Segment:
        """The matching piece of the density of n*X: x -> self(x/n)/n."""
        powers = _PARAM_MAPS[self.kind][0]
        params = tuple([p * n**k for p, k in zip(self.params, powers)])
        return self._with(self.lo * n, self.hi * n, params)

    def amplified(self, c: float) -> Segment:
        """The segment times c > 0; an exp amp off the normal doubles moves to the larger end."""
        params = tuple(p * c**k for p, k in zip(self.params, _PARAM_MAPS[self.kind][1]))
        if self.kind == "exp" and not sys.float_info.min <= params[0] < math.inf:
            end = float(self.hi if self.params[1] > 0 else self.lo)
            params = (self(end) * c, self.params[1], end)
        return self._with(self.lo, self.hi, params)

    def _with(self, lo, hi, params) -> Segment:
        return Segment(lo, hi, self.base, self.monotonicity, self.convexity, self.kind, params)


class _MassError(DensityError):
    """A segment whose mass is not a finite number."""


class PiecewiseDensity(_Record):
    """A probability density given as ordered, non-overlapping segments.

    Total mass must be 1 within 1e-10.  Segments that carry no mass are
    dropped at construction; a segment whose mass is not a finite number,
    and an identically-zero input, are rejected.
    Instances are immutable and safe to share across threads.
    """

    _fields = ("segments",)
    __slots__ = ("segments", "_masses")

    def __init__(self, segments):
        segs = tuple(segments)
        if not segs:
            raise DensityError("density needs at least one segment")
        for left, right in zip(segs, segs[1:]):
            if right.lo < left.hi - 1e-12:
                raise DensityError(
                    f"segments overlap: [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}]"
                )
        masses = tuple([seg.mass() for seg in segs])
        if not all(map(math.isfinite, masses)):
            seg, m = next((seg, m) for seg, m in zip(segs, masses) if not math.isfinite(m))
            raise _MassError(f"segment [{seg.lo}, {seg.hi}] with params {seg.params!r} has mass {m!r}")
        keep, kept_masses = segs, masses
        if not min(masses) > _ZERO_MASS:
            keep = tuple(s for s, m in zip(segs, masses) if m > _ZERO_MASS)
            kept_masses = tuple(m for m in masses if m > _ZERO_MASS)
        if not keep:
            raise DensityError("density is identically zero")
        total = math.fsum(kept_masses)
        if abs(total - 1.0) > _TOTAL_MASS_TOL:
            raise DensityError(f"density mass is {total!r}, not 1 within {_TOTAL_MASS_TOL}")
        self._set(segments=keep, _masses=kept_masses)

    @property
    def segment_masses(self) -> tuple[float, ...]:
        return self._masses

    def support(self) -> tuple[float, float]:
        return self.segments[0].lo, self.segments[-1].hi

    def delineated_interval(self) -> tuple[int, int]:
        """Smallest integer-endpoint interval (n, m) containing the support."""
        first, last = self.segments[0], self.segments[-1]
        return (
            _snapped(first.lo, first.hi - first.lo, math.floor),
            _snapped(last.hi, last.hi - last.lo, math.ceil),
        )

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        pts = np.atleast_1d(xs)
        out = np.zeros(pts.shape, dtype=float)
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            # half-open ownership; the global supremum belongs to its segment
            if i == last:
                m = (pts >= seg.lo) & (pts <= seg.hi)
            else:
                m = (pts >= seg.lo) & (pts < seg.hi)
            if m.any():
                out[m] = seg(pts[m])
        return float(out[0]) if scalar else out


def scale_density(f: PiecewiseDensity, n: float) -> PiecewiseDensity:
    """Density of n*X: x -> f(x/n)/n, support stretched by n, flags preserved."""
    scale = _as_real(n)
    if not (math.isfinite(scale) and scale > 0):
        raise DensityError(f"scale factor must be positive, got {n!r}")
    try:
        return PiecewiseDensity([seg.stretched(scale) for seg in f.segments])
    except (OverflowError, _MassError) as exc:  # n**k past the doubles, or a slope under them
        raise DensityError(f"scaling by {n!r} underflows or overflows the segment parameters") from exc


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def grid_variation(fn, lo: float, hi: float, points: int = 1025) -> float:
    """Sum of |f(x_{i+1}) - f(x_i)| on a uniform grid.

    A lower bound on the variation over [lo, hi]; refining the grid (nested
    dyadic point counts) makes it nondecreasing and convergent from below.
    """
    xs = np.linspace(lo, hi, points)
    ys = np.asarray(fn(xs), dtype=float)
    return float(np.abs(np.diff(ys)).sum())


def _grid_variation_refined(fn, lo, hi, tol=1e-10, start=129, cap=32769):
    est = grid_variation(fn, lo, hi, start)
    pts = start
    while pts < cap:
        pts = 2 * pts - 1
        nxt = grid_variation(fn, lo, hi, pts)
        if abs(nxt - est) < max(tol, 1e-12 * abs(nxt)):
            return nxt
        est = nxt
    return est


def _variation_core(f: PiecewiseDensity):
    """Variation over the support span, plus the one-sided boundary values.

    Returns (interior_total, v_left, v_right).  interior_total counts the
    rises of the segments, then the jumps between consecutive ones in order;
    a zero gap between two segments (lo past the previous hi by 1e-12) is a
    jump down to 0 and one back up.  It excludes the jumps at the two support
    endpoints, which the callers add or not depending on the variation notion.
    """
    total, jumps, prev = 0.0, [], None
    for seg in f.segments:
        v_lo, v_hi = float(seg(seg.lo)), float(seg(seg.hi))
        if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
            return math.inf, math.inf, math.inf
        if seg.monotonicity != "unknown":
            total += abs(v_hi - v_lo)
        else:
            total += _grid_variation_refined(seg, seg.lo, seg.hi)
        if prev is None:
            v_left = v_lo
        elif seg.lo > prev.hi + 1e-12:
            jumps += [abs(v_prev), abs(v_lo)]
        else:
            jumps.append(abs(v_lo - v_prev))
        prev, v_prev = seg, v_hi
    for jump in jumps:
        total += jump
    return total, v_left, v_prev


def tv_integer_delineated(f: PiecewiseDensity) -> float:
    """Variation of f over the open minimal integer-delineated interval.

    Jumps strictly inside the interval count; jumps to zero exactly at the
    integer endpoints do not (so the uniform density on [0, 1) has value 0).
    """
    core, v_left, v_right = _variation_core(f)
    if not math.isfinite(core):
        return math.inf
    first, last = f.segments[0], f.segments[-1]
    total = core
    if _snap_int(first.lo, first.hi - first.lo) is None:  # starts strictly inside (n, n+1)
        total += v_left
    if _snap_int(last.hi, last.hi - last.lo) is None:
        total += v_right
    return total


def tv_full_line(f: PiecewiseDensity) -> float:
    """Variation of f over the whole line, counting both support-edge jumps."""
    core, v_left, v_right = _variation_core(f)
    if not math.isfinite(core):
        return math.inf
    return core + v_left + v_right


# ---------------------------------------------------------------------------
# segment builders and stock densities
# ---------------------------------------------------------------------------


def const_segment(lo: float, hi: float, value: float) -> Segment:
    if value < 0:
        raise DensityError("constant segment needs a nonnegative value")
    return Segment(lo, hi, None, "constant", "convex", "const", (float(value),))


def linear_segment(lo: float, hi: float, slope: float, intercept: float) -> Segment:
    """Affine piece slope*x + intercept; affine counts as convex."""
    s = float(slope)
    mono = "increasing" if s > 0 else ("decreasing" if s < 0 else "constant")
    return Segment(lo, hi, None, mono, "convex", "linear", (s, float(intercept)))


def exp_segment(lo: float, hi: float, amp: float, rate: float, at: float = 0.0) -> Segment:
    """Exponential piece amp * e**(rate*(x - at)); convex for amp > 0."""
    if amp <= 0:
        raise DensityError("exponential segment needs amp > 0")
    if rate == 0.0:
        return const_segment(lo, hi, amp)
    mono = "increasing" if rate > 0 else "decreasing"
    return Segment(lo, hi, None, mono, "convex", "exp", (float(amp), float(rate), float(at)))


def uniform_density(lo: float, hi: float) -> PiecewiseDensity:
    if not hi > lo:
        raise DensityError("uniform density needs hi > lo")
    return PiecewiseDensity((const_segment(lo, hi, 1.0 / (hi - lo)),))


def uniform_log_density(b: float) -> PiecewiseDensity:
    """Density of log_b(U[1, b]): (ln b / (b - 1)) * b**x on [0, 1].

    Increasing and convex; this is the stock input for the closed-form
    distance and both closed-form bounds.
    """
    b = _require_base(b)
    lnb = math.log(b)
    return PiecewiseDensity((exp_segment(0.0, 1.0, lnb / (b - 1.0), lnb),))


def triangular_density(lo: float, peak: float, hi: float) -> PiecewiseDensity:
    if not lo < peak < hi:
        raise DensityError("triangular density needs lo < peak < hi")
    h = 2.0 / (hi - lo)
    up = h / (peak - lo)
    down = -h / (hi - peak)
    return PiecewiseDensity(
        (
            linear_segment(lo, peak, up, -up * lo),
            linear_segment(peak, hi, down, -down * hi),
        )
    )


def normalized(segments) -> PiecewiseDensity:
    """Scale segment amplitudes by a common factor so the total mass is 1."""
    segs = tuple(segments)
    if not segs:
        raise DensityError("density needs at least one segment")
    total = math.fsum(seg.mass() for seg in segs)
    if not (math.isfinite(total) and total > 0):
        raise DensityError(f"cannot normalize segments with total mass {total!r}")
    return PiecewiseDensity(tuple(seg.amplified(1.0 / total) for seg in segs))
