"""Piecewise-smooth probability densities, folding modulo 1, and variation.

A density is a list of const, linear and exp segments.  Each kind is
monotone and convex by construction, which lets the variation and the
convexity-boosted bounds run on certified closed forms.  An arbitrary smooth
density is approximated by such pieces, and every bound then certifies that
piecewise density.

numpy is imported on first array use.  Building densities, their masses,
their variation and their translate series at Python floats need only
`math`, so `benfold bound` and `benfold oracle` run without numpy.
Segments and densities are `closed._Record`s, so this module does not
import `dataclasses` either; folding lives in `oracle`.
"""

from __future__ import annotations

import math
import sys

from .closed import DensityError, _Record, _require_base, _require_positive


class _LazyNumpy:
    # a module's np until numpy is first needed, then rebinds it to numpy
    def __init__(self, scope):
        self._scope = scope

    def __getattr__(self, name):
        import numpy

        self._scope["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())

# Per segment kind: the power of n each parameter picks up when the density
# is stretched to x -> f(x/n)/n, and the power of c it picks up when the
# amplitude is multiplied by c.
_PARAM_MAPS = {
    "const": ((-1,), (1,)),  # value
    "linear": ((-2, -1), (1, 1)),  # slope, intercept
    "exp": ((-1, -1, 1), (1, 0, 0)),  # amp, rate, at
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
    # amp * e**x with overflow to inf, as numpy gives.  Where e**x alone is
    # not a normal double, a positive amp takes four factors e**(x/4) one at
    # a time, each partial product between amp and the result (6e-16 off at
    # worst in 20,000 random cases; e**(x + log(amp)) was up to 9e-14 off)
    try:
        e = math.exp(x)
    except OverflowError:
        e = math.inf
    if amp > 0.0 and not sys.float_info.min <= e < math.inf:
        try:
            q = math.exp(0.25 * x)
        except OverflowError:
            return math.inf
        return amp * q * q * q * q
    return amp * e


class Segment(_Record):
    """One smooth piece of a density on [lo, hi], tagged with its kind.

    kind names the shape and params holds its parameters:

        const   (value,)            value
        linear  (slope, intercept)  slope*x + intercept
        exp     (amp, rate, at=0)   amp * e**(rate*(x - at)), amp > 0, rate nonzero

    Every kind is monotone, so its ends bound its values, and value, mass
    and level crossings have closed forms; an exp segment's mass and
    translate series start from its larger end.  Called on a Python int or
    float, a segment returns a float computed with `math`; on anything
    else, an array.
    """

    __slots__ = _fields = ("lo", "hi", "kind", "params")

    def __init__(self, lo: float, hi: float, kind: str, params):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DensityError("segment endpoints must be finite")
        if not math.isfinite(hi - lo):
            raise DensityError(f"segment width hi - lo must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise DensityError(f"segment needs lo < hi, got [{lo}, {hi}]")
        if kind not in _PARAM_MAPS:
            raise DensityError(f"unknown segment kind {kind!r}")
        params = tuple(params)
        params += (0.0,) if kind == "exp" and len(params) == 2 else ()  # at
        if len(params) != len(_PARAM_MAPS[kind][0]):
            raise DensityError(f"wrong parameter count for a {kind} segment: {params!r}")
        if kind == "exp" and (params[0] == 0.0 or params[1] == 0.0):  # a negative amp fails the value check below
            raise DensityError("exp segment needs a nonzero amp and rate")
        self._set(lo=lo, hi=hi, kind=kind, params=params)
        ys = [self(float(lo)), self(float(hi))]  # the ends bound every value
        if not all(map(math.isfinite, ys)):
            raise DensityError("segment evaluates to a non-finite value")
        if min(ys) < -1e-12:
            raise DensityError("segment evaluates negative; densities are nonnegative")

    def __call__(self, x):
        p = self.params
        if type(x) in (float, int):
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
        z = p[1] * (x - p[2])
        with np.errstate(over="ignore"):
            e = np.exp(z)
            y = p[0] * e
            off = (e < sys.float_info.min) | np.isinf(e)  # e**z is not a normal double: as in _exp
            if p[0] > 0.0 and off.any():
                q = np.exp(0.25 * z)
                y = np.where(off, p[0] * q * q * q * q, y)
        return y

    def mass(self, a: float | None = None, b: float | None = None) -> float:
        """Integral of the segment over [a, b] (defaults to the whole piece).

        An exp segment's is its value at the larger end times (b - a) * expm1(x) / x, x = -|rate| * (b - a).
        """
        a = self.lo if a is None else max(a, self.lo)
        b = self.hi if b is None else min(b, self.hi)
        if b <= a:
            return 0.0
        p = self.params
        if self.kind == "const":
            return p[0] * (b - a)
        if self.kind == "linear":
            return 0.5 * p[0] * (b * b - a * a) + p[1] * (b - a)
        x = -abs(p[1]) * (b - a)  # 0 only where e**x is 1 to the last bit
        return self(float(b if p[1] > 0 else a)) * ((b - a) * (math.expm1(x) / x if x else 1.0))

    def crossings(self, level: float, a: float, b: float) -> list[float]:
        """Points of (a, b) where the segment crosses level.

        Every kind is monotone, so it crosses at most once, at a point given
        in closed form.
        """
        p = self.params
        if self.kind == "const" or (self.kind == "linear" and p[0] == 0.0):
            return []
        if self.kind == "linear":
            x = (level - p[1]) / p[0]
        else:
            x = p[2] + math.log(level / p[0]) / p[1] if level > 0 else math.nan
        return [x] if a < x < b else []

    def series(self, k0, k1):
        """The list kernel ts -> [sum of self(t + k) over the integers k0 <= k < k1 for t in ts].

        For k1 > k0 it is one list comprehension over the kind's closed form in
        math (m equal terms, an arithmetic or a geometric series), all but t
        computed here, once.  An exp series runs down from the value at the
        larger end: no owned translate, lo <= t + k < hi, gives a larger term.
        """
        m = k1 - k0
        if self.kind == "const":
            total = m * self.params[0]
            return lambda ts: [total] * len(ts)
        if self.kind == "linear":
            slope, intercept = self.params
            mid = 0.5 * (k0 + k1 - 1.0)
            return lambda ts: [m * (slope * (t + mid) + intercept) for t in ts]
        r = self.params[1]
        top = self.hi if r > 0 else self.lo
        scale = self(top) * (math.expm1(-abs(r) * m) / math.expm1(-abs(r)))
        shift, exp = (k1 - 1 if r > 0 else k0) - top, math.exp
        return lambda ts: [scale * exp(r * (t + shift)) for t in ts]

    @property
    def direction(self) -> int:
        """1, -1 or 0 as the segment's values, and so each of its series, rise, fall or stay flat.

        Read from kind and params: 0 for const, the sign of a linear slope, the
        sign of amp * rate for exp.
        """
        p = self.params
        if self.kind == "exp":
            return 1 if (p[0] > 0.0) == (p[1] > 0.0) else -1
        return 0 if self.kind == "const" else (p[0] > 0.0) - (p[0] < 0.0)

    def scaled(self, n=1, c=1) -> Segment:
        """The piece x -> c * self(x/n)/n for n, c > 0: stretched by n, times c.

        An exp amp off the normal doubles moves to the larger end, where the
        value is c/n times this segment's at its own.
        """
        params = tuple([p * n**k * c**j for p, k, j in zip(self.params, *_PARAM_MAPS[self.kind])])
        lo, hi = self.lo * n, self.hi * n
        if self.kind == "exp" and not sys.float_info.min <= params[0] < math.inf:
            up = params[1] > 0
            params = (self(float(self.hi if up else self.lo)) * (c * n**-1), params[1], float(hi if up else lo))
        return Segment(lo, hi, self.kind, params)


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
    """Density of n*X: x -> f(x/n)/n, support stretched by n, each segment's kind kept."""
    scale = _require_positive(n, "scale factor")
    try:
        return PiecewiseDensity([seg.scaled(scale) for seg in f.segments])
    except (OverflowError, _MassError) as exc:  # n**k past the doubles, or a slope under them
        raise DensityError(f"scaling by {n!r} underflows or overflows the segment parameters") from exc


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


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
        total += abs(v_hi - v_lo)
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
    return core + v_left + v_right


# ---------------------------------------------------------------------------
# segment builders and stock densities
# ---------------------------------------------------------------------------


def const_segment(lo: float, hi: float, value: float) -> Segment:
    if value < 0:
        raise DensityError("constant segment needs a nonnegative value")
    return Segment(lo, hi, kind="const", params=(float(value),))


def linear_segment(lo: float, hi: float, slope: float, intercept: float) -> Segment:
    """Affine piece slope*x + intercept; affine counts as convex."""
    return Segment(lo, hi, kind="linear", params=(float(slope), float(intercept)))


def exp_segment(lo: float, hi: float, amp: float, rate: float, at: float = 0.0) -> Segment:
    """Exponential piece amp * e**(rate*(x - at)); convex for amp > 0."""
    if amp <= 0:
        raise DensityError("exponential segment needs amp > 0")
    if rate == 0.0:
        return const_segment(lo, hi, amp)
    return Segment(lo, hi, kind="exp", params=(float(amp), float(rate), float(at)))


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
    if not all(sys.float_info.min <= abs(s) < math.inf for s in (up, down)):
        raise DensityError(f"triangular density on [{lo!r}, {hi!r}] has slopes {up!r} and {down!r}, not normal doubles")
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
    return PiecewiseDensity(tuple(seg.scaled(c=1.0 / total) for seg in segs))
