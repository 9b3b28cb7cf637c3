"""Closed forms for the log-uniform family, in the standard library only.

For X = log_b(U[1, b]) the distance of n*X mod 1 from uniform, the folded
CDF, the Fourier coefficients and the two closed-form bounds ln(b)/(8n) and
ln(b)/(2*sqrt(12)*n) are elementary expressions in `math`.  The exact
distance takes a real exponent a: its value is that of a*log_b(U) mod 1
with U ~ U(0, 1), the paper's uniform case, which folds like n*X at an
integer a = n but not like a*X at a non-integer a.
This module holds them together with the report type, every error the
library raises (the oracle's `QuadratureError` and `BisectionError` too, so
the CLI catches them without loading the oracle) and `_Record`, the record
base that spares the result and density types `dataclasses`, so `benfold
table` and `benfold exact` run without importing numpy.  `bounds`,
`density` and `oracle` re-export these names.
"""

from __future__ import annotations

import math
import numbers

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


class DensityError(ValueError):
    """Invalid density construction or a domain violation."""


class VacuousBoundError(RuntimeError):
    """The requested bound or value carries no information in floating point."""


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


_setattr = object.__setattr__  # bound once: every record sets its fields through it


class _Record:
    """Immutable record, a frozen dataclass without the cost of making one.

    A subclass names its fields in _fields, lists them and any cached
    internals in __slots__, and sets them once in __init__ through _set.
    Equality, hash and repr read the fields only; assignment raises
    AttributeError; pickling and copying restore every slot as it is.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values):
        for name, value in values.items():
            _setattr(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return _restore, (type(self), {name: getattr(self, name) for name in self.__slots__})


def _restore(cls, slots):
    record = object.__new__(cls)
    record._set(**slots)
    return record


class BoundReport(_Record):
    """One computed upper bound (or exact value) with its provenance."""

    __slots__ = _fields = ("method", "value", "hypotheses_verified", "n", "b")

    def __init__(
        self, method: str, value: float, hypotheses_verified, n: float = 1.0, b: float | None = None
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"bound value must be finite and nonnegative, got {value!r}")
        if method == "exact_uniform" and not value < 1.0:
            raise ValueError("exact distance must lie in [0, 1)")
        hypotheses = tuple(hypotheses_verified)
        self._set(method=method, value=value, hypotheses_verified=hypotheses, n=n, b=b)


def _as_real(x) -> float:
    # x as a float, or nan when x is no real number (a bool is none here);
    # an exact float or int skips the slower ABC test
    if type(x) not in (float, int) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.nan


def _require_base(b) -> float:
    v = _as_real(b)
    if not (math.isfinite(v) and v > 1):
        raise DensityError(f"base must satisfy b > 1, got {b!r}")
    return v


def _require_positive(x, what: str) -> float:
    # x as a float if it is a finite real > 0, else DensityError("<what> must be positive")
    v = _as_real(x)
    if not (math.isfinite(v) and v > 0):
        raise DensityError(f"{what} must be positive, got {x!r}")
    return v


def _require_positive_int(n) -> int:
    integral = type(n) is int or not isinstance(n, bool) and isinstance(n, numbers.Integral)
    if not (integral and n >= 1):
        raise DensityError(f"n must be a positive integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


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


def fourier_coeff_uniform_log(b: float, k: int) -> complex:
    """k-th Fourier coefficient of the log-uniform density: ln b/(ln b - 2 pi i k)."""
    b = _require_base(b)
    lnb = math.log(b)
    return lnb / complex(lnb, -2.0 * math.pi * k)


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


class ExactUniformParams(_Record):
    """Derived quantities for the exact log-uniform distance.

    x = b**(1/a) is the fold's growth factor, u = (x-1)/ln(x) the mean value
    of the folded density, and t0 = log_x(u) the crossing point where the
    folded density equals 1.  b and a are stored as floats; h = ln x and
    v = u - 1, which u itself rounds away at tiny h, are kept as internals.
    Where v rounds to 0, h is at most the smallest subnormal and t0 takes
    its h -> 0 limit, 1/2.
    """

    _fields = ("b", "a", "x", "u", "t0")
    __slots__ = (*_fields, "_h", "_v")

    def __init__(self, b: float, a: float):
        b = _require_base(b)
        a = _require_positive(a, "exponent")
        h = math.log(b) / a  # = ln x
        if h > 700.0:
            # x overflows; only the asymptotic distance is representable
            t0 = 1.0 - math.log(h) / h if h < math.inf else 1.0
            self._set(b=b, a=a, x=math.inf, u=math.inf, t0=t0, _h=h, _v=math.inf)
            return
        v = _mean_growth_minus_one(h)
        t0 = math.log1p(v) / h if v else 0.5
        self._set(b=b, a=a, x=1.0 + math.expm1(h), u=1.0 + v, t0=t0, _h=h, _v=v)
        if not self.u < self.x + 1e-12:
            raise DensityError("mean value landed outside (1, x); inputs look corrupt")


def exact_delta_uniform(b: float, a: float) -> BoundReport:
    """Exact distance of the a-th-power log-uniform fold from uniform.

    The variable folded is a*log_b(U) with U ~ U(0, 1): a geometric fold at
    every real a > 0, the fold of log_x(U[1, x]) with x = b**(1/a).  At an
    integer a that is the fold of a*X for X = log_b(U[1, b]); at a
    non-integer a it is not (b = 10, a = 1.5: 0.18591 here, 0.22413 for
    a*X by the oracle).

    Evaluates (u ln u - u + 1)/(x - 1) with x = b**(1/a), u = (x-1)/ln x,
    as (v/(x - 1)) * (v * S(v)) with v = u - 1 and S the alternating series
    of ((1+v)ln(1+v) - v)/v**2 below |v| = 0.5, so the x -> 1 regime (large
    a) keeps its relative accuracy down to the smallest normal result, and
    the asymptotic form once x overflows.  Raises VacuousBoundError when the
    distance rounds to 1.
    """
    params = ExactUniformParams(b, a)
    h, v = params._h, params._v
    if not math.isfinite(params.x):
        value = 1.0 - (math.log(h) + 1.0) / h
    elif not v:
        value = h / 8.0  # the h -> 0 limit of v*v/(2(x - 1)), with v ~ h/2; h may be 0
    elif abs(v) < 0.5:
        # (1+v)ln(1+v) - v = v*v * sum_{j>=2} (-v)**(j-2)/(j(j-1)): the direct
        # form cancels here, and v*v alone underflows at huge a
        powers = [1.0]
        while abs(powers[-1]) > 1e-17:
            powers.append(-v * powers[-1])
        value = v / math.expm1(h) * (v * math.fsum(p / (j * (j - 1)) for j, p in enumerate(powers, 2)))
    else:
        value = ((1.0 + v) * math.log1p(v) - v) / math.expm1(h)
    if not value < 1.0:
        raise VacuousBoundError(
            f"exact distance rounds to 1 in double precision at b={params.b!r}, a={params.a!r}"
        )
    hypotheses = ("closed form for the log-uniform family; no hypotheses beyond b > 1, a > 0",)
    return BoundReport("exact_uniform", value, hypotheses, n=params.a, b=params.b)


def folded_cdf_uniform(b: float, a: float, t: float) -> float:
    """CDF of the folded log-uniform variable: (x**t - 1)/(x - 1), x = b**(1/a)."""
    b = _require_base(b)
    a = _require_positive(a, "exponent")
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise DensityError(f"t must lie in [0, 1], got {t!r}")
    t = min(max(t, 0.0), 1.0)
    h = math.log(b) / a
    if h > 700.0:
        if t == 0.0:
            return 0.0
        return math.exp((t - 1.0) * h) * (-math.expm1(-t * h)) / (-math.expm1(-h))
    return math.expm1(t * h) / math.expm1(h)
