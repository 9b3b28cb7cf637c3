import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import benfold as bf
from benfold.bounds import VacuousBoundError
from benfold.density import DensityError

from _support import random_density

LN10 = math.log(10.0)

# published comparison values, rounded to 7 decimals: n -> (exact, tv, fourier)
REFERENCE_TABLE = {
    1: (0.2688434, 0.2878231, 0.3323495),
    2: (0.1413379, 0.1439116, 0.1661748),
    3: (0.0951662, 0.0959410, 0.1107832),
    4: (0.0716270, 0.0719558, 0.0830874),
    5: (0.0573959, 0.0575646, 0.0664699),
    8: (0.0359366, 0.0359779, 0.0415437),
    10: (0.0287611, 0.0287823, 0.0332350),
    20: (0.0143885, 0.0143912, 0.0166175),
    50: (0.0057563, 0.0057565, 0.0066470),
    100: (0.0028782, 0.0028782, 0.0033235),
    1000: (0.0002878, 0.0002878, 0.0003323),
}


# ---------------------------------------------------------------------------
# step-density bound
# ---------------------------------------------------------------------------


def test_step_density_uniform_unit_is_zero():
    r = bf.bound_step_density(bf.uniform_density(0, 1))
    assert r.method == "step_density"
    assert r.value == pytest.approx(0.0, abs=1e-14)


def test_step_density_uniform_two_cells_is_zero():
    r = bf.bound_step_density(bf.uniform_density(0, 2))
    assert r.value == pytest.approx(0.0, abs=1e-14)


def test_step_density_single_cell_equals_exact():
    # on one integer cell the step density is the flat average, so the bound
    # is exactly the distance the closed form computes
    for b in (2.0, math.e, 10.0, 37.5):
        got = bf.bound_step_density(bf.uniform_log_density(b)).value
        want = bf.exact_delta_uniform(b, 1).value
        assert got == pytest.approx(want, abs=1e-12)


def test_step_density_reference_value():
    got = bf.bound_step_density(bf.uniform_log_density(10)).value
    assert f"{got:.7f}" == "0.2688434"


def test_step_density_offset_support():
    # fractional, gap-ridden supports still produce a sound bound
    f = bf.PiecewiseDensity(
        (bf.const_segment(0.25, 0.75, 1.0), bf.const_segment(1.5, 2.0, 1.0))
    )
    r = bf.bound_step_density(f)
    oracle = bf.delta_numeric(f, 1)
    assert oracle.value <= r.value + 1e-10


# ---------------------------------------------------------------------------
# variation bounds
# ---------------------------------------------------------------------------


def test_tv_quarter_examples():
    assert bf.bound_tv_quarter(bf.uniform_density(0, 1)).value == 0.0
    r = bf.bound_tv_quarter(bf.uniform_log_density(10))
    assert r.value == pytest.approx(LN10 / 4.0, rel=1e-14)
    tri = bf.triangular_density(0, 1, 2)
    assert bf.bound_tv_quarter(tri).value == pytest.approx(0.5, rel=1e-14)
    assert bf.delta_numeric(tri, 1).value <= 0.5 + 1e-10


def test_variation_label_tells_a_monotone_kind_from_a_caller_assertion():
    # every segment is const, linear or exp, monotone by its kind, so the
    # variation is exact on every density; no caller can assert a shape
    with pytest.raises(TypeError):
        bf.Segment(0.0, 1.0, "exp", (1.0, 2.0), True)
    by_kind = "variation: exact, every segment monotone by its kind"
    for f in (bf.uniform_log_density(10), bf.triangular_density(0.0, 0.3, 2.0), random_density(np.random.default_rng(3))):
        assert bf.bound_tv_quarter(f).hypotheses_verified == (by_kind,)
        assert bf.bound_tv_scaled(f, 3).hypotheses_verified[1] == by_kind


def test_tv_quarter_vacuous_on_infinite_variation(monkeypatch):
    monkeypatch.setattr(bf.bounds, "tv_integer_delineated", lambda f: math.inf)
    with pytest.raises(VacuousBoundError):
        bf.bound_tv_quarter(bf.uniform_density(0, 1))


def test_tv_scaled_integer_and_real_routes():
    f = bf.uniform_log_density(10)
    r = bf.bound_tv_scaled(f, 10)
    assert r.value == pytest.approx(LN10 / 40.0, rel=1e-14)
    assert "integer" in r.hypotheses_verified[0]
    r = bf.bound_tv_scaled(f, 2.5)
    assert r.value == pytest.approx(bf.tv_full_line(f) / 10.0, rel=1e-14)
    assert "full-line" in r.hypotheses_verified[0]
    assert bf.bound_tv_scaled(bf.uniform_density(0, 1), 17).value == 0.0


def test_tv_scaled_rejects_bad_scale():
    f = bf.uniform_density(0, 1)
    for bad in (0, -1, math.inf):
        with pytest.raises(DensityError):
            bf.bound_tv_scaled(f, bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.sampled_from((0.3, 0.77, 1.5, 2.25, 3.9)))
def test_tv_scaled_bounds_the_oracle_at_a_real_scale(seed, a):
    # at a real scale the bound takes the full-line variation; the oracle
    # folds the density of a*X itself, so it judges that route
    f = random_density(np.random.default_rng(seed))
    assert bf.bound_tv_scaled(f, a).value >= bf.delta_numeric(f, a).value


def test_convex_eighth_examples():
    r = bf.bound_convex_eighth(bf.uniform_log_density(10))
    assert r.value == pytest.approx(LN10 / 8.0, rel=1e-13)
    assert any("certified" in h for h in r.hypotheses_verified)
    assert bf.bound_convex_eighth(bf.uniform_density(0, 1)).value == 0.0
    for n in (2, 5, 20):
        scaled = bf.scale_density(bf.uniform_log_density(10), n)
        assert bf.bound_convex_eighth(scaled).value == pytest.approx(
            LN10 / (8.0 * n), rel=1e-12
        )


def test_convex_eighth_rejects_contradictions():
    tri = bf.triangular_density(0, 1, 2)  # up then down: no single direction
    with pytest.raises(DensityError):
        bf.bound_convex_eighth(tri)
    f = bf.PiecewiseDensity(
        (bf.const_segment(0.0, 0.5, 1.0), bf.const_segment(1.5, 2.0, 1.0))
    )
    with pytest.raises(DensityError):  # interior zero gap
        bf.bound_convex_eighth(f)


def test_convex_eighth_caller_assertion():
    # a segment is certified by its kind alone: no caller can pass a
    # function or a shape claim to be taken on trust
    seg = bf.uniform_log_density(10).segments[0]
    for kind, params in ((seg, True), ("custom", (1.0, 1.0))):
        with pytest.raises(DensityError, match="unknown segment kind"):
            bf.Segment(seg.lo, seg.hi, kind, params)
    report = bf.bound_convex_eighth(bf.PiecewiseDensity((seg,)))
    assert all(h.endswith("certified (segment kind)") for h in report.hypotheses_verified)


def test_convex_eighth_interval_mismatch():
    # the interval snaps the left end to 3, but the support starts 2e-12
    # outside it: farther than the 1e-12 the bound allows
    f = bf.uniform_density(2.999999999998, 4.0)
    assert f.delineated_interval() == (3, 4)
    with pytest.raises(DensityError, match="certified only"):
        bf.bound_convex_eighth(f)


def test_convex_eighth_is_not_universal_documented_counterexample():
    # the eighth constant treats straight lines as the worst monotone convex
    # shape; a ramp that idles at zero before rising beats it: the true
    # distance is 4/9 while (sup - inf)/8 is 3/8.  The ramp does not cover
    # its integer interval (0, 1), so the bound refuses it.
    ramp = bf.PiecewiseDensity((bf.linear_segment(1.0 / 3.0, 1.0, 4.5, -1.5),))
    with pytest.raises(DensityError, match="certified only"):
        bf.bound_convex_eighth(ramp)
    seg = ramp.segments[0]
    eighth = (seg(seg.hi) - seg(seg.lo)) / 8.0
    assert eighth == pytest.approx(3.0 / 8.0, rel=1e-14)
    truth = bf.delta_numeric(ramp, 1)
    assert truth.value == pytest.approx(4.0 / 9.0, abs=1e-10)
    assert truth.value > eighth + 0.069
    # the hypotheses-only bounds stay sound on the same density
    assert truth.value <= bf.bound_tv_quarter(ramp).value + 1e-10
    assert truth.value <= bf.bound_step_density(ramp).value + 1e-10


def _grid_monotone_convex(f, lo, hi):
    # 257 samples on [lo, hi] are monotone and have nonnegative second
    # differences, up to roundoff in the largest value
    ys = f(np.linspace(lo, hi, 257))
    d1 = np.diff(ys)
    tol = 1e-9 * (np.max(np.abs(ys)) + 1e-30)
    monotone = np.all(d1 >= -tol) or np.all(d1 <= tol)
    return bool(monotone and np.all(np.diff(ys, 2) >= -tol))


def _single_segment_density(kind, k, cells, y0, y1, log_rate):
    lo, hi = float(k), float(k + cells)
    if kind == "const":
        return bf.uniform_density(lo, hi)
    if kind == "linear":
        slope = (y1 - y0) / (hi - lo)
        return bf.normalized((bf.linear_segment(lo, hi, slope, y0 - slope * lo),))
    rate = math.copysign(10.0**log_rate, y1 - y0)
    # value 1 at lo, with amp taken at x = 0 where e**(-rate*lo) is a double
    at = 0.0 if abs(rate * lo) < 700.0 else lo
    return bf.normalized((bf.exp_segment(lo, hi, math.exp(rate * (at - lo)), rate, at=at),))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("const", "linear", "exp")),
    k=st.integers(min_value=-3, max_value=3),
    cells=st.integers(min_value=1, max_value=3),
    y0=st.floats(min_value=0.0, max_value=2.0),
    y1=st.floats(min_value=0.0, max_value=2.0),
    log_rate=st.floats(min_value=-9.0, max_value=math.log10(250.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# values up to e**533 whose factor e**(rate*x) overflows on its own
@example(kind="exp", k=1, cells=3, y0=0.0, y1=0.0, log_rate=2.25, seed=0)
# a normalized amp at x = 0 of 237 * e**-948, which no double holds
@example(kind="exp", k=2, cells=2, y0=0.0, y1=1.0, log_rate=2.375, seed=0)
# an amp at x = 0 of e**711
@example(kind="exp", k=-3, cells=1, y0=0.0, y1=1.0, log_rate=2.375, seed=0)
def test_certified_convex_eighth_is_monotone_and_convex_on_a_grid(
    kind, k, cells, y0, y1, log_rate, seed
):
    # the certified label rests on the segment's kind alone; every
    # density it certifies passes a 257-point monotone and convex check
    assume(kind != "linear" or y0 + y1 > 1e-3)
    assume(kind != "exp" or 10.0**log_rate * cells < 700.0)
    single = _single_segment_density(kind, k, cells, y0, y1, log_rate)
    for f in (single, random_density(np.random.default_rng(seed))):
        try:
            report = bf.bound_convex_eighth(f)
        except DensityError:
            assert f is not single
            continue
        assert all("certified (segment kind)" in h for h in report.hypotheses_verified)
        assert _grid_monotone_convex(f, *f.support())


def test_convex_eighth_sound_for_exponential_family():
    # for pure exponentials the eighth constant holds with margin at every
    # growth rate (it is asymptotically sharp as the rate goes to zero)
    for s in (0.05, 0.3, 1.0, math.log(10.0), 6.0, 20.0):
        b = math.exp(s)
        delta = bf.exact_delta_uniform(b, 1).value
        assert delta <= s / 8.0 + 1e-15


def test_uniform_log_tv_reference_values():
    assert f"{bf.bound_uniform_log_tv(10, 1).value:.7f}" == "0.2878231"
    assert f"{bf.bound_uniform_log_tv(10, 5).value:.7f}" == "0.0575646"
    assert f"{bf.bound_uniform_log_tv(10, 1000).value:.7f}" == "0.0002878"


# ---------------------------------------------------------------------------
# Fourier route
# ---------------------------------------------------------------------------


def test_fourier_coeff_at_zero_is_one():
    assert bf.fourier_coeff_uniform_log(10, 0) == 1.0 + 0.0j


def test_fourier_coeff_modulus_and_numeric_crosscheck():
    c = bf.fourier_coeff_uniform_log(10, 1)
    assert abs(c) == pytest.approx(LN10 / math.sqrt(LN10**2 + 4 * math.pi**2), rel=1e-14)
    f = bf.uniform_log_density(10)
    for k in (1, 2, 5):
        coeff = mpmath.quad(lambda x: f(float(x)) * mpmath.expjpi(-2 * k * x), [0, 1])
        want = bf.fourier_coeff_uniform_log(10, k)
        assert complex(coeff) == pytest.approx(want, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(min_value=1.01, max_value=1e4),
    k=st.integers(min_value=-1000, max_value=1000),
)
def test_fourier_coeff_conjugate_symmetry(b, k):
    assert bf.fourier_coeff_uniform_log(b, -k) == bf.fourier_coeff_uniform_log(b, k).conjugate()


def test_parseval_zero_coefficients():
    r = bf.bound_fourier_parseval(lambda k: 0.0, 1, 100, lambda K: 0.0)
    assert r.value == 0.0


def test_parseval_monotone_in_kmax_and_below_closed_form():
    coeffs = bf.uniform_log_coeffs(10)
    closed = bf.bound_fourier_closed(10, 1).value
    prev = 0.0
    for k_max in (1, 2, 5, 10, 100, 1000):
        # truncated sum without its tail: nondecreasing in k_max
        partial = bf.bound_fourier_parseval(coeffs, 1, k_max, lambda K: 0.0).value
        assert partial >= prev - 1e-15
        assert partial < closed
        prev = partial
    # with the rigorous tail the bound stays below the closed form too
    full = bf.bound_fourier_parseval(coeffs, 1, 2000, bf.uniform_log_tail_bound(10, 1))
    assert prev < full.value < closed


def test_parseval_n10_below_reference():
    r = bf.bound_fourier_parseval(
        bf.uniform_log_coeffs(10), 10, 5000, bf.uniform_log_tail_bound(10, 10)
    )
    assert r.value <= 0.0332350


def test_parseval_requires_tail_bound():
    with pytest.raises(DensityError):
        bf.bound_fourier_parseval(bf.uniform_log_coeffs(10), 1, 100, None)


def test_parseval_at_huge_n_is_above_the_exact_value_or_refused():
    # n * n overflows from n = 1e152, and the tail majorant with it; there
    # the bound once read 0.0 below the true distance
    refused = []
    for e in (*range(150, 166), 200, 300):
        n = 10**e
        try:
            r = bf.bound_fourier_parseval(bf.uniform_log_coeffs(10), n, 1000, bf.uniform_log_tail_bound(10, n))
        except VacuousBoundError as exc:
            assert "underflows" in str(exc)
            refused.append(e)
            continue
        assert r.value >= bf.exact_delta_uniform(10, n).value
    assert refused[0] <= 152 and refused[-1] == 300


def test_parseval_tail_bound_dominates_true_tail():
    # the majorant must cover the discarded two-sided tail it claims to
    for n in (1, 3, 10):
        tail = bf.uniform_log_tail_bound(10, n)
        for k_max in (5, 50):
            ks = np.arange(k_max + 1, 2_000_000, dtype=float)
            power = LN10**2 / (LN10**2 + (2.0 * math.pi * n * ks) ** 2)
            true_tail = 2.0 * float(power.sum())  # +k and -k moduli agree
            assert tail(k_max) >= true_tail


def test_fourier_closed_reference_values():
    assert f"{bf.bound_fourier_closed(10, 1).value:.7f}" == "0.3323495"
    assert f"{bf.bound_fourier_closed(10, 50).value:.7f}" == "0.0066470"
    assert bf.bound_fourier_closed(math.e, 1).value == pytest.approx(
        1.0 / (2.0 * math.sqrt(12.0)), rel=1e-15
    )


# ---------------------------------------------------------------------------
# exact closed form
# ---------------------------------------------------------------------------


def test_exact_delta_reference_table():
    for n, (exact, _, _) in REFERENCE_TABLE.items():
        assert f"{bf.exact_delta_uniform(10, n).value:.7f}" == f"{exact:.7f}"


def test_exact_params_invariants():
    p = bf.ExactUniformParams(10, 1)
    assert p.x == pytest.approx(10.0)
    assert p.u == pytest.approx(9.0 / LN10, rel=1e-14)
    assert 1.0 < p.u < p.x
    assert p.t0 == pytest.approx(math.log10(9.0 / LN10), rel=1e-14)
    v = p.u * math.log(p.u) - p.u + 1.0
    assert v >= 0.0


def test_exact_delta_via_crossing_point():
    # the distance equals t0 - F(t0) at the crossing of the folded density
    for b, a in ((10.0, 1.0), (10.0, 3.0), (2.0, 2.0), (math.e, 1.0)):
        p = bf.ExactUniformParams(b, a)
        want = p.t0 - bf.folded_cdf_uniform(b, a, p.t0)
        assert bf.exact_delta_uniform(b, a).value == pytest.approx(want, abs=1e-12)


def test_exact_delta_strictly_decreasing_to_zero():
    prev = 1.0
    for a in (1, 2, 4, 8, 16, 64, 256, 4096, 10**6):
        d = bf.exact_delta_uniform(10, a).value
        assert 0.0 < d < prev
        prev = d
    assert bf.exact_delta_uniform(10, 10**15).value < 1e-14


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(min_value=1.001, max_value=1e5),
    a=st.floats(min_value=1e-3, max_value=1e12),
)
def test_exact_delta_scale_invariance(b, a):
    # depends on (b, a) only through b**(1/a)
    d1 = bf.exact_delta_uniform(b, a).value
    d2 = bf.exact_delta_uniform(b * b, 2.0 * a).value
    assert d1 == pytest.approx(d2, abs=1e-14, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(min_value=1.01, max_value=1e6, exclude_min=True),
    a=st.floats(min_value=0.3, max_value=50.0),
)
def test_exact_delta_at_a_real_exponent_is_the_fold_of_a_log_of_a_uniform(b, a):
    # a * log_b(U), U ~ U(0, 1), folds as log_x(U[1, x]) with x = b**(1/a):
    # the oracle on that density at n = 1 is an independent value at any
    # real a, where a * log_b(U[1, b]) would differ (b = 10, a = 1.5)
    got = bf.exact_delta_uniform(b, a).value
    r = bf.delta_numeric(bf.uniform_log_density(b ** (1.0 / a)), 1)
    assert abs(got - r.value) <= max(10.0 * r.error_estimate, 1e-10)


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(min_value=1.01, max_value=1e4),
    a=st.floats(min_value=1e-2, max_value=1e10),
)
def test_exact_delta_matches_high_precision(b, a):
    got = bf.exact_delta_uniform(b, a).value
    with mpmath.workdps(60):
        x = mpmath.power(b, mpmath.mpf(1) / mpmath.mpf(a))
        u = (x - 1) / mpmath.log(x)
        want = float((u * mpmath.log(u) - u + 1) / (x - 1))
    assert got == pytest.approx(want, abs=1e-15, rel=1e-12)


def _exact_high_precision(b, a):
    # the closed form at enough digits to survive its cancellation, ~2 log10(a)
    with mpmath.workdps(60 + 2 * max(0, int(mpmath.log10(a)))):
        h = mpmath.log(b) / a
        u = mpmath.expm1(h) / h
        return float((u * mpmath.log(u) - u + 1) / mpmath.expm1(h))


def test_exact_delta_keeps_its_relative_accuracy_at_every_exponent():
    # v * v underflowed from a ~ 1e155 and read 0.0 from a ~ 1e162, and the
    # direct form cancelled just above the old series threshold (b = 10, a = 73)
    worst = 0.0
    for b in (2.0, 10.0):
        for k in range(-2, 309):
            for m in (1.0, 1.7, 2.0, 3.0, 5.0, 7.3):
                a = m * 10.0**k
                want = _exact_high_precision(b, a) if math.isfinite(a) else 0.0
                if not sys.float_info.min <= want < 1.0:
                    continue
                worst = max(worst, abs(bf.exact_delta_uniform(b, a).value - want) / want)
    assert worst <= 1e-15


def test_exact_delta_huge_exponent_asymptote():
    # a -> infinity: a * delta -> ln(b)/8
    for a in (1e6, 1e9, 1e12):
        d = bf.exact_delta_uniform(10, a).value
        assert a * d == pytest.approx(LN10 / 8.0, rel=1e-9)


def test_exact_delta_tiny_exponent_approaches_one():
    # x = b**(1/a) blows up: the distance crawls toward 1 from below
    d = bf.exact_delta_uniform(10, 1e-3).value
    assert 0.99 < d < 1.0
    with mpmath.workdps(80):
        x = mpmath.power(10, mpmath.mpf(1000))
        u = (x - 1) / mpmath.log(x)
        want = float((u * mpmath.log(u) - u + 1) / (x - 1))
    assert d == pytest.approx(want, rel=1e-10)


def test_exact_delta_domain_errors():
    for b, a in ((1.0, 1.0), (0.5, 1.0), (10.0, 0.0), (10.0, -2.0)):
        with pytest.raises(DensityError):
            bf.exact_delta_uniform(b, a)


def test_exact_delta_rounding_to_one_is_a_numerical_failure():
    # a valid input whose distance is 1 - 1e-300: not representable below 1
    for b, a in ((1e308, 1e-300), (10.0, 1e-320)):
        with pytest.raises(VacuousBoundError, match="rounds to 1"):
            bf.exact_delta_uniform(b, a)
    # ln(b)/a overflows to inf: the crossing point is at its limit 1, not nan
    assert bf.ExactUniformParams(10.0, 1e-320).t0 == 1.0


REAL_TYPES = (int, float, np.int64, np.float64)


@pytest.mark.parametrize("real", REAL_TYPES)
def test_closed_forms_accept_every_real_base_and_exponent(real):
    assert bf.exact_delta_uniform(real(10), real(3)) == bf.exact_delta_uniform(10.0, 3.0)
    assert bf.ExactUniformParams(real(10), real(3)) == bf.ExactUniformParams(10.0, 3.0)
    assert bf.folded_cdf_uniform(real(10), real(2), 0.5) == bf.folded_cdf_uniform(10.0, 2.0, 0.5)
    assert bf.bound_uniform_log_tv(real(10), 3) == bf.bound_uniform_log_tv(10.0, 3)
    assert bf.bound_fourier_closed(real(10), 3) == bf.bound_fourier_closed(10.0, 3)
    assert bf.fourier_coeff_uniform_log(real(10), 2) == bf.fourier_coeff_uniform_log(10.0, 2)


@pytest.mark.parametrize(
    "n, ok",
    ((3, True), (np.int64(3), True), (3.0, False), (np.float64(3), False), (True, False)),
)
def test_closed_forms_take_n_as_an_integer_only(n, ok):
    for fn in (bf.bound_uniform_log_tv, bf.bound_fourier_closed, bf.uniform_log_tail_bound):
        if ok:
            fn(10.0, n)
        else:
            with pytest.raises(DensityError, match="positive integer"):
                fn(10.0, n)
    if ok:
        assert bf.bound_uniform_log_tv(10.0, n) == bf.bound_uniform_log_tv(10.0, 3)


def test_closed_forms_reject_bool_base_and_exponent():
    with pytest.raises(DensityError, match="base"):
        bf.bound_uniform_log_tv(True, 3)
    for call in (
        lambda: bf.exact_delta_uniform(10.0, True),
        lambda: bf.ExactUniformParams(10.0, True),
        lambda: bf.folded_cdf_uniform(10.0, True, 0.5),
    ):
        with pytest.raises(DensityError, match="exponent"):
            call()


def test_scales_and_n_take_one_argument_rule():
    # numpy scalars are accepted; a bool is no scale and no n
    f = bf.uniform_log_density(10)
    for real in (np.int64, np.float64):
        assert bf.bound_tv_scaled(f, real(3)) == bf.bound_tv_scaled(f, 3)
        assert bf.scale_density(f, real(3)) == bf.scale_density(f, 3.0)
        assert bf.delta_numeric(f, real(3)).value == bf.delta_numeric(f, 3).value
    with pytest.raises(DensityError, match="scale must be positive"):
        bf.bound_tv_scaled(f, True)
    with pytest.raises(DensityError, match="scale factor must be positive"):
        bf.scale_density(f, True)
    with pytest.raises(ValueError, match="scale factor must be positive"):
        bf.delta_numeric(f, True)


def test_tv_scaled_overflow_is_a_numerical_failure():
    # TV/(4n) with a tiny real scale overflows: no information, not bad input
    f = bf.uniform_density(0, 1)
    with pytest.raises(VacuousBoundError, match="not finite"):
        bf.bound_tv_scaled(f, 1e-320)
    assert bf.bound_tv_scaled(f, 1e-300).value == 2.0 / (4.0 * 1e-300)


@pytest.mark.parametrize("lo, hi", ((0.0, 1e-13), (3.0, 3.0 + 1e-12), (0.0, 1e-300)))
def test_narrow_support_keeps_its_cell(lo, hi):
    # both ends lie within the integer-snapping slack of one integer; the
    # support still delineates a whole cell and the distance is ~1, so no
    # certified bound may read less
    f = bf.uniform_density(lo, hi)
    assert f.delineated_interval() == (lo, lo + 1)
    reports = [bf.bound_step_density(f), bf.bound_tv_quarter(f), bf.bound_tv_scaled(f, 1)]
    assert all(r.value >= 1.0 - 1e-6 for r in reports), reports
    with pytest.raises(DensityError, match="certified only"):
        bf.bound_convex_eighth(f)


def test_folded_cdf_endpoints_and_monotonicity():
    assert bf.folded_cdf_uniform(10, 1, 0.0) == 0.0
    assert bf.folded_cdf_uniform(10, 1, 1.0) == pytest.approx(1.0, rel=1e-15)
    ts = np.linspace(0, 1, 101)
    vals = [bf.folded_cdf_uniform(10, 1, float(t)) for t in ts]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_folded_cdf_crossing_reference():
    p = bf.ExactUniformParams(10, 1)
    assert p.t0 - bf.folded_cdf_uniform(10, 1, p.t0) == pytest.approx(0.2688434, abs=5e-8)


def test_folded_cdf_domain():
    with pytest.raises(DensityError):
        bf.folded_cdf_uniform(10, 1, 1.5)


# ---------------------------------------------------------------------------
# cross-method structure
# ---------------------------------------------------------------------------


def test_ordering_chain_sample():
    for b in (2.0, math.e, 10.0, 100.0):
        for n in (1, 2, 7, 31, 250, 1000):
            exact = bf.exact_delta_uniform(b, n).value
            tv = bf.bound_uniform_log_tv(b, n).value
            fourier = bf.bound_fourier_closed(b, n).value
            assert exact <= tv < fourier
            assert tv / fourier == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_bounds_hold_against_oracle_spot():
    rng = np.random.default_rng(99)
    for _ in range(10):
        f = random_density(rng)
        oracle = bf.delta_numeric(f, 1)
        for report in (bf.bound_step_density(f), bf.bound_tv_quarter(f)):
            assert oracle.value <= report.value + 1e-9


def test_bound_report_validation():
    with pytest.raises(ValueError):
        bf.BoundReport("tv_quarter", -0.1, ())
    with pytest.raises(ValueError):
        bf.BoundReport("exact_uniform", 1.0, ())
    with pytest.raises(ValueError):
        bf.BoundReport("no_such_method", 0.1, ())
