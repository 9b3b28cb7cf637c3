import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import benfold as bf
from benfold.density import DensityError, _snap_int
from benfold.oracle import QuadratureConfig, averaging_residual

from _support import _random_segment, fold_at, fold_kinks, random_density, reference_fold, translate_sum

LN10 = math.log(10.0)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------


def test_rejects_identically_zero():
    with pytest.raises(DensityError):
        bf.PiecewiseDensity((bf.const_segment(0, 1, 0.0),))


def test_rejects_wrong_mass():
    with pytest.raises(DensityError):
        bf.PiecewiseDensity((bf.const_segment(0, 1, 0.5),))


def test_rejects_overlap():
    segs = (bf.const_segment(0, 1, 0.5), bf.const_segment(0.5, 1.5, 0.5))
    with pytest.raises(DensityError):
        bf.PiecewiseDensity(segs)


def test_rejects_infinite_width():
    # each end is finite but hi - lo overflows: refused before numpy sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DensityError, match="width hi - lo must be finite"):
            bf.uniform_density(-1e308, 1e308)
        with pytest.raises(DensityError, match="width hi - lo must be finite"):
            bf.const_segment(-1.5e308, 1.5e308, 0.0)


def test_rejects_negative_values():
    with pytest.raises(DensityError):
        bf.linear_segment(0, 1, -3.0, 1.0)  # dips to -2 at x=1


def test_rejects_bad_flags():
    # a segment takes no callable and no monotonicity or convexity flag: its kind owns its shape
    with pytest.raises(TypeError):
        bf.Segment(0, 1, None, False, "exp", (1.0, 2.0))
    with pytest.raises(DensityError, match="unknown segment kind"):
        bf.Segment(0, 1, "decreasing", (1.0, 2.0))
    seg = bf.Segment(0, 1, "exp", (1.0, 2.0))
    assert seg._fields == ("lo", "hi", "kind", "params") and seg == bf.exp_segment(0, 1, 1.0, 2.0)


def test_evaluation_and_ownership():
    f = bf.PiecewiseDensity(
        (bf.const_segment(0, 1, 0.25), bf.const_segment(1, 2, 0.75))
    )
    assert f(0.5) == 0.25
    assert f(1.0) == 0.75  # junction point belongs to the right segment
    assert f(2.0) == 0.75  # support supremum belongs to the last segment
    assert f(2.5) == 0.0
    assert f(-1.0) == 0.0
    np.testing.assert_allclose(f(np.array([0.5, 1.5, 3.0])), [0.25, 0.75, 0.0])


def test_zero_mass_segments_dropped():
    f = bf.PiecewiseDensity(
        (bf.const_segment(-1, 0, 0.0), bf.const_segment(0, 1, 1.0))
    )
    assert len(f.segments) == 1
    assert f.support() == (0.0, 1.0)


def test_delineated_interval():
    assert bf.uniform_density(0, 1).delineated_interval() == (0, 1)
    assert bf.uniform_density(0.25, 0.75).delineated_interval() == (0, 1)
    assert bf.uniform_density(-0.5, 2.5).delineated_interval() == (-1, 3)
    assert bf.uniform_density(2, 3).delineated_interval() == (2, 3)


def test_exp_segment_with_zero_amp_is_refused():
    # a zero amp or rate is no exponential piece; exp_segment refuses it too
    for rate in (1.0, 800.0):
        with pytest.raises(DensityError, match="nonzero amp"):
            bf.Segment(0.0, 0.5, "exp", (0.0, rate))
    with pytest.raises(DensityError):
        bf.exp_segment(0.0, 0.5, 0.0, 800.0)


def test_normalized_moves_an_out_of_range_exp_amp_to_the_larger_end():
    # the amp at x = 0 of these normalized pieces, 237 * e**-948 and
    # 237 * e**711, is no double; their values, up to 237, are
    for seg, end in ((bf.exp_segment(2.0, 4.0, math.exp(-474.0), 237.0), 4.0), (bf.exp_segment(3.0, 5.0, math.exp(700.0), -237.0), 3.0)):
        g = bf.normalized((seg,)).segments[0]
        assert g.params == (pytest.approx(237.0, rel=1e-12), seg.params[1], end)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)
        assert g(end) == g.params[0] and g(3.5) == pytest.approx(237.0 * math.exp(-0.5 * 237.0), rel=1e-12)


def test_segment_kind_and_params_are_validated():
    with pytest.raises(DensityError):
        bf.Segment(0.0, 1.0, "spline", (1.0,))
    with pytest.raises(DensityError):
        bf.Segment(0.0, 1.0, "linear", (1.0,))
    with pytest.raises(DensityError):
        bf.Segment(0.0, 1.0, "const", (1.0, 1.0))
    with pytest.raises(DensityError, match="unknown segment kind 'custom'"):
        bf.Segment(0.0, 1.0, "custom", (1.0, 1.0))


def test_triangular_slopes_off_the_normal_doubles_are_refused():
    # on [-1e200, 1e200] the slopes, +-1e-400, round to 0 and the mass read
    # 0 * inf = nan; a subnormal slope or an infinite one is refused alike
    with pytest.raises(DensityError, match=r"\[-1e\+200, 1e\+200\] has slopes 0\.0 and -0\.0, not normal doubles"):
        bf.triangular_density(-1e200, 0.0, 1e200)
    with pytest.raises(DensityError, match="slopes 1e-320 and -1e-320"):
        bf.triangular_density(-1e160, 0.0, 1e160)
    with pytest.raises(DensityError, match="slopes inf and -2.0"):
        bf.triangular_density(0.0, 1e-320, 1.0)
    assert bf.triangular_density(-1e150, 0.0, 1e150).segments[0].params[0] == pytest.approx(1e-300)


def test_validation_messages():
    # every kind is monotone, so it is checked at its two ends
    with pytest.raises(DensityError, match="non-finite value"):
        bf.exp_segment(0.0, 1000.0, 1.0, 1.0)  # e**1000 overflows at hi
    with pytest.raises(DensityError, match="non-finite value"):
        bf.const_segment(0.0, 1.0, math.nan)
    with pytest.raises(DensityError, match="segment evaluates negative"):
        bf.linear_segment(0.0, 1.0, -3.0, 1.0)
    with pytest.raises(DensityError, match="segment evaluates negative"):
        bf.Segment(0.0, 1.0, "exp", (-1.0, 1.0))
    with pytest.raises(DensityError, match="width hi - lo must be finite"):
        bf.linear_segment(-1e308, 1e308, 0.0, 1.0)
    with pytest.raises(DensityError, match=r"segment \[0.0, 1e[+]300\] .* has mass nan"):
        # 0.5 * 0.0 * hi**2 is 0 * inf: a nan mass, not a massless segment
        bf.PiecewiseDensity((bf.linear_segment(0.0, 1e300, 0.0, 1e-300),))


def _x_points():
    return st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), xs=st.lists(_x_points(), min_size=1, max_size=10))
def test_scalar_segment_value_matches_the_array_path(seed, xs):
    # a Python int or float is evaluated with math, an array with numpy:
    # const and linear agree bit for bit; math.exp and np.exp agree within
    # one ulp, so an exp value, one rounding later, within two
    for seg in random_density(np.random.default_rng(seed)).segments:
        for x in xs:
            got = seg(x)
            want = float(seg(np.array([x]))[0])
            assert type(got) is float
            if seg.kind == "exp":
                rx = seg.params[1] * x
                assert abs(math.exp(rx) - float(np.exp(np.array([rx]))[0])) <= math.ulp(math.exp(rx))
                assert abs(got - want) <= 2.0 * math.ulp(want)
            else:
                assert got == want


def test_scalar_exp_overflow_is_inf_and_bool_takes_the_array_path():
    seg = bf.exp_segment(0.0, 1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert seg(1000.0) == math.inf
        assert seg(-1000) == 0.0
    assert type(seg(True)) is np.float64


def test_exp_rate_past_expm1_overflow_is_a_density_error():
    # expm1(800) overflows; the segment's value e**800 is not finite either
    with pytest.raises(DensityError, match="non-finite"):
        bf.exp_segment(0.0, 1.0, 1.0, 800.0)


def test_exp_segment_with_finite_values_past_the_exp_range():
    # e**(rate*x) overflows on its own, amp * e**(rate*x) is at most e**533.4
    rate = 177.8
    seg = bf.exp_segment(1.0, 4.0, math.exp(-rate), rate)
    with mpmath.workdps(30):
        value = lambda x: mpmath.e ** (rate * (x - 1.0))  # noqa: E731
        assert seg(4.0) == pytest.approx(float(value(4.0)), rel=1e-12)
        assert seg(2.5) == pytest.approx(float(value(2.5)), rel=1e-12)
        mass = float(mpmath.quad(value, [1.0, 4.0]))
    assert seg.mass() == pytest.approx(mass, rel=1e-12)
    xs = np.array([1.0, 2.5, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert seg(xs).tolist() == [seg(x) for x in xs.tolist()]
    f = bf.normalized((seg,))
    assert f.segment_masses[0] == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(bf.fold_mod1(f)(0.5))
    # below the overflow the value is the plain product, bit for bit
    ordinary = bf.exp_segment(0.0, 1.0, 0.3, 2.0)
    assert ordinary(0.7) == 0.3 * math.exp(2.0 * 0.7)
    assert ordinary.mass() == (0.3 / 2.0) * (math.exp(2.0) - math.exp(0.0))


def test_builtin_densities_load_numpy_on_first_array_use():
    code = (
        "import sys\n"
        "import benfold as bf\n"
        "f = bf.PiecewiseDensity((bf.const_segment(0.0, 0.5, 0.5), bf.linear_segment(0.5, 1.5, 0.5, 0.25)))\n"
        "bf.tv_full_line(bf.scale_density(bf.uniform_log_density(10), 3))\n"
        "print('BUILT', 'numpy' in sys.modules, bf.tv_integer_delineated(f))\n"
        "print('FOLDED', repr(bf.fold_mod1(f)(0.25)), 'numpy' in sys.modules)\n"
        "bf.fold_mod1(f)([0.25])\n"
        "print('ARRAY', 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "BUILT False 1.5" in proc.stdout
    # a fold at a Python float is a float computed with math
    assert "FOLDED 1.375 False" in proc.stdout
    assert "ARRAY True" in proc.stdout
    code = code.replace("bf.fold_mod1(f)([0.25])", "pass")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert "ARRAY False" in proc.stdout, proc.stderr


def test_closed_forms_match_callable_path_mass():
    rng = np.random.default_rng(2718)
    for _ in range(60):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.05, 3.0))
        seg = _random_segment(rng, lo, hi)
        for _ in range(3):
            a, b = np.sort(rng.uniform(lo, hi, 2))
            want = mpmath.quad(lambda x: seg(float(x)), [float(a), float(b)])
            assert seg.mass(a, b) == pytest.approx(float(want), abs=1e-12)


def test_closed_forms_match_callable_path_step_density():
    # half the sum over cells of the integral of |f - its cell mass|, by the
    # oracle's quadrature, which finds the crossings by its own bisection
    rng = np.random.default_rng(31415)
    for _ in range(25):
        f = random_density(rng)
        closed = bf.bound_step_density(f)
        assert closed.hypotheses_verified == ("no shape hypotheses required", "cell integrals: closed form")
        cfg = QuadratureConfig(breakpoints=[e for seg in f.segments for e in (seg.lo, seg.hi)])
        n_lo, m_hi = f.delineated_interval()
        cells = [averaging_residual(lambda x: np.asarray(f(x)), k, k + 1.0, cfg)[0] for k in range(n_lo, m_hi)]
        assert closed.value == pytest.approx(0.5 * math.fsum(cells), abs=1e-10)


def test_closed_forms_match_callable_path_scale_and_normalize():
    # scale_density(normalized(raw), n) must evaluate to c*raw(x/n)/n for
    # every kind, where c normalizes the raw segments
    rng = np.random.default_rng(1618)
    for _ in range(40):
        lo = float(rng.uniform(-2.0, 2.0))
        edges = lo + np.cumsum(rng.uniform(0.1, 1.5, 4))
        raw = [_random_segment(rng, float(a), float(b)) for a, b in zip(edges, edges[1:])]
        c = 1.0 / math.fsum(seg.mass() for seg in raw)
        n = float(rng.choice([1.0, 3.0, 7.5, 1000.0]))
        scaled = bf.scale_density(bf.normalized(raw), n)
        for seg, got in zip(raw, scaled.segments):
            xs = np.linspace(seg.lo * n, seg.hi * n, 33)[1:-1]
            np.testing.assert_allclose(got(xs), c * seg(xs / n) / n, rtol=1e-13, atol=0)


def test_segment_closed_form_matches_quadrature():
    seg = bf.exp_segment(0.3, 1.7, 0.4, 1.1)
    want = mpmath.quad(lambda x: seg(float(x)), [0.5, 1.5])
    assert seg.mass(0.5, 1.5) == pytest.approx(float(want), abs=1e-10)


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------


def test_fold_uniform_is_flat():
    folded = bf.fold_mod1(bf.uniform_density(0, 1))
    ts = np.linspace(0, 0.999, 100)
    np.testing.assert_allclose(folded(ts), 1.0, atol=1e-14)


def test_fold_uniform_log_matches_formula():
    folded = bf.fold_mod1(bf.uniform_log_density(10))
    ts = np.linspace(0.0, 0.999, 50)
    np.testing.assert_allclose(folded(ts), (LN10 / 9.0) * 10.0**ts, rtol=1e-13)


def test_fold_scaled_by_two_sums_translates():
    # density of 2X for X = log10 U[1,10]: two translates contribute by hand
    f2 = bf.scale_density(bf.uniform_log_density(10), 2)
    folded = bf.fold_mod1(f2)
    ts = np.linspace(0.0, 0.999, 50)
    want = (LN10 / 18.0) * (10.0 ** (ts / 2.0) + 10.0 ** ((ts + 1.0) / 2.0))
    np.testing.assert_allclose(folded(ts), want, rtol=1e-13)
    total, err = bf.integrate(folded, 0.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_fold_conserves_mass_random_suite():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        f = random_density(rng)
        folded = bf.fold_mod1(f)
        kinks = sorted(
            {e % 1.0 for seg in f.segments for e in (seg.lo, seg.hi)} - {0.0}
        )
        total, err = bf.integrate(
            folded, 0.0, 1.0, bf.QuadratureConfig(breakpoints=tuple(kinks))
        )
        assert total == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=2000),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=2, max_size=40),
)
def test_fold_scalar_and_vector_agree_exactly(seed, n, ts):
    # one accumulation order for every call shape: bisection re-evaluates
    # scan points as scalars and must see the very same values
    f = random_density(np.random.default_rng(seed))
    folded = bf.fold_mod1(bf.scale_density(f, n))
    vec = folded(np.array(ts))
    assert [folded(t) for t in ts] == list(vec)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=10_000),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=40),
)
def test_fold_closed_form_matches_translate_sum(seed, n, ts):
    # the per-kind closed forms against the plain sum of the translates' values
    g = bf.scale_density(random_density(np.random.default_rng(seed)), n)
    np.testing.assert_allclose(bf.fold_mod1(g)(np.array(ts)), translate_sum(g)(np.array(ts)), rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=10_000),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=40),
)
def test_fold_kernels_match_the_per_point_reference(seed, n, ts):
    # fold_mod1 resolves each segment's translate ranges once per fold,
    # split at its two images; away from the kinks (and from 0, which the
    # snapped ends fold to) a point's range is the one the per-point rule
    # finds, summed alike
    f = bf.scale_density(random_density(np.random.default_rng(seed)), n)
    folded = bf.fold_mod1(f)
    edges = (0.0, *folded.kinks, 1.0)
    ts = [t for t in ts if min(abs(t - e) for e in edges) >= 1e-9]
    assert [folded(t) for t in ts] == [reference_fold(f, t) for t in ts]


def test_fold_at_its_kinks_matches_the_per_point_rule():
    # fold_mod1 picks each kink interval's kernels once, at its left end;
    # the rule applied at each point itself must give the same bits at the
    # kinks, just below them and at both ends of the cell
    rng = np.random.default_rng(17)
    narrow = (bf.uniform_density(0.0, 1e-13), bf.uniform_density(3.0, 3.000000000001))
    scaled = [bf.scale_density(random_density(rng), n) for _ in range(25) for n in (1, 2, 3, 8)]
    for f in scaled + list(narrow):
        folded = bf.fold_mod1(f)
        ts = [0.0, math.nextafter(1.0, 0.0), *folded.kinks]
        ts += [math.nextafter(k, 0.0) for k in folded.kinks]
        assert [folded(t) for t in ts] == [fold_at(f, t) for t in ts]


def test_a_fold_is_freed_without_the_cyclic_collector():
    # the array path goes through the list form, a separate closure, so a
    # fold's fn is no reference cycle and dies with its last reference
    gc.disable()
    try:
        for f in (bf.uniform_log_density(10), bf.triangular_density(0.0, 0.3, 2.0)):
            fn = bf.fold_mod1(bf.scale_density(f, 3)).fn
            assert fn(np.array([0.25, 0.5])).shape == (2,)
            ref = weakref.ref(fn)
            del fn
            assert ref() is None
    finally:
        gc.enable()


def test_fold_kinks_are_the_images_of_every_segment_end():
    # an end folds to 0 where it snaps to an integer, else to e - floor(e);
    # the kinks are those images other than 0, both ends of every segment
    rng = np.random.default_rng(15)
    narrow = (bf.uniform_density(0.0, 1e-13), bf.uniform_density(3.0, 3.000000000001))
    scaled = [bf.scale_density(random_density(rng), n) for _ in range(20) for n in (1, 2, 3, 8, 997)]
    for f in scaled + list(narrow):
        images = set()
        for seg in f.segments:
            for e in (seg.lo, seg.hi):
                images.add(0.0 if _snap_int(e, seg.hi - seg.lo) is not None else e - math.floor(e))
        assert bf.fold_mod1(f).kinks == tuple(sorted(images - {0.0}))
    assert [len(bf.fold_mod1(f).kinks) for f in narrow] == [1, 1]


def test_fold_owns_every_translate_of_a_snapped_endpoint():
    # 0.28 * 25 is 7.000000000000001, which snaps to 7, so no kink sits at 0
    # and translate 7 is owned on the whole cell; finding the range at each
    # point once dropped it for t below ~4.4e-16, where the fold read 0.96
    g = bf.scale_density(bf.PiecewiseDensity((bf.const_segment(0.28, 1.28, 1.0),)), 25)
    assert g.segments[0].lo == 7.000000000000001
    folded = bf.fold_mod1(g)
    assert folded.kinks == ()
    for fold in (folded, translate_sum(g)):
        assert [fold(t) for t in (0.0, 1e-17, 1e-16)] == [1.0, 1.0, 1.0]


def test_fold_keeps_every_translate_next_to_one():
    # at n = 1e5, hi - t rounds to an integer for t within ~7e-12 of 1, where
    # finding the range at each point once dropped a translate and read 0.99999
    f = bf.scale_density(bf.triangular_density(0.0, 1.0, 2.0), 100_000)
    for fold in (bf.fold_mod1(f), translate_sum(f)):
        assert fold(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_fold_is_periodic():
    folded = bf.fold_mod1(bf.scale_density(bf.triangular_density(0.0, 0.3, 2.0), 3))
    ts = np.array([0.0, 0.125, 0.5, 0.75])
    for shift in (-2.0, 1.0, 3.0):
        np.testing.assert_array_equal(folded(ts + shift), folded(ts))
        assert [folded(float(t) + shift) for t in ts] == list(folded(ts))


# exp folds at the edge of the doubles: a huge base, and a long steep piece
_EDGE_EXP = (
    lambda: bf.uniform_log_density(1e300),
    lambda: bf.PiecewiseDensity((bf.exp_segment(-10.0, 0.0, 100.0, 100.0),)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.floats(min_value=0.3, max_value=40.0),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=40),
)
def test_fold_list_form_scalar_and_array_calls_agree_bit_for_bit(seed, n, ts):
    # the list form calls each interval's kernel once on all of its points;
    # every point must get the bits of a one-point call and of an array
    f = bf.scale_density(random_density(np.random.default_rng(seed)), n)
    for g in (f, *(make() for make in _EDGE_EXP)):
        folded = bf.fold_mod1(g)
        fn, kinks = folded.fn, folded.kinks
        xs = [*ts, 0.0, *kinks, *ts[::-1], *(math.nextafter(k, 0.0) for k in kinks)]
        listed = fn._on_list(xs)
        assert list(map(float.hex, listed)) == [float.hex(fn(t)) for t in xs]
        assert list(map(float.hex, listed)) == list(map(float.hex, fn(np.array(xs)).tolist()))


def test_translate_sum_per_kind_matches_explicit_sum():
    t = np.array([0.0, 0.25, 0.9, 0.5])
    k0 = np.array([-3.0, 0.0, 2.0, 4.0])
    k1 = np.array([4.0, 1.0, 2.0, 2.0])  # the last two ranges are empty and reversed
    for seg in (
        bf.const_segment(-3.0, 5.0, 0.7),
        bf.linear_segment(-3.0, 5.0, 0.3, 1.2),
        bf.exp_segment(-3.0, 5.0, 0.4, -0.8),
    ):
        ranges = [(float(ti), int(a), int(b)) for ti, a, b in zip(t, k0, k1)]
        want = [sum(float(seg(ti + k)) for k in range(a, b)) for ti, a, b in ranges]
        # the fold calls series on nonempty ranges only
        series = [seg.series(a, b)([ti])[0] if b > a else 0.0 for ti, a, b in ranges]
        np.testing.assert_allclose(series, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "lo, hi, amp, rate",
    ((-2.0, 3.0, 1e-300, 200.0), (-300.0, -299.0, 1e-320, -2.0), (-10.0, 0.0, 100.0, 100.0)),
)
def test_exp_translate_sum_without_underflow_or_overflow(lo, hi, amp, rate):
    # amp / expm1(rate) underflows (first two) or e**(rate*m) overflows (last),
    # so the plain geometric-series formula gives 0 or nan; the sum must
    # still match the explicit sum of values
    seg = bf.exp_segment(lo, hi, amp, rate)
    t = np.linspace(0.0, 0.99, 12)
    k0 = np.full(t.shape, lo)
    k1 = np.full(t.shape, hi)
    want = [sum(float(seg(ti + k)) for k in range(int(lo), int(hi))) for ti in t]
    with np.errstate(all="ignore"):
        plain = amp / math.expm1(rate) * np.exp(rate * (t + k0)) * np.expm1(rate * (k1 - k0))
    assert not np.allclose(plain, want, rtol=1e-6, atol=0)
    kernel = seg.series(int(lo), int(hi))
    np.testing.assert_allclose(kernel(t.tolist()), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("amp, rate, at, x", ((1e300, 1.0, 1000.0, 0.5), (1e85, 1e-300, 7.18e302, 1.0)))
def test_exp_value_where_the_exponential_alone_underflows(amp, rate, at, x):
    # e**(rate * (x - at)) is below the normal doubles while amp times it
    # is not: the value read 0.0 and 1.5e-12 off.  Checked against amp *
    # e**z for the exponent z the segment forms in doubles; the rounding of
    # z itself (4e-14 of the second value) is the input's, as on every exp
    seg = bf.exp_segment(0.0, 1.0, amp, rate, at)
    z = rate * (x - at)
    with mpmath.workdps(40):
        want = mpmath.mpf(amp) * mpmath.exp(z)
        for got in (seg(x), float(seg(np.array([x]))[0])):
            assert abs(got - want) <= 1e-15 * want
    assert bf.normalized((bf.exp_segment(0.0, 1.0, 1e300, 1.0, 1000.0),)).segment_masses == pytest.approx((1.0,))


# relative error allowed on an exp segment's mass and translate series
# against mpmath: the value's exponent reaches about 1400 and the series'
# about 700, whose rounding alone is up to 1400 * eps = 3.1e-13, and the
# expm1 ratios add a few ulps
_EXP_REL = 1e-12


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(min_value=-1e4, max_value=1e4),
    log_width=st.floats(min_value=-3.0, max_value=math.log10(50.0)),
    rate_share=st.floats(min_value=0.0, max_value=1.0),
    sign=st.sampled_from((1.0, -1.0)),
    log_peak=st.floats(min_value=-300.0, max_value=300.0),
    log_amp=st.floats(min_value=-300.0, max_value=300.0),
    t=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
# amp 1e300 anchored past the far end: the largest value is 1e-10, but
# e**(rate * (x - at)) alone is 1e-310, under the normal doubles
@example(lo=0.0, log_width=0.0, rate_share=1.0, sign=1.0, log_peak=-10.0, log_amp=300.0, t=0.5, cut=0.5)
@example(lo=0.0, log_width=0.0, rate_share=1.0, sign=-1.0, log_peak=-10.0, log_amp=300.0, t=0.5, cut=0.5)
def test_exp_mass_and_series_match_high_precision(lo, log_width, rate_share, sign, log_peak, log_amp, t, cut):
    # rates from 1e-300 to 700 / width of both signs, a peak from 1e-300 to
    # 1e300 at the larger end and an amp from 1e-300 to 1e300 at an anchor
    # as far off as that takes: huge bases, far anchors, long steep pieces.
    # mass and series start from the segment's value at their larger end,
    # so each is checked as that value, computed in mpmath from amp, rate
    # and at, times a factor computed in mpmath
    width = 10.0**log_width
    hi = lo + width
    rate = sign * 10.0 ** (-300.0 + rate_share * (300.0 + math.log10(700.0 / width)))
    top = hi if rate > 0 else lo
    at = top - (log_peak - log_amp) * LN10 / rate
    assume(math.isfinite(at))
    try:
        seg = bf.exp_segment(lo, hi, 10.0**log_amp, rate, at)
    except DensityError:  # the doubles moved the peak past the doubles
        assume(False)
    assume(1e-300 <= seg(top) <= 1e300)

    r = mpmath.mpf(rate)

    def check(got, end, factor):
        # a subnormal start or result has lost bits to underflow already
        start = seg.params[0] * mpmath.exp(r * (mpmath.mpf(end) - seg.params[2]))
        want = start * factor
        if start >= sys.float_info.min and want >= sys.float_info.min:
            assert abs(got - want) <= _EXP_REL * want

    with mpmath.workdps(40):
        mid = lo + cut * width
        for a, b in ((lo, hi), (lo, mid), (mid, hi)):
            if b > a:
                check(seg.mass(a, b), b if rate > 0 else a, -mpmath.expm1(-abs(r) * (mpmath.mpf(b) - a)) / abs(r))
        # the translates t + k of [lo, hi) that a fold owns, summed down from the largest
        k0, k1 = math.ceil(lo - t), math.ceil(hi - t)
        if k1 > k0:
            first = mpmath.exp(r * (mpmath.mpf(t) + (k1 - 1 if rate > 0 else k0) - top))
            check(seg.series(k0, k1)([t])[0], top, first * mpmath.expm1(-abs(r) * (k1 - k0)) / mpmath.expm1(-abs(r)))
    folded = bf.fold_mod1(bf.normalized((seg,)))
    assert all(map(math.isfinite, folded.fn._on_list([0.0, t, *folded.kinks])))


@pytest.mark.parametrize("rate", (1e-300, 1e-10))
def test_exp_segment_with_a_tiny_rate_has_its_mass(rate):
    # the plain difference e**(rate*b) - e**(rate*a) cancels to 0 at 1e-300
    # (identically zero) and loses 8e-8 of 1 at 1e-10 (mass not 1)
    f = bf.PiecewiseDensity((bf.exp_segment(0.0, 1.0, 1.0, rate),))
    assert f.segment_masses[0] == pytest.approx(math.expm1(rate) / rate, rel=1e-15)


def test_fold_of_an_exp_segment_with_a_tiny_rate_keeps_its_mass():
    # a mass that loses 8.27e-8 to cancellation puts the fold's off by as much
    r = bf.delta_numeric(bf.normalized((bf.exp_segment(0.0, 1.0, 1.0, 1e-10),)), 1)
    assert r.value == pytest.approx(bf.exact_delta_uniform(math.exp(1e-10), 1).value, abs=1e-12)


def test_fold_of_long_steep_exp_piece_is_finite():
    f = bf.PiecewiseDensity((bf.exp_segment(-10.0, 0.0, 100.0, 100.0),))
    ts = np.array([0.1, 0.5, 0.9])
    want = [sum(100.0 * math.exp(100.0 * (t + k)) for k in range(-10, 0)) for t in ts]
    np.testing.assert_allclose(bf.fold_mod1(f)(ts), want, rtol=1e-12, atol=0)
    r = bf.delta_numeric(f, 1)
    residual, _, _ = averaging_residual(translate_sum(f), 0.0, 1.0)
    assert r.value == pytest.approx(0.5 * residual, abs=1e-8)


@pytest.mark.parametrize("n", (1, 3, 1000))
def test_mixed_fold_matches_the_closed_form_fold(n):
    # an exp and a linear segment, folded: the closed-form fold reads as the
    # plain sum of the translates' values, alike for scalars and arrays, and
    # so does its distance
    g = bf.scale_density(bf.normalized((bf.exp_segment(0.0, 0.7, 1.0, 1.5), bf.linear_segment(0.7, 1.3, -1.0, 2.0))), n)
    folded, summed = bf.fold_mod1(g), translate_sum(g)
    ts = np.linspace(0.0, 1.0, 47, endpoint=False)
    scalars = [folded(float(t)) for t in ts]
    assert scalars == list(folded(ts))
    np.testing.assert_allclose(scalars, summed(ts), rtol=1e-12, atol=1e-12)
    residual, _, _ = averaging_residual(summed, 0.0, 1.0, QuadratureConfig(breakpoints=fold_kinks(g)))
    assert bf.delta_numeric(g, 1).value == pytest.approx(0.5 * residual, abs=1e-10)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scale_uniform_is_wider_uniform():
    g = bf.scale_density(bf.uniform_density(0, 1), 2)
    assert g.support() == (0.0, 2.0)
    assert g(1.0) == pytest.approx(0.5)


def test_scale_preserves_flags_and_shape():
    f = bf.uniform_log_density(10)
    g = bf.scale_density(f, 5)
    seg = g.segments[0]
    assert (seg.lo, seg.hi) == (0.0, 5.0)
    assert (seg.kind, seg.direction) == ("exp", 1)
    # g(x) = f(x/5)/5
    assert g(2.0) == pytest.approx(f(0.4) / 5.0, rel=1e-14)


@pytest.mark.parametrize("b", (1e300, 1.7e308))
@pytest.mark.parametrize("n", (1e200, 1e300))
def test_a_stretched_exp_amp_under_the_doubles_moves_to_the_larger_end(b, n):
    # the amp ln(b)/(b - 1)/n underflows, but the largest value, f(1)/n, is
    # a normal double: the stretched segment is anchored where it takes it
    f = bf.uniform_log_density(b)
    seg = bf.scale_density(f, n).segments[0]
    assert seg.params[2] == seg.hi == n
    assert seg(seg.hi) == pytest.approx(f.segments[0](1.0) / n, rel=1e-15)
    r = bf.delta_numeric(f, n)
    assert abs(r.value - bf.exact_delta_uniform(b, n).value) <= r.error_estimate


def test_scale_rejects_nonpositive():
    f = bf.uniform_density(0, 1)
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(DensityError):
            bf.scale_density(f, bad)


def test_scale_past_the_doubles_is_a_density_error():
    # 1e-320 ** -1 overflows: a DensityError, not a bare OverflowError
    for f in (bf.uniform_log_density(10), bf.triangular_density(0.0, 1.0, 2.0)):
        with pytest.raises(DensityError, match="overflows"):
            bf.scale_density(f, 1e-320)
    # 1e300 ** -2 underflows: each slope is 0, its mass 0 * inf = nan, and
    # that nan is the cause named, not a density "identically zero"
    with pytest.raises(DensityError, match="scaling by 1e[+]300 underflows or overflows"):
        bf.scale_density(bf.triangular_density(0.0, 1.0, 2.0), 1e300)


def test_uniform_log_density_checks_its_base_as_the_closed_forms_do():
    # one owner of the check: a base of the wrong type is a DensityError too
    for bad in ("10", None, True, 1.0, 0.5, math.inf, math.nan):
        with pytest.raises(DensityError, match="base must satisfy b > 1"):
            bf.uniform_log_density(bad)
    f = bf.uniform_log_density(10.0)
    assert bf.uniform_log_density(10) == f == bf.uniform_log_density(np.float64(10.0))
    assert f.segments[0].params == (math.log(10.0) / 9.0, math.log(10.0), 0.0)


def test_tv_scaling_laws_random_suite():
    rng = np.random.default_rng(77)
    for _ in range(40):
        f = random_density(rng)
        tv_full = bf.tv_full_line(f)
        n = int(rng.integers(1, 101))
        scaled = bf.scale_density(f, n)
        assert bf.tv_full_line(scaled) * n == pytest.approx(tv_full, rel=1e-12)


def test_tv_integer_delineated_scaling_on_integer_supports():
    # supports with integer endpoints keep the delineation structure exactly
    f = bf.uniform_log_density(10)
    for n in (1, 2, 3, 7, 10):
        scaled = bf.scale_density(f, n)
        assert bf.tv_integer_delineated(scaled) * n == pytest.approx(
            bf.tv_integer_delineated(f), rel=1e-12
        )


def test_tv_integer_delineated_scaling_can_tighten():
    # scaling can move a support-edge jump onto an integer, where it stops
    # counting: U[0.5, 1] has TV 2, its doubling U[1, 2] has TV 0
    f = bf.uniform_density(0.5, 1.0)
    assert bf.tv_integer_delineated(f) == pytest.approx(2.0)
    doubled = bf.scale_density(f, 2)
    assert bf.tv_integer_delineated(doubled) == pytest.approx(0.0)
    # the full-line variant keeps the exact scaling identity regardless
    assert bf.tv_full_line(doubled) * 2 == pytest.approx(bf.tv_full_line(f), rel=1e-12)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tv_uniform_unit_is_zero():
    assert bf.tv_integer_delineated(bf.uniform_density(0, 1)) == 0.0


def test_tv_uniform_three_cells_is_zero():
    assert bf.tv_integer_delineated(bf.uniform_density(0, 3)) == 0.0


def test_tv_uniform_log_is_ln_b():
    assert bf.tv_integer_delineated(bf.uniform_log_density(10)) == pytest.approx(
        LN10, rel=1e-14
    )


def test_tv_fractional_support_counts_edge_jumps():
    # jumps at non-integer support edges sit strictly inside (n, m)
    f = bf.uniform_density(0.25, 0.75)
    assert bf.tv_integer_delineated(f) == pytest.approx(4.0)
    assert bf.tv_full_line(f) == pytest.approx(4.0)


def test_tv_full_line_uniform_is_two():
    assert bf.tv_full_line(bf.uniform_density(0, 1)) == pytest.approx(2.0)


def test_tv_full_line_uniform_log():
    # up from 0 to f(1) in total (edge jump plus rise), then down f(1):
    # twice the maximum, like any density going 0 -> max -> 0
    f = bf.uniform_log_density(10)
    want = 2.0 * f(1.0)
    got = bf.tv_full_line(f)
    assert got == pytest.approx(want, rel=1e-14)
    # independent check: the variation on a fine grid over a wider interval
    est = float(np.abs(np.diff(f(np.linspace(-0.5, 1.5, 1 << 15)))).sum())
    assert est <= got + 1e-9
    assert got == pytest.approx(est, abs=5e-3)


def test_tv_full_line_unimodal_is_twice_peak():
    tri = bf.triangular_density(0.0, 1.0, 2.0)
    assert bf.tv_full_line(tri) == pytest.approx(2.0 * tri(1.0), rel=1e-14)


def test_tv_ordering_and_continuous_vanishing_equality():
    rng = np.random.default_rng(4242)
    for _ in range(40):
        f = random_density(rng)
        tv = bf.tv_integer_delineated(f)
        tv_full = bf.tv_full_line(f)
        assert tv <= tv_full + 1e-12
    # vanishing continuously at integer boundaries: the two notions agree
    tri = bf.triangular_density(0.0, 0.7, 1.0)
    assert bf.tv_integer_delineated(tri) == pytest.approx(bf.tv_full_line(tri))


def test_tv_with_interior_gap():
    # two blocks with a zero gap: both gap jumps count, edges at integers do not
    f = bf.PiecewiseDensity(
        (bf.const_segment(0.0, 0.5, 1.0), bf.const_segment(1.5, 2.0, 1.0))
    )
    # down 1 at 0.5, up 1 at 1.5
    assert bf.tv_integer_delineated(f) == pytest.approx(2.0)
    assert bf.tv_full_line(f) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# mass conservation across constructors
# ---------------------------------------------------------------------------


def test_constructors_conserve_mass():
    rng = np.random.default_rng(5)
    densities = [
        bf.uniform_density(0, 1),
        bf.uniform_density(-1.5, 2.5),
        bf.uniform_log_density(2),
        bf.uniform_log_density(10),
        bf.triangular_density(0, 1, 2),
        bf.triangular_density(0.2, 0.3, 4.0),
    ]
    densities += [random_density(rng) for _ in range(10)]
    for f in densities:
        assert math.fsum(f.segment_masses) == pytest.approx(1.0, abs=1e-10)
        g = bf.scale_density(f, float(rng.uniform(0.1, 50.0)))
        assert math.fsum(g.segment_masses) == pytest.approx(1.0, abs=1e-10)
