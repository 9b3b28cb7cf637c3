import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import benfold as bf
import benfold.oracle as oracle
from benfold.oracle import (
    QuadratureConfig,
    adaptive_simpson,
    averaging_residual,
    bisect_root,
    inverse_cdf_sampler,
)

from _support import fold_kinks, random_density, translate_sum

LN10 = math.log(10.0)


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------


def test_simpson_exact_on_cubics():
    # Simpson with Richardson is exact on cubics up to the endpoint-inset
    # bias (~1e-12 * width**2 * slope mismatch), which the jump-tolerant
    # endpoint sampling deliberately accepts
    val, err = adaptive_simpson(lambda x: x**3 - 2 * x**2 + x - 4, 0.0, 2.0)
    want = 4.0 - 16.0 / 3.0 + 2.0 - 8.0
    assert val == pytest.approx(want, abs=1e-11)


def test_simpson_exact_on_lines_despite_inset():
    # symmetric endpoint insets cancel exactly for affine integrands
    for slope, a, b in ((0.375, -1.0, 3.0), (100.0, 0.0, 1.0)):
        val, _ = adaptive_simpson(lambda x: slope * np.asarray(x, dtype=float), a, b)
        assert val == slope * (b * b - a * a) / 2.0


def test_simpson_exponential_accuracy():
    val, err = adaptive_simpson(np.exp, 0.0, 1.0, abs_tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-12)
    assert err < 1e-10


def test_simpson_scalar_only_integrand():
    # non-vectorized callables are detected and evaluated pointwise
    val, _ = adaptive_simpson(lambda x: math.sin(float(x)), 0.0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_integrate_with_breakpoint_on_kink():
    cfg = QuadratureConfig(breakpoints=(0.3,))
    val, err = bf.integrate(lambda x: np.abs(np.asarray(x) - 0.3), 0.0, 1.0, cfg)
    want = 0.5 * (0.3**2 + 0.7**2)
    assert val == pytest.approx(want, abs=1e-13)


def test_integrate_jump_at_breakpoint():
    def step(x):
        return np.where(np.asarray(x, dtype=float) < 0.5, 1.0, 3.0)

    cfg = QuadratureConfig(breakpoints=(0.5,))
    val, err = bf.integrate(step, 0.0, 1.0, cfg)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_quadrature_error_carries_partial_value():
    with pytest.raises(bf.QuadratureError) as exc_info:
        adaptive_simpson(np.exp, 0.0, 1.0, abs_tol=1e-280, max_depth=200)
    err = exc_info.value
    assert err.partial_value == pytest.approx(math.e - 1.0, abs=1e-6)


def test_tolerance_below_the_rounding_floor_fails_fast():
    # refining cannot bring an error estimate under the rounding of the
    # estimates, so the first such rejection ends the run
    calls = []
    with pytest.raises(bf.QuadratureError, match="rounding floor") as exc_info:
        adaptive_simpson(_recording(math.exp, calls), 0.0, 1.0, abs_tol=1e-300)
    assert len(calls) == 5  # the first level only
    assert exc_info.value.partial_value == pytest.approx(math.e - 1.0, abs=1e-6)


@pytest.mark.parametrize(
    "density, n, tol",
    [
        (lambda: bf.uniform_log_density(10), 1000, 1e-18),
        (lambda: bf.triangular_density(0.0, 1.0, 2.0), 3, 1e-19),
        (lambda: bf.uniform_log_density(1.0001), 1, 1e-20),
    ],
)
def test_tolerance_below_the_fold_rounding_fails_fast(density, n, tol):
    # |f_n - 1| is tiny where f_n is near 1, but it is computed from f_n's
    # O(1) values, whose rounding no refinement removes: the floor takes that
    # magnitude, so these end at once instead of at the 2**20-interval cap
    with pytest.raises(bf.QuadratureError, match="rounding floor"):
        bf.delta_numeric(density(), n, QuadratureConfig(abs_tol=tol))


def _counting_fold(monkeypatch):
    # fold_mod1 with its fn wrapped through dataclasses.replace, as the
    # benchmark's tracer wraps it: returns the list of points per fold
    fold, calls = oracle.fold_mod1, []

    def counted(f):
        folded, points = fold(f), []
        calls.append(points)

        def fn(t):
            points.append(t)
            return folded.fn(t)

        return dataclasses.replace(folded, fn=fn)

    monkeypatch.setattr(oracle, "fold_mod1", counted)
    return calls


def test_tolerance_under_the_rounding_noise_stops_refining(monkeypatch):
    # the open error here is rounding noise from its first levels on, and
    # the open set grows without end instead of dying out: the run stops
    # once that shows instead of refining to the 2**20-interval cap
    calls = _counting_fold(monkeypatch)
    with pytest.raises(bf.QuadratureError, match="stopped falling"):
        bf.delta_numeric(bf.uniform_log_density(1000), 1, QuadratureConfig(abs_tol=2e-17))
    assert len(calls[0]) < 200_000


@pytest.mark.parametrize(
    "density, n, points, value",
    [
        pytest.param(lambda: bf.uniform_log_density(10), 1000, 18, "0.00028782311542967226", id="uniform-log-b10-n1000"),
        pytest.param(lambda: bf.uniform_log_density(2), 1, 76, "0.08607133205593381", id="uniform-log-b2-n1"),
        pytest.param(lambda: bf.triangular_density(0.0, 1.0, 2.0), 59, 7, "5.551115123125782e-17", id="triangular-0-1-2-n59"),
        pytest.param(lambda: bf.triangular_density(0.0, 0.3, 2.0), 3, 35, "0.0049019607843137315", id="triangular-0-0.3-2-n3"),
        pytest.param(
            lambda: bf.PiecewiseDensity((bf.linear_segment(0.0, 1.0, 2.0, 0.0),)), 3, 13, "0.08333333333333333", id="ramp-n3"
        ),
    ],
)
def test_oracle_reads_the_fold_only_through_fn(monkeypatch, density, n, points, value):
    # the benchmark counts fold points by wrapping FoldedDensity.fn with
    # dataclasses.replace: every point the oracle evaluates must pass there,
    # and the wrapped fold must give the same value, and scan a monotone
    # kink interval at its two ends as the unwrapped one does.  A kink
    # interval of a triangular density sums linear series only, affine in t
    # like their sum, and so is monotone; the 2x density is scanned at its ends
    calls = _counting_fold(monkeypatch)
    r = bf.delta_numeric(density(), n)
    assert [len(c) for c in calls] == [points]
    assert repr(r.value) == value


def _exp_heavy(f, rng):
    # f's segments as exp pieces of either direction, rates up to 40, mass normalized
    segs = []
    for seg in f.segments:
        rate = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 40.0))
        segs.append(bf.exp_segment(seg.lo, seg.hi, float(rng.uniform(0.1, 2.0)), rate, seg.hi if rate > 0 else seg.lo))
    return bf.normalized(segs)


def _full_scan(f, n):
    # delta_numeric with the fold's monotone flags stripped: 65 scan points everywhere
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "fold_mod1", lambda g, fold=oracle.fold_mod1: dataclasses.replace(fold(g), monotone=()))
        return bf.delta_numeric(f, n)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exp_heavy=st.booleans(),
    n=st.sampled_from((1, 2, 3, 8, 2.5)),
)
def test_monotone_kink_intervals_scanned_at_their_ends(seed, exp_heavy, n):
    # a kink interval flagged monotone is monotone on 257 samples, up to
    # rounding, and scanning it at its two ends finds what 65 points find.
    # The upper inset end of a narrow interval can round onto the next kink,
    # whose sample belongs to the next interval
    rng = np.random.default_rng(seed)
    f = random_density(rng)
    f = _exp_heavy(f, rng) if exp_heavy else f
    folded = bf.fold_mod1(bf.scale_density(f, n))
    assert len(folded.monotone) == len(folded.kinks) + 1
    for p, q, flag in zip((0.0, *folded.kinks), (*folded.kinks, 1.0), folded.monotone):
        if flag:
            inset = 1e-12 * (q - p)
            ys = folded.fn._on_list([x for x in oracle._linspace(p + inset, q - inset, 257) if x < q])
            slack = 1e-15 * max(map(abs, ys))
            steps = [b - a for a, b in zip(ys, ys[1:])]
            assert min(steps) >= -slack or max(steps) <= slack
    try:
        want = _full_scan(f, n)
    except (bf.QuadratureError, bf.BisectionError):
        return
    got = bf.delta_numeric(f, n)  # a refusal here is a new one and fails the test
    assert abs(got.value - want.value) <= 1e-15
    assert got.detail.endswith(f"{sum(folded.monotone)} of {len(folded.monotone)} kink intervals monotone")


def test_a_narrow_monotone_interval_keeps_its_full_scan():
    # the fold rises across 1 on [0.5, 0.5 + 1e-5) and reads 0.98 on both
    # sides.  The upper inset end, 0.5 + 1e-5 - 1e-17, rounds onto the
    # kink, so a scan at the two ends would read 0.98 twice, miss the
    # crossing and refuse with a mass error of 1e-7
    w = 1e-5
    f = bf.PiecewiseDensity(
        (
            bf.const_segment(0.0, 1.0, 0.98),
            bf.linear_segment(2.5, 2.5 + w, 4000.0, -4000.0 * 2.5),
            bf.const_segment(3.6, 4.0, (0.02 - 2000.0 * w * w) / 0.4),
        )
    )
    assert bf.fold_mod1(f).monotone == (True, True, True, True)
    r = bf.delta_numeric(f, 1)
    assert r.value == _full_scan(f, 1).value
    assert r.value == pytest.approx(0.5 * (0.02 * (0.6 - w) + 0.01 * w + 0.03 * 0.4 - 2000.0 * w * w), abs=1e-12)


def test_a_mislabelled_exp_segment_does_not_make_its_interval_monotone():
    # a rising exp segment and a falling line fold onto one interval: their
    # directions come from kind and params, which no label can contradict,
    # and a rising and a falling series summed need not be monotone
    rising = bf.exp_segment(0.0, 1.0, 1.0, 2.0)
    falling = bf.linear_segment(1.0, 2.0, -1.0, 2.5)
    assert (rising.direction, falling.direction) == (1, -1)
    f = bf.normalized((rising, falling))
    folded = bf.fold_mod1(f)
    assert folded.kinks == () and folded.monotone == (False,)
    r = bf.delta_numeric(f, 1)
    assert "0 of 1 kink intervals monotone" in r.detail
    assert r.value == _full_scan(f, 1).value
    # each kind's direction comes from its parameters
    assert bf.const_segment(0.0, 1.0, 1.0).direction == 0
    assert bf.linear_segment(0.0, 1.0, 0.0, 1.0).direction == 0
    assert bf.exp_segment(0.0, 1.0, 1.0, -3.0).direction == -1
    assert bf.fold_mod1(bf.uniform_log_density(10)).monotone == (True,)


def test_evaluators_are_freed_without_the_cyclic_collector():
    # the probe state of an evaluator lives in its closure only, so
    # integrating a raw callable leaves nothing for the cyclic collector
    calls = (
        lambda: oracle.integrate(np.exp, 0.0, 2.0),
        lambda: oracle.integrate(lambda x: x * x, 0.0, 2.0),
        lambda: oracle.averaging_residual(np.exp, 0.0, 2.0),
        lambda: oracle.averaging_residual(math.sin, 0.0, 3.0),
        lambda: bf.delta_numeric(bf.uniform_log_density(10), 7),
    )
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(10):
                call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_tight_but_attainable_tolerances_still_converge():
    # refinement meets these tolerances, so the rounding floor must not refuse them
    f = bf.uniform_log_density(10)
    for n, tol in ((1, 3e-17), (3, 1e-17), (1000, 3e-18)):
        r = bf.delta_numeric(f, n, QuadratureConfig(abs_tol=tol))
        assert r.value == pytest.approx(bf.exact_delta_uniform(10, n).value, abs=1e-15)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(TypeError):
        QuadratureConfig(max_depth=60)  # the depth cap is adaptive_simpson's alone


def test_bisect_root_simple():
    r = bisect_root(lambda x: float(x) ** 2 - 2.0, 0.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-13)
    with pytest.raises(ValueError):
        bisect_root(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(bf.BisectionError):
        bisect_root(lambda x: 1.0, 0.0, 1.0)


def test_bisect_root_stops_at_adjacent_floats():
    # once the bracket is two adjacent floats the midpoint cannot move, so
    # further halvings would only re-evaluate an endpoint
    calls = []

    def fn(x):
        calls.append(x)
        return x * x - 2.0

    r = bisect_root(fn, 0.0, 2.0)
    assert abs(r - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    assert len(calls) < 60


def _plain_bisection(fn, a, b):
    """Bisection as a loop of scalar halvings: the reference for bisect_root."""
    fa = float(fn(a))
    fb = float(fn(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(80):
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = float(fn(m))
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _recording(fn, log):
    def recorded(x):
        log.append(x)
        return fn(x)

    return recorded


def _bisection_rounds(a, b, root):
    """Halvings that bring [a, b] down to the float spacing at root, in exact arithmetic."""
    spacing = min(root - math.nextafter(root, -math.inf), math.nextafter(root, math.inf) - root)
    return math.ceil(math.log2(b - a) - math.log2(spacing))


_ROOT_CASES = [
    (lambda x: float(x) ** 2 - 2.0, 0.0, 2.0),
    # convex across a wide bracket: the regula falsi points spend the one
    # round of slack in the first two rounds, and ITP bisects from there
    (lambda x: math.exp(float(x)) - 3.0, -2.5, 4.0),
    (lambda x: math.cos(float(x)), 0.1, 3.0),
    (lambda x: float(x) - 0.25, 0.0, 1.0),  # has an exact zero
    (lambda x: -1.0 if float(x) < 0.7 else 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("fn, a, b", _ROOT_CASES)
def test_bisect_root_one_point_is_plain_bisection(fn, a, b):
    # one scalar point per round, and plain bisection at worst: bisection's
    # root, or an exact zero within its final bracket, in at most one round
    # more than bisection needs
    got, want = [], []
    root = bisect_root(_recording(fn, got), a, b)
    plain = _plain_bisection(_recording(fn, want), a, b)
    assert root == plain or (fn(root) == 0.0 and abs(root - plain) <= math.ulp(plain))
    assert all(type(x) is float for x in got)
    assert len(got) - 2 <= _bisection_rounds(a, b, root) + 1
    if fn(plain) != 0.0:  # bisection did not stop early on an exact zero
        assert len(got) <= len(want) + 1


@pytest.mark.parametrize("fn, a, b", [_ROOT_CASES[0], _ROOT_CASES[2], _ROOT_CASES[3]])
def test_bisect_root_is_superlinear_on_smooth_functions(fn, a, b):
    calls = []
    bisect_root(_recording(fn, calls), a, b)
    assert len(calls) <= 15  # plain bisection makes 55-56 calls on the first two


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-9, max_value=1e3),
    share=st.floats(min_value=0.0, max_value=1.0),
    shape=st.sampled_from(["line", "cube", "tanh", "expm1", "step"]),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_bisect_root_ends_on_adjacent_floats(a, width, share, shape, sign):
    # on any monotone fn with a sign change the result sits on a sign change
    # between adjacent floats, in no more rounds than bisection + 1
    b = a + width
    c = a + share * (b - a)
    base = {
        "line": lambda d: d,
        "cube": lambda d: d**3,
        "tanh": math.tanh,
        "expm1": lambda d: math.expm1(30.0 * min(d, 20.0)),
        "step": lambda d: -1.0 if d < 0.0 else 1.0,
    }[shape]

    def fn(x):
        return sign * base(x - c)

    fa, fb = fn(a), fn(b)
    assume(fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0))
    assume(_bisection_rounds(a, b, c) < 78)  # bisection itself ends on adjacent floats
    calls = []
    root = bisect_root(_recording(fn, calls), a, b)
    assert a <= root <= b
    assert all(type(x) is float for x in calls)
    y = fn(root)
    if y != 0.0:
        below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
        assert (fn(below) < 0.0) != (y < 0.0) or (fn(above) < 0.0) != (y < 0.0)
    assert len(calls) - 2 <= _bisection_rounds(a, b, root) + 1


def test_fold_bisects_one_point_per_round(monkeypatch):
    # crossings are refined one scalar point per round on every fold: a
    # fold evaluates one point in math for less than numpy's per-call overhead
    rounds = []
    real = oracle.bisect_root

    def counting(fn, a, b, ends=None):
        calls = []
        root = real(_recording(fn, calls), a, b, ends)
        rounds.append(calls)
        return root

    monkeypatch.setattr(oracle, "bisect_root", counting)
    for density in (bf.uniform_log_density(10), bf.triangular_density(0.0, 0.3, 2.0)):
        rounds.clear()
        bf.delta_numeric(density, 7)
        assert rounds
        assert all(len(calls) <= 60 and all(type(x) is float for x in calls) for calls in rounds)


def test_integrate_is_one_batched_simpson_run():
    # one level-synchronous run over all pieces makes the same decisions as
    # a loop of per-piece runs with abs_tol/pieces each
    breaks = (0.2, 0.3, 0.55, 0.8)
    cfg = QuadratureConfig(abs_tol=1e-11, breakpoints=breaks)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(2.0 * x) + np.abs(x - 0.3) + np.where(x < 0.55, 0.0, 4.0)

    batched = []
    value, err = bf.integrate(_recording(fn, batched), 0.0, 1.0, cfg)
    looped = []
    edges = (0.0, *breaks, 1.0)
    parts = [
        adaptive_simpson(_recording(fn, looped), p, q, cfg.abs_tol / 5)
        for p, q in zip(edges, edges[1:])
    ]
    assert value == pytest.approx(sum(v for v, _ in parts), rel=1e-15)
    assert err == pytest.approx(sum(e for _, e in parts), rel=1e-12)
    assert sum(np.size(x) for x in batched) == sum(np.size(x) for x in looped)
    assert len(batched) < len(looped)


def test_batched_simpson_failing_piece_raises_with_partial_value():
    # the singular piece cannot meet its share at depth 8; the others can
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, np.exp(x), 1.0 / np.sqrt(np.abs(x - 0.5)))

    with pytest.raises(bf.QuadratureError) as exc_info:
        adaptive_simpson(fn, 0.0, 1.0, 1e-10, 8, breakpoints=(0.25, 0.5))
    with pytest.raises(bf.QuadratureError) as alone:
        adaptive_simpson(fn, 0.5, 1.0, 1e-10 / 3, 8)
    good = sum(adaptive_simpson(fn, p, q, 1e-10 / 3, 8)[0] for p, q in ((0.0, 0.25), (0.25, 0.5)))
    err = exc_info.value
    assert err.partial_value == pytest.approx(good + alone.value.partial_value, rel=1e-14)
    assert err.error_estimate > 1e-10


def test_simpson_evaluates_each_probe_point_once():
    # a callable is probed on its first sample: one that returns a numpy
    # scalar then gets the rest of each level in one call, one that returns a
    # Python float gets point by point; both sample the same points once
    cfg = QuadratureConfig(abs_tol=1e-12, breakpoints=(0.2, 0.55))
    batched, pointwise = [], []
    vec = bf.integrate(_recording(lambda x: 1.0 / (1.0 + np.asarray(x) * x), batched), -1.0, 2.0, cfg)
    one = bf.integrate(_recording(lambda x: 1.0 / (1.0 + x * x), pointwise), -1.0, 2.0, cfg)
    assert vec == one
    assert vec[0] == pytest.approx(math.atan(2.0) + math.atan(1.0), abs=1e-12)
    assert all(type(x) is float for x in pointwise) and len(set(pointwise)) == len(pointwise)
    assert [x for xs in batched for x in np.atleast_1d(xs)] == pointwise
    assert type(batched[0]) is float and len(batched) < 30


def test_simpson_evaluates_every_fold_at_floats():
    # a fold is evaluated point by point at Python floats, each point once,
    # to the integral of the plain sum of the translates' values
    f = bf.scale_density(bf.uniform_log_density(10), 3)
    calls = []
    v1, _ = oracle.integrate(bf.FoldedDensity(_recording(bf.fold_mod1(f).fn, calls)), 0.0, 1.0)
    v2, _ = oracle.integrate(translate_sum(f), 0.0, 1.0)
    assert all(type(x) is float for x in calls) and len(set(calls)) == len(calls)
    assert v1 == pytest.approx(v2, abs=1e-12) and v1 == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# quadrature oracle for the fold distance
# ---------------------------------------------------------------------------


def test_delta_numeric_uniform_is_zero():
    r = bf.delta_numeric(bf.uniform_density(0, 1), 1)
    assert r.method == "quadrature_L1"
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_delta_numeric_reference_values():
    f = bf.uniform_log_density(10)
    r1 = bf.delta_numeric(f, 1)
    assert r1.value == pytest.approx(0.2688434, abs=1e-7)
    assert r1.error_estimate < 1e-9
    r8 = bf.delta_numeric(f, 8)
    assert r8.value == pytest.approx(0.0359366, abs=1e-7)


def test_delta_numeric_rejects_bad_n():
    # any finite real n > 0 is a scale; a bool, 0, a negative or a
    # non-finite n is not
    f = bf.uniform_density(0, 1)
    for n in (0, -2.5, math.nan, math.inf, True, "3"):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            bf.delta_numeric(f, n)


def test_delta_numeric_triangular_fold_is_uniform():
    # the symmetric unit triangle on [0, 2] folds to exactly flat
    r = bf.delta_numeric(bf.triangular_density(0, 1, 2), 1)
    assert r.value == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", (59, 500, 1000))
def test_delta_numeric_triangular_fold_is_uniform_at_large_n(n):
    # the fold is flat up to roundoff, so the scan meets sign changes of size
    # 1e-16 that bisection must see with the same values
    r = bf.delta_numeric(bf.triangular_density(0, 1, 2), n)
    assert r.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", (1, 2, 3, 10, 59, 100, 500, 1000))
def test_delta_numeric_flat_fold_has_one_piece(n):
    # roundoff-size sign flips of an exactly flat fold are not crossings
    r = bf.delta_numeric(bf.triangular_density(0, 1, 2), n)
    assert int(re.search(r"(\d+) sign-resolved pieces", r.detail).group(1)) == 1
    assert r.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("b", (2.0, 10.0))
def test_delta_numeric_at_one_million(b):
    r = bf.delta_numeric(bf.uniform_log_density(b), 10**6)
    assert r.value == pytest.approx(bf.exact_delta_uniform(b, 10**6).value, abs=1e-8)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("b", (1e160, 1e200, 1e250, 1e300))
def test_delta_numeric_huge_base(b, n):
    # the exp fold's amp / expm1(rate) underflows here; a fold that drops
    # it reads 0 everywhere and the oracle reports 0.5
    r = bf.delta_numeric(bf.uniform_log_density(b), n)
    assert r.value == pytest.approx(bf.exact_delta_uniform(b, n).value, abs=1e-8)


@pytest.mark.parametrize("lo, hi", ((0.0, 1e-13), (3.0, 3.0 + 1e-12)))
def test_delta_numeric_narrow_support_at_an_integer(lo, hi):
    # both ends lie within the integer-snapping slack of one integer; the
    # narrow segment keeps its fold kink, so the tall piece is integrated
    r = bf.delta_numeric(bf.uniform_density(lo, hi), 1)
    assert r.value == pytest.approx(1.0, abs=1e-6)


def test_mass_check_catches_missed_mass(monkeypatch):
    # without the kink at 1e-13 the scan never samples the tall piece and
    # |f_1 - 1| reads 1 everywhere, half the truth; the signed piece values
    # then sum to -1 instead of 0
    def kinkless(f, fold=oracle.fold_mod1):
        return bf.FoldedDensity(fold(f).fn)

    monkeypatch.setattr(oracle, "fold_mod1", kinkless)
    with pytest.raises(bf.QuadratureError, match="mass") as exc_info:
        bf.delta_numeric(bf.uniform_density(0.0, 1e-13), 1)
    assert exc_info.value.partial_value == pytest.approx(0.5, abs=1e-9)


def test_mass_check_when_a_crossing_lands_on_a_kink():
    # fold kinks at 0.53880 and 0.53885: the last scan sample before the
    # second rounds onto it and meets the jump there, which bisection puts
    # on the kink itself; the empty piece must not shift the later pieces'
    # signs (they once summed to a mass error of 0.051)
    f = bf.normalized(
        (
            bf.linear_segment(0.0, 0.5388541151295063, 0.24979844771865112, 0.294074953052855),
            bf.linear_segment(0.5388541151295063, 3.5388002169779202, -0.010283231783065658, 1.2670462528259088),
            bf.const_segment(3.5388002169779202, 3.7540288412803102, 1.14839149988644),
        )
    )
    r = bf.delta_numeric(f, 1)
    assert "4 sign-resolved pieces" in r.detail
    residual, _, _ = averaging_residual(translate_sum(f), 0.0, 1.0, QuadratureConfig(breakpoints=fold_kinks(f)))
    assert r.value == pytest.approx(0.5 * residual, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=1000),
)
def test_mass_check_never_fires_on_random_density(seed, n):
    # QuadratureError would be raised if the signed integral of f_n - 1 were
    # off by more than max(10 * error estimate, 1e-9)
    r = bf.delta_numeric(random_density(np.random.default_rng(seed)), n)
    assert 0.0 <= r.value <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from((0.0, 3.0)),
    log_w=st.floats(min_value=-300.0, max_value=-9.0),
)
def test_narrow_support_is_far_from_uniform(k, log_w):
    # X uniform on [k, k + w] folds to a spike of width w: the distance is
    # 1 - w, every certified bound must reach it, and the oracle finds it or
    # raises a typed error
    try:
        f = bf.uniform_density(k, k + 10.0**log_w)
    except bf.DensityError:
        return  # k + w rounds to k
    for bound in (bf.bound_step_density, bf.bound_tv_quarter, bf.bound_convex_eighth):
        try:
            report = bound(f)
        except (bf.DensityError, bf.VacuousBoundError):
            continue  # refused
        assert report.value >= 1.0 - 1e-6, report
    assert bf.bound_tv_scaled(f, 1).value >= 1.0 - 1e-6
    try:
        value = bf.delta_numeric(f, 1).value
    except (bf.QuadratureError, bf.BisectionError):
        return
    assert value == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(
    log_b=st.one_of(
        st.tuples(st.just("huge"), st.floats(min_value=0.0, max_value=307.0)),
        st.tuples(st.just("near 1"), st.floats(min_value=-12.0, max_value=0.0)),
    ),
    n=st.integers(min_value=1, max_value=10**6),
)
def test_oracle_on_degenerate_bases(log_b, n):
    # steep folds of huge bases and near-flat folds of bases near 1, where a
    # regula falsi point is weakest: the oracle matches the closed form or
    # raises a typed error
    kind, e = log_b
    b = 10.0**e if kind == "huge" else 1.0 + 10.0**e
    try:
        want = bf.exact_delta_uniform(b, n).value
        got = bf.delta_numeric(bf.uniform_log_density(b), n).value
    except (bf.DensityError, bf.VacuousBoundError, bf.QuadratureError, bf.BisectionError):
        return
    assert got == pytest.approx(want, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=8),
)
def test_oracle_never_raises_and_certified_bounds_hold(seed, n):
    # cross-layer: the oracle takes every valid density and n, and every
    # bound, each certified, sits above its value
    f = random_density(np.random.default_rng(seed))
    truth = bf.delta_numeric(f, n)
    scaled = bf.scale_density(f, n)
    reports = [bf.bound_step_density(scaled), bf.bound_tv_quarter(scaled), bf.bound_tv_scaled(f, n)]
    try:
        reports.append(bf.bound_convex_eighth(scaled))
    except bf.DensityError:
        pass  # refused: not one affine or exponential piece over the interval
    for report in reports:
        assert report.value >= truth.value - 1e-8, report


def test_delta_numeric_piecewise_with_kinks():
    f = bf.PiecewiseDensity(
        (bf.const_segment(0.0, 0.5, 0.4), bf.const_segment(0.5, 1.0, 1.6))
    )
    # fold is f itself: delta = 0.5*(0.6*0.5 + 0.6*0.5)
    r = bf.delta_numeric(f, 1)
    assert r.value == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# crossing-point oracle
# ---------------------------------------------------------------------------


def test_crossing_uniform_reports_zero():
    r = bf.delta_crossing_unimodal(bf.fold_mod1(bf.uniform_density(0, 1)))
    assert r.value == 0.0
    assert "uniform" in r.detail


def test_crossing_uniform_log_reference():
    folded = bf.fold_mod1(bf.uniform_log_density(10))
    r = bf.delta_crossing_unimodal(folded)
    assert r.value == pytest.approx(0.2688434, abs=1e-7)
    # the crossing sits at log10(9/ln 10)
    t0 = float(r.detail.split(",")[0].removeprefix("t0="))
    assert t0 == pytest.approx(math.log10(9.0 / LN10), abs=1e-12)


def test_crossing_scaled_by_two_reference():
    folded = bf.fold_mod1(bf.scale_density(bf.uniform_log_density(10), 2))
    r = bf.delta_crossing_unimodal(folded)
    assert r.value == pytest.approx(0.1413379, abs=1e-7)


def test_crossing_rejects_nonuniform_without_crossing():
    hump = bf.FoldedDensity(
        fn=lambda t: 1.0 + 0.3 * np.sin(math.pi * np.asarray(t, dtype=float))
    )
    with pytest.raises(ValueError):
        bf.delta_crossing_unimodal(hump)


def test_crossing_agrees_with_l1_oracle():
    for n in (1, 3, 5):
        f = bf.uniform_log_density(10)
        via_l1 = bf.delta_numeric(f, n).value
        via_crossing = bf.delta_crossing_unimodal(
            bf.fold_mod1(bf.scale_density(f, n))
        ).value
        assert via_l1 == pytest.approx(via_crossing, abs=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_uniform_near_zero():
    r = bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_density(0, 1)), 3, 200_000, 100, seed=11)
    assert r.method == "monte_carlo"
    assert r.value <= 3.0 * r.error_estimate


def test_mc_uniform_log_near_reference():
    r = bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_log_density(10)), 1, 1_000_000, 200, seed=3)
    assert abs(r.value - 0.2688434) <= 3.0 * r.error_estimate
    assert "seed=3" in r.detail


def test_mc_high_power_near_reference():
    # n = 100 drives the fold almost flat; the histogram estimate is mostly
    # noise at this sample size but must sit inside its own 3 sigma window
    r = bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_log_density(10)), 100, 1_000_000, 100, seed=17)
    assert abs(r.value - 0.0028782) <= 3.0 * r.error_estimate


def test_mc_precondition_and_errors():
    with pytest.raises(ValueError):
        bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_density(0, 1)), 1, 100, 100, seed=0)
    with pytest.raises(ValueError):
        bf.delta_monte_carlo(lambda rng, size: np.full(size, math.nan), 1, 10_000, 10, seed=0)


def test_mc_rejects_bad_n():
    # the histogram takes the same scales as the quadrature: a finite real n > 0
    for n in (0, -3, math.nan, math.inf, True):
        with pytest.raises(bf.DensityError, match="scale factor must be positive"):
            bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_density(0, 1)), n, 10_000, 10, seed=0)


def test_mc_is_reproducible():
    a = bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_log_density(10)), 1, 100_000, 50, seed=42)
    b = bf.delta_monte_carlo(bf.inverse_cdf_sampler(bf.uniform_log_density(10)), 1, 100_000, 50, seed=42)
    assert a.value == b.value


def test_mc_error_shrinks_like_root_samples():
    # fixed seeds; mean absolute error across seeds should roughly halve
    # per quadrupling of the sample count
    f = bf.uniform_log_density(10)
    truth = bf.delta_numeric(f, 1).value
    sampler = bf.inverse_cdf_sampler(bf.uniform_log_density(10))

    def mean_err(samples):
        errs = [
            abs(bf.delta_monte_carlo(sampler, 1, samples, 50, seed=s).value - truth)
            for s in range(8)
        ]
        return sum(errs) / len(errs)

    e1 = mean_err(10_000)
    e4 = mean_err(40_000)
    e16 = mean_err(160_000)
    assert e4 < 0.85 * e1
    assert e16 < 0.6 * e1


def _const_linear_exp():
    return bf.normalized(
        (
            bf.const_segment(0.0, 1.0, 0.25),
            bf.linear_segment(1.0, 2.0, 0.5, -0.25),  # 0.25 -> 0.75 over [1, 2]
            bf.exp_segment(2.0, 3.0, 0.25 / math.exp(2.0), 1.0),
        )
    )


@pytest.mark.parametrize(
    "density", [lambda: bf.uniform_log_density(10), _const_linear_exp], ids=["uniform-log-b10", "const-linear-exp"]
)
def test_mc_peak_memory_is_a_few_sample_arrays(density):
    # one multinomial count per segment and one block of draws each: no
    # per-draw segment index, masks or copies, and the fold has a single
    # temporary.  A per-draw index with masks peaked at 6.2 and 4.4 arrays
    sampler = inverse_cdf_sampler(density())
    bf.delta_monte_carlo(sampler, 1, 10_000, 100, seed=1)  # numpy loaded outside the trace
    tracemalloc.start()
    try:
        bf.delta_monte_carlo(sampler, 1, 10**6, 100, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * 10**6


def test_inverse_cdf_sampler_mixes_its_segments():
    # the segments' blocks are joined in order, then shuffled: a prefix of the
    # draws holds each segment at its mass, as an i.i.d. sample does.  The
    # first tenth of 2,000,000 draws puts one sigma of a share at 1.1e-3
    f = _const_linear_exp()
    draws = inverse_cdf_sampler(f)(np.random.default_rng(123), 2_000_000)[:200_000]
    counts, _ = np.histogram(draws, bins=[0.0, 1.0, 2.0, 3.0])
    for count, mass in zip(counts, f.segment_masses):
        assert count / len(draws) == pytest.approx(mass, abs=4e-3)


def test_inverse_cdf_sampler_matches_masses():
    rng = np.random.default_rng(123)
    f = _const_linear_exp()
    sampler = inverse_cdf_sampler(f)
    draws = sampler(rng, 200_000)
    edges = np.linspace(0.0, 3.0, 13)
    hist, _ = np.histogram(draws, bins=edges)
    for lo, hi, count in zip(edges[:-1], edges[1:], hist):
        want = sum(seg.mass(lo, hi) for seg in f.segments)
        got = count / len(draws)
        assert got == pytest.approx(want, abs=4e-3)


# ---------------------------------------------------------------------------
# averaging inequality harness
# ---------------------------------------------------------------------------


def test_averaging_two_valued_equality_witness():
    a, b, c, d = 0.0, 1.0, 0.5, 2.5
    mid = 0.5

    def two_valued(x):
        return np.where(np.asarray(x, dtype=float) < mid, c, d)

    cfg = QuadratureConfig(breakpoints=(mid,))
    residual, y, err = averaging_residual(two_valued, a, b, cfg)
    assert y == pytest.approx(0.5 * (c + d), abs=1e-13)
    assert residual == pytest.approx((b - a) * (d - c) / 2.0, abs=1e-12)
    assert bf.check_averaging_inequality(two_valued, a, b, c, d, False, cfg)


def test_averaging_roundoff_flips_are_not_crossings(monkeypatch):
    # sin^2 + cos^2 is 1 up to roundoff and flips sign about its mean from
    # sample to sample; the same floor as in delta_numeric applies
    calls = []
    monkeypatch.setattr(oracle, "bisect_root", lambda *args: calls.append(args))

    def one(x):
        x = 3.0 * np.asarray(x, dtype=float)
        return np.sin(x) ** 2 + np.cos(x) ** 2

    residual, y, err = averaging_residual(one, 0.0, 1.0)
    assert y == pytest.approx(1.0, abs=1e-15)
    assert residual <= 1e-14
    assert calls == []


def test_averaging_straight_line_equality_witness():
    a, b, c, d = -1.0, 3.0, 0.25, 1.75

    def line(x):
        return c + (d - c) * (np.asarray(x, dtype=float) - a) / (b - a)

    residual, y, err = averaging_residual(line, a, b)
    assert residual == pytest.approx((b - a) * (d - c) / 4.0, abs=1e-12)
    assert bf.check_averaging_inequality(line, a, b, c, d, True)


def test_averaging_constant_is_zero():
    residual, y, _ = averaging_residual(lambda x: np.full(np.shape(x), 1.3), 0.0, 2.0)
    assert residual == pytest.approx(0.0, abs=1e-13)


def test_averaging_quarter_constant_fails_for_power_law():
    # the quarter constant is not universal over monotone convex functions:
    # x**2 on [0, 1] has mean absolute deviation 4/(9*sqrt(3)) > 1/4, and the
    # checker reports that honestly
    def square(x):
        return np.asarray(x, dtype=float) ** 2

    residual, y, _ = averaging_residual(square, 0.0, 1.0)
    assert y == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert residual == pytest.approx(4.0 / (9.0 * math.sqrt(3.0)), abs=1e-12)
    assert not bf.check_averaging_inequality(square, 0.0, 1.0, 0.0, 1.0, True)
    # the general half constant still covers it
    assert bf.check_averaging_inequality(square, 0.0, 1.0, 0.0, 1.0, False)


def test_averaging_unequal_measures_stay_below_half():
    # two values on unequal shares never reach the general constant
    def lopsided(x):
        return np.where(np.asarray(x, dtype=float) < 0.25, 0.0, 1.0)

    cfg = QuadratureConfig(breakpoints=(0.25,))
    residual, _, _ = averaging_residual(lopsided, 0.0, 1.0, cfg)
    assert residual == pytest.approx(2.0 * 0.25 * 0.75, abs=1e-12)
    assert residual < 0.5
