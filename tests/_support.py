"""Shared helpers for the test suite: seeded random densities and functions."""

import math

import numpy as np

from benfold import PiecewiseDensity, Segment, const_segment, exp_segment, linear_segment, normalized
from benfold.density import _snap_int, _snapped


def random_density(rng, max_cells=5, allow_gaps=True):
    """Random piecewise density of const, linear and exp segments, mass normalized.

    Mixes constant/linear/exponential segments over a support spanning one
    to max_cells integer cells, optionally with interior zero gaps.
    """
    n_cells = int(rng.integers(1, max_cells + 1))
    offset = float(rng.integers(0, 3))
    jitter_lo = float(rng.uniform(0.0, 0.4)) if rng.random() < 0.7 else 0.0
    jitter_hi = float(rng.uniform(0.0, 0.4)) if rng.random() < 0.7 else 0.0
    s_lo = offset + jitter_lo
    s_hi = offset + n_cells - jitter_hi
    n_segs = int(rng.integers(1, 5))
    inner = np.sort(rng.uniform(s_lo, s_hi, n_segs - 1))
    edges = np.concatenate([[s_lo], inner, [s_hi]])
    segments = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        lo, hi = float(lo), float(hi)
        if hi - lo < 1e-2:
            continue
        interior = 0 < i < n_segs - 1
        if allow_gaps and interior and rng.random() < 0.15:
            continue
        segments.append(_random_segment(rng, lo, hi))
    if not segments:
        segments.append(const_segment(s_lo, s_hi, 1.0))
    return normalized(segments)


def custom_twin(seg):
    """The same segment as a custom one, evaluated through its function."""
    return Segment(seg.lo, seg.hi, seg, seg.monotone)


def custom_twin_density(f):
    """f rebuilt from custom twins: no closed form anywhere, only callables."""
    return PiecewiseDensity(tuple(custom_twin(seg) for seg in f.segments))


def reference_fold(f, t):
    """The fold of f at one point t, with each translate range found at t.

    The slow reference for fold_mod1's kernels, whose ranges are resolved
    once per fold: a segment owns the translates k with lo <= t + k < hi
    (<= hi on the last segment), clipped to [floor(lo), ceil(hi)) with the
    ends snapped to integers, and each range is summed by Segment.series,
    piece by piece in order.
    """
    last = len(f.segments) - 1
    out = 0.0
    for i, seg in enumerate(f.segments):
        width = seg.hi - seg.lo
        k_lo = _snapped(seg.lo, width, math.floor)
        k_end = max(_snapped(seg.hi, width, math.ceil), k_lo + 1)
        k0 = max(math.ceil(seg.lo - t), k_lo)
        k1 = min(math.floor(seg.hi - t) + 1 if i == last else math.ceil(seg.hi - t), k_end)
        if k1 > k0:
            out += seg.series(k0, k1)([t])[0]
    return out


def fold_at(f, t):
    """The fold of f at one point t of [0, 1), with fold_mod1's rule applied at t.

    The reference for fold_mod1 at and just below its kinks, where
    reference_fold differs: it closes the last segment's upper end, and
    its hi - t rounds to an integer one float below a kink.  Here an end e
    folds to the integer it snaps to and 0, else to floor(e) and
    e - floor(e); a segment owns k_lo + (t < t_lo) <= k < k_hi + (t < t_hi),
    compared exactly, and the ranges' Segment.series are added in segment
    order from 0.0.
    """
    out = 0.0
    for seg in f.segments:
        ends = []
        for e in (seg.lo, seg.hi):
            k = _snap_int(e, seg.hi - seg.lo)
            ends.append((k, 0.0) if k is not None else (math.floor(e), e - math.floor(e)))
        (k_lo, t_lo), (k_hi, t_hi) = ends
        k0, k1 = k_lo + (t < t_lo), k_hi + (t < t_hi)
        if k1 > k0:
            out += seg.series(k0, k1)([t])[0]
    return out


def _random_segment(rng, lo, hi):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return const_segment(lo, hi, float(rng.uniform(0.05, 2.0)))
    if kind == 1:
        y0 = float(rng.uniform(0.0, 2.0))
        y1 = float(rng.uniform(0.0, 2.0))
        slope = (y1 - y0) / (hi - lo)
        return linear_segment(lo, hi, slope, y0 - slope * lo)
    amp = float(rng.uniform(0.05, 1.5))
    rate = float(rng.uniform(-2.0, 2.0))
    if abs(rate) < 1e-3:
        rate = 1.0
    return exp_segment(lo, hi, amp * math.exp(-rate * lo), rate)


def random_monotone_convex(rng, a, b):
    """Random monotone convex function on [a, b] with its exact range.

    Returns (fn, c, d) where fn maps [a, b] into [c, d]; monotone means the
    range endpoints sit at the interval endpoints.  Drawn from the affine and
    (offset) exponential families, where the quarter-constant averaging
    inequality provably holds; convex power-law shapes like x**1.5 exceed
    that constant, so they are exercised separately as counterexamples
    rather than mixed into this harness.
    """
    direction = 1.0 if rng.random() < 0.5 else -1.0
    family = int(rng.integers(0, 3))
    base = float(rng.uniform(-1.0, 2.0))
    amp = float(rng.uniform(0.1, 3.0))
    if family == 0:
        rate = float(rng.uniform(0.2, 3.0)) * direction

        def fn(x):
            return base + amp * np.exp(rate * (np.asarray(x, dtype=float) - a))

    elif family == 1:
        slope = float(rng.uniform(-3.0, 3.0))

        def fn(x):
            return base + slope * np.asarray(x, dtype=float)

    else:

        def fn(x):
            return np.full(np.shape(np.asarray(x, dtype=float)), base)

    fa = float(fn(a))
    fb = float(fn(b))
    return fn, min(fa, fb), max(fa, fb)


def random_bounded(rng, a, b):
    """Random bounded function on [a, b] with a covering range.

    Step functions with exactly known values, random polynomials, or
    trigonometric mixes; smooth ranges are taken from a dense grid (adequate
    for the slack cases the general half-constant inequality is tested on).
    """
    pick = rng.random()
    if pick < 0.4:
        values = rng.uniform(-2.0, 2.0, int(rng.integers(2, 5)))
        cuts = np.sort(rng.uniform(a, b, len(values) - 1))

        def fn(x):
            xs = np.asarray(x, dtype=float)
            idx = np.clip(np.searchsorted(cuts, xs, side="right"), 0, len(values) - 1)
            return values[idx]

        return fn, float(values.min()), float(values.max()), tuple(float(c) for c in cuts)

    if pick < 0.7:
        coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(2, 6)))

        def fn(x):
            xs = np.asarray(x, dtype=float)
            return np.polyval(coeffs, xs - a)

    else:
        coeffs = rng.uniform(-1.0, 1.0, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, 3)
        offset = float(rng.uniform(-1.0, 1.0))
        w = math.pi / (b - a)

        def fn(x):
            xs = np.asarray(x, dtype=float)
            out = np.full(xs.shape, offset)
            for j, (cj, pj) in enumerate(zip(coeffs, phases), start=1):
                out = out + cj * np.sin(j * w * (xs - a) + pj)
            return out

    grid = np.linspace(a, b, 4097)
    ys = fn(grid)
    pad = 1e-9 * (float(ys.max() - ys.min()) + 1.0)
    return fn, float(ys.min()) - pad, float(ys.max()) + pad, ()
