"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import benfold as bf
from benfold.density import DensityError
from benfold.oracle import QuadratureConfig, averaging_residual

from _support import custom_twin_density, random_bounded, random_density, random_monotone_convex

GOLDEN = Path(__file__).parent / "data" / "table_b10.golden"
TABLE_NS = (1, 2, 3, 4, 5, 8, 10, 20, 50, 100, 1000)


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "benfold", "table", "--base", "10"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(bf.__file__).resolve().parents[1])},
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout == GOLDEN.read_text() and elapsed < 1.0
    _report(
        1,
        ok,
        f"table --base 10 byte-identical to golden (11 rows x 3 cols, 7 decimals), "
        f"runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_oracle_matches_closed_form():
    # the built-in fold sums the same geometric series the exact form
    # integrates, so the custom twin, folded by the plain translate sum,
    # keeps the check independent of it
    f = bf.uniform_log_density(10)
    twin = custom_twin_density(f)
    start = time.perf_counter()
    worst = 0.0
    worst_twin = 0.0
    for n in TABLE_NS:
        want = bf.exact_delta_uniform(10, n).value
        worst = max(worst, abs(bf.delta_numeric(f, n).value - want))
        worst_twin = max(worst_twin, abs(bf.delta_numeric(twin, n).value - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_twin <= 1e-8 and elapsed < 10.0
    _report(
        2,
        ok,
        f"quadrature oracle vs closed form over n in {{1..1000}}: worst "
        f"|diff| {worst:.2e} (closed-form fold), {worst_twin:.2e} (translate-sum "
        f"fold) <= 1e-8, runtime {elapsed:.2f}s < 10s",
    )


def _certifiable_densities(rng):
    """Monotone convex single-segment densities with integer-aligned support,
    so the convexity-boosted bound gets exercised, not just skipped."""
    out = []
    for span in (1, 2, 3, 5):
        out.append(bf.uniform_density(0, span))
        for rate in (-2.0, -0.5, 0.4, 1.5):
            out.append(
                bf.normalized([bf.exp_segment(0.0, float(span), 1.0, rate)])
            )
        slope = float(rng.uniform(0.05, 0.5))
        out.append(
            bf.normalized([bf.linear_segment(0.0, float(span), slope, 0.1)])
        )
    return out


def test_criterion_3_bound_soundness_random_suite():
    rng = np.random.default_rng(20260809)
    cfg = QuadratureConfig(abs_tol=1e-9)
    violations = []
    checked = 0
    convex_checked = 0
    suite = [random_density(rng) for _ in range(120)] + _certifiable_densities(rng)
    for i, f in enumerate(suite):
        for n in (1, 2, 4, 8):
            scaled = bf.scale_density(f, n)
            oracle = bf.delta_numeric(f, n, cfg)
            reports = [
                bf.bound_step_density(scaled),
                bf.bound_tv_quarter(scaled),
                bf.bound_tv_scaled(f, n),
            ]
            try:
                reports.append(bf.bound_convex_eighth(scaled))
                convex_checked += 1
            except DensityError:
                pass  # hypotheses not satisfied for this density
            for report in reports:
                checked += 1
                if oracle.value > report.value + 1e-8:
                    violations.append((i, n, report.method, oracle.value, report.value))
    ok = not violations and checked >= 3 * 4 * 100
    _report(
        3,
        ok,
        f"oracle <= bound + 1e-8 on {len(suite)} seeded densities x n in "
        f"{{1,2,4,8}}: {checked} bound checks ({convex_checked} "
        f"convexity-boosted), {len(violations)} violations",
    )
    assert not violations, violations[:5]


def test_criterion_4_ordering_chain():
    ratio_target = 2.0 * math.sqrt(12.0) / 8.0
    worst_ratio = 0.0
    ok = True
    for b in (2.0, math.e, 10.0, 100.0):
        for n in range(1, 1001):
            exact = bf.exact_delta_uniform(b, n).value
            tv = bf.bound_uniform_log_tv(b, n).value
            fourier = bf.bound_fourier_closed(b, n).value
            if not (exact <= tv < fourier):
                ok = False
            worst_ratio = max(worst_ratio, abs(tv / fourier - ratio_target))
    ok = ok and worst_ratio <= 1e-12
    _report(
        4,
        ok,
        f"exact <= ln(b)/(8n) < ln(b)/(2*sqrt(12)*n) for b in {{2,e,10,100}}, "
        f"n up to 1000; ratio drift {worst_ratio:.2e} <= 1e-12",
    )


def test_criterion_5_averaging_equality_witnesses_and_trials():
    a, b, c, d = 0.0, 1.0, 0.5, 2.5
    mid = 0.5 * (a + b)

    def two_valued(x):
        return np.where(np.asarray(x, dtype=float) < mid, c, d)

    res2, _, _ = averaging_residual(two_valued, a, b, QuadratureConfig(breakpoints=(mid,)))
    witness2 = abs(res2 - (b - a) * (d - c) / 2.0)

    def line(x):
        return c + (d - c) * (np.asarray(x, dtype=float) - a) / (b - a)

    res4, _, _ = averaging_residual(line, a, b)
    witness4 = abs(res4 - (b - a) * (d - c) / 4.0)

    rng = np.random.default_rng(55)
    failures = 0
    for _ in range(1000):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.2, 3.0))
        fn, cc, dd = random_monotone_convex(rng, lo, hi)
        if not bf.check_averaging_inequality(fn, lo, hi, cc, dd, True):
            failures += 1
    for _ in range(1000):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.2, 3.0))
        fn, cc, dd, cuts = random_bounded(rng, lo, hi)
        cfg = QuadratureConfig(breakpoints=cuts)
        if not bf.check_averaging_inequality(fn, lo, hi, cc, dd, False, cfg):
            failures += 1
    ok = witness2 <= 1e-12 and witness4 <= 1e-12 and failures == 0
    _report(
        5,
        ok,
        f"equality witnesses off by {witness2:.1e} and {witness4:.1e} (<= 1e-12); "
        f"2000 randomized inequality trials, {failures} violations",
    )


def test_criterion_6_full_line_variation_scaling():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        f = random_density(rng)
        tv = bf.tv_full_line(f)
        for n in (int(rng.integers(1, 101)), float(rng.uniform(0.3, 50.0))):
            scaled = bf.scale_density(f, n)
            worst = max(worst, abs(bf.tv_full_line(scaled) * n - tv) / tv)
    ok = worst <= 1e-12
    _report(
        6,
        ok,
        f"tv_full_line(scale(f,n))*n == tv_full_line(f): worst relative "
        f"drift {worst:.2e} <= 1e-12 over the random suite",
    )


def test_criterion_7_one_over_n_convergence():
    d100 = 100 * bf.exact_delta_uniform(10, 100).value
    d1000 = 1000 * bf.exact_delta_uniform(10, 1000).value
    gap = abs(d1000 - d100)
    ok = gap < 1e-4
    _report(
        7,
        ok,
        f"n*delta(n) settles: |1000*d(1000) - 100*d(100)| = {gap:.2e} < 1e-4 "
        f"(limit ln(10)/8 = {math.log(10)/8:.7f})",
    )


def test_criterion_8_monte_carlo_sanity():
    result = bf.delta_monte_carlo(
        bf.inverse_cdf_sampler(bf.uniform_log_density(10)), n=1, samples=10**7, bins=1000, seed=2026
    )
    gap = abs(result.value - 0.2688434)
    ok = gap <= 3.0 * result.error_estimate
    _report(
        8,
        ok,
        f"MC (1e7 samples, 1000 bins, seed 2026): estimate {result.value:.7f}, "
        f"|gap| {gap:.2e} within 3*sigma = {3 * result.error_estimate:.2e}",
    )
