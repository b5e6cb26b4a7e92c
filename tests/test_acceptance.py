"""Acceptance suite: nine numbered criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.  Tolerances and sample sizes are
stated inline next to each assertion; fixed seeds make every run identical.

Run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import mn_inverse, mn_matrix, random_suleimanova_values, small_order_grid
from permrealize import (
    Tolerances,
    certify,
    char_poly,
    explore,
    make_spectrum,
    poly_from_roots,
    realize_companion,
    realize_small,
    realize_suleimanova,
    run_bench,
)
from permrealize.explorer import results_to_jsonl

SEED_CRITERION_4 = 20260401
SEED_CRITERION_7 = 20260402
SEED_CRITERION_8 = 20260403


def _report(line: str) -> None:
    # Visible under pytest -s and in failure output; the PASSED/FAILED line
    # itself comes from pytest -v.
    print(line)


# ---------------------------------------------------------------------------
# 1. Integer example: {10, -1, -2, -3}
# ---------------------------------------------------------------------------


def test_criterion_1_integer_example_matrix():
    sigma = make_spectrum([10, -1, -2, -3])
    r = realize_suleimanova(sigma)
    expected = np.array(
        [[1, 2, 3, 4], [2, 1, 3, 4], [3, 2, 1, 4], [4, 2, 3, 1]], dtype=float
    )
    # Integer-exact, zero tolerance.
    assert np.array_equal(r.matrix.data, expected)
    report = certify(r)
    assert report.passed
    assert report.max_residual == 0.0
    _report("criterion 1 PASS: integer matrix exact, certificate clean")


# ---------------------------------------------------------------------------
# 2. Zero-trace integer example: {6, -1, -2, -3}
# ---------------------------------------------------------------------------


def test_criterion_2_zero_trace_example_matrix():
    sigma = make_spectrum([6, -1, -2, -3])
    r = realize_suleimanova(sigma)
    expected = np.array(
        [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0]], dtype=float
    )
    assert np.array_equal(r.matrix.data, expected)
    assert certify(r).passed
    _report("criterion 2 PASS: zero-diagonal integer matrix exact")


# ---------------------------------------------------------------------------
# 3. Bordered-matrix inverse identity for n = 2..64
# ---------------------------------------------------------------------------


def test_criterion_3_bordered_inverse_identity():
    worst = 0.0
    for n in range(2, 65):
        P = np.dot(mn_matrix(n).data, mn_inverse(n).data)
        worst = max(worst, float(np.max(np.abs(P - np.eye(n)))))
    assert worst <= 1e-13, f"worst entrywise deviation {worst:.3e}"
    _report(f"criterion 3 PASS: worst |M_n M_n^-1 - I| = {worst:.3e} <= 1e-13")


# ---------------------------------------------------------------------------
# 4. Property suite: 1,000 random Suleimanova spectra, n in [2, 200]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _criterion_4_sample() -> tuple[tuple[float, ...], ...]:
    """1,000 spectra, entries in [-1e6, 0] plus the forced positive head."""
    rng = np.random.default_rng(SEED_CRITERION_4)
    sample = []
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        sample.append(tuple(random_suleimanova_values(rng, n, scale=1e6)))
    return tuple(sample)


def test_criterion_4_random_suleimanova_suite():
    t0 = time.perf_counter()
    worst_row = 0.0
    worst_eig = 0.0
    for values in _criterion_4_sample():
        sigma = make_spectrum(values)
        r = realize_suleimanova(sigma)
        M = r.matrix.data
        n = M.shape[0]
        # (a) entrywise nonnegative, no tolerance
        assert np.all(M >= 0.0)
        # (b) every row sum equals l1 within 1e-12 * max(1, |l1|)
        l1 = float(sigma.values[0])
        row_band = 1e-12 * max(1.0, abs(l1))
        row_dev = float(np.max(np.abs(M.sum(axis=1) - l1)))
        assert row_dev <= row_band, (n, row_dev, row_band)
        worst_row = max(worst_row, row_dev / max(1.0, abs(l1)))
        # (c) closed-form eigenpair residuals within 1e-9 * max(1, |x|_inf^2)
        x = M[0]
        s = float(x.sum())
        deltas = x[0] - x[1:]
        V = np.tile(x[1:], (n, 1))
        V[np.arange(1, n), np.arange(n - 1)] = x[0] - s
        resid = float(np.max(np.abs(M @ V - V * deltas)))
        eig_band = 1e-9 * max(1.0, float(np.max(np.abs(x))) ** 2)
        assert resid <= eig_band, (n, resid, eig_band)
        worst_eig = max(worst_eig, resid / eig_band)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime target: {elapsed:.2f}s >= 10s"
    _report(
        "criterion 4 PASS: 1000 spectra; worst relative row-sum deviation "
        f"{worst_row:.2e}; worst eigenpair residual at {worst_eig:.2e} of "
        f"its band; {elapsed:.2f}s < 10s"
    )


# ---------------------------------------------------------------------------
# 5. Exhaustive small-order sweep, l1 = 1, step 0.05
# ---------------------------------------------------------------------------


def test_criterion_5_small_order_sweep():
    t0 = time.perf_counter()
    tol = Tolerances(absolute=1e-9, relative=0.0)  # charpoly tolerance 1e-9
    cases = 0
    case_gaps = 0
    worst = 0.0
    for values in small_order_grid():
        cases += 1
        sigma = make_spectrum(values)
        r = realize_small(sigma)  # InternalCaseGapError would raise
        report = certify(r, tol)
        assert report.passed, (sigma.values, report.to_json_obj())
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - t0
    assert case_gaps == 0
    assert cases > 5000, f"sweep enumerated only {cases} cases"
    assert elapsed < 60.0, f"runtime target: {elapsed:.2f}s >= 60s"
    _report(
        f"criterion 5 PASS: {cases} grid cases, 0 case gaps, worst "
        f"certified residual {worst:.2e} (charpoly tol 1e-9), "
        f"{elapsed:.1f}s < 60s"
    )


# ---------------------------------------------------------------------------
# 6. Companion baseline on criterion 4's sample (n <= 12), exact oracle
# ---------------------------------------------------------------------------


def test_criterion_6_companion_baseline():
    checked = 0
    for values in _criterion_4_sample():
        if len(values) > 12:
            continue
        checked += 1
        # Exact-rational arithmetic: Fraction(float) is exact, so both the
        # coefficient signs and the polynomial identity are checked with no
        # rounding at all (equality is stronger than the 1e-9 band).
        sigma = make_spectrum([Fraction(v) for v in values], exact=True)
        cr = realize_companion(sigma)
        assert all(c <= 0 for c in cr.poly[:-1])
        assert char_poly(cr.matrix) == cr.poly
        assert cr.poly == poly_from_roots(sigma)
    assert checked > 0
    sigma = make_spectrum(
        [Fraction(10), Fraction(-1), Fraction(-2), Fraction(-3)], exact=True
    )
    coeffs = realize_companion(sigma).poly
    assert coeffs[:-1] == (
        Fraction(-60),
        Fraction(-104),
        Fraction(-49),
        Fraction(-4),
    )
    _report(
        f"criterion 6 PASS: {checked} sample spectra with n <= 12, "
        "coefficients nonpositive and polynomials exactly equal; "
        "(-60, -104, -49, -4) reproduced exactly"
    )


# ---------------------------------------------------------------------------
# 7. Cross-method polynomial agreement, 500 spectra, n <= 10
# ---------------------------------------------------------------------------


def test_criterion_7_cross_method_charpoly():
    # char_poly takes float entries at their exact values, so the comparison
    # measures how far the two *matrices* actually disagree, not the noise
    # of extracting coefficients in floating point, which already reaches
    # ~3e-8 relative at n = 10 and would swamp a 1e-8 band.
    rng = np.random.default_rng(SEED_CRITERION_7)
    tol = Tolerances(absolute=0.0, relative=1e-8)
    worst_rel = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        sigma = make_spectrum(random_suleimanova_values(rng, n, scale=10.0))
        p_perm = char_poly(realize_suleimanova(sigma).matrix)
        p_comp = char_poly(realize_companion(sigma).matrix)
        diff = max(abs(a - b) for a, b in zip(p_perm, p_comp))
        scale = max(1, *map(abs, p_perm), *map(abs, p_comp))
        assert diff <= tol.band(scale)
        worst_rel = max(worst_rel, float(diff / scale))
    assert worst_rel <= 1e-8
    _report(
        "criterion 7 PASS: 500 spectra, worst relative coefficient "
        f"disagreement {worst_rel:.2e} <= 1e-8"
    )


# ---------------------------------------------------------------------------
# 8. Explorer recovery on Suleimanova targets, same seed same log
# ---------------------------------------------------------------------------


def test_criterion_8_explorer_alpha_recovery():
    rng = np.random.default_rng(SEED_CRITERION_8)
    worst_obj = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        sigma = make_spectrum(random_suleimanova_values(rng, n, scale=5.0))
        first = explore(sigma, strategy="alpha")  # default budget
        again = explore(sigma, strategy="alpha")
        best = min(r.objective for r in first)
        assert best <= 1e-8, (sigma.values, best)
        assert results_to_jsonl(first) == results_to_jsonl(again)
        worst_obj = max(worst_obj, best)
    _report(
        "criterion 8 PASS: 50 spectra, worst alpha-search objective "
        f"{worst_obj:.2e} <= 1e-8; same-seed logs identical"
    )


# ---------------------------------------------------------------------------
# 9. Benchmark growth ratios up to n = 2048
# ---------------------------------------------------------------------------


def test_criterion_9_benchmark_growth():
    report = run_bench((256, 512, 1024, 2048))
    assert [e.n for e in report.entries] == [256, 512, 1024, 2048]
    # The growth is judged on the counted coefficient multiplications, so
    # the verdict reads no clock; the timed ratios stay in the report.
    assert len(report.poly_product_ratios) == 3
    for ratio in report.poly_product_ratios:
        assert 3.0 <= ratio <= 6.0, report.poly_product_ratios
    assert len(report.poly_ratios) == 3 and min(report.poly_ratios) > 0.0
    # The exponential-cost figure sometimes quoted for the polynomial route
    # belongs to naive subset enumeration; the report must say so rather
    # than reproduce it.
    assert "naive enumeration" in report.note
    assert "not reproduced" in report.note
    # Coefficient overflow is the companion route's real failure mode here.
    by_n = {e.n: e for e in report.entries}
    assert by_n[1024].coeff_overflow and by_n[1024].companion_s is None
    assert by_n[2048].coeff_overflow
    assert not by_n[256].coeff_overflow
    counted = ", ".join(f"{r:.2f}" for r in report.poly_product_ratios)
    timed = ", ".join(f"{r:.2f}" for r in report.poly_ratios)
    _report(
        f"criterion 9 PASS: poly doubling ratios of counted products ({counted}) "
        f"all in [3, 6], timed ({timed}); "
        "exponential remark documented as not reproduced; companion "
        "overflow flagged from n = 1024"
    )
