"""Spectrum construction, classification, and the necessary conditions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_suleimanova, random_suleimanova_values
from permrealize import (
    EmptyInputError,
    NecessaryConditionViolationError,
    NonFiniteEntryError,
    PerronViolationError,
    SpectrumKind,
    check_necessary,
    classify,
    make_spectrum,
)
from permrealize.spectrum import CLASSIFY_TOL, Tolerances, require_necessary, running_sum
from permrealize.suleimanova import suleimanova_first_row

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_make_spectrum_sorts_descending():
    sigma = make_spectrum([-3.0, 10.0, -1.0, -2.0])
    assert sigma.values == (10.0, -1.0, -2.0, -3.0)
    assert sigma.n == 4
    assert not sigma.is_exact


def test_make_spectrum_exact_keeps_fractions():
    sigma = make_spectrum([Fraction(1, 3), Fraction(-1, 2)], exact=True)
    assert sigma.is_exact
    assert sigma.values == (Fraction(1, 3), Fraction(-1, 2))
    assert sigma.trace == Fraction(-1, 6)


def test_make_spectrum_rejects_empty_and_nonfinite():
    for exact in (False, True):
        with pytest.raises(EmptyInputError):
            make_spectrum([], exact=exact)
        with pytest.raises(NonFiniteEntryError):
            make_spectrum([1.0, math.inf], exact=exact)
        with pytest.raises(NonFiniteEntryError):
            make_spectrum([-math.inf], exact=exact)
        with pytest.raises(NonFiniteEntryError):
            make_spectrum([math.nan], exact=exact)
    # An integer beyond the float range is finite, and exact.
    assert make_spectrum([10**400], exact=True).values == (Fraction(10**400),)


def test_trace_and_spectral_radius():
    sigma = make_spectrum([3.0, -4.0, 1.0])
    assert sigma.trace == 0.0
    assert sigma.spectral_radius == 4.0
    assert sigma.scale() == 3.0
    assert make_spectrum([0.25]).scale() == 1.0
    assert type(make_spectrum([0.25]).scale()) is float
    exact = make_spectrum([Fraction(1, 4)], exact=True).scale()
    assert exact == 1 and type(exact) is Fraction


def test_a_float_sum_that_overflows_partway_is_the_exact_sum_rounded():
    # 1e308 + 1e308 is inf in floats, although every value is finite.
    assert make_spectrum([1e308, 1e308, -1e308]).trace == 1e308
    assert make_spectrum([1e308, 1e308, -1e308, -1e308, -1e308]).trace == -1e308
    assert make_spectrum([1e308, 1e308]).trace == math.inf  # the sum itself is past the range
    assert running_sum((1e308, 1e308, -1e308)) == Fraction(1e308)
    assert running_sum((0.1, 0.2)) == 0.1 + 0.2  # a finite float sum is kept
    assert suleimanova_first_row((1e308, 1e308)) == (1e308, 0.0)
    assert suleimanova_first_row((1.5e308, 1e308, -1e308)) == (5e307, -5e307, 1.5e308)


def test_power_sum_known_values():
    sigma = make_spectrum([3.0, -1.0, -2.0])
    s = check_necessary(sigma, K=3).power_sums
    assert s == (sigma.trace, 14.0, 27.0 - 1.0 - 8.0)
    assert s[0] == 0.0
    with pytest.raises(ValueError):
        check_necessary(sigma, K=0)


def test_power_sum_exact():
    sigma = make_spectrum([Fraction(2), Fraction(-1, 2)], exact=True)
    assert check_necessary(sigma, K=3).power_sums[2] == Fraction(8) + Fraction(-1, 8)


def test_check_necessary_accepts_suleimanova():
    report = check_necessary(make_spectrum([10, -1, -2, -3]))
    assert report.power_sum_ok
    assert report.perron_ok
    assert report.spectral_radius == 10.0
    assert report.K == 50
    assert len(report.power_sums) == 50
    assert report.power_sums[0] == 4.0


def test_check_necessary_perron_failure():
    report = check_necessary(make_spectrum([1.0, -2.0]))
    assert not report.perron_ok


def test_check_necessary_power_sum_failure():
    # All-negative spectrum: s_1 < 0.
    report = check_necessary(make_spectrum([-1.0, -2.0]))
    assert not report.power_sum_ok


@pytest.mark.parametrize("exact", [False, True])
def test_check_necessary_fails_whenever_the_gate_does(exact):
    # Spectra within a few bands of the gate's boundary: the head misses or
    # meets the radius, and the sum lands just below or above zero.
    rng = np.random.default_rng(20261018)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(2, 7))
        tail = rng.uniform(-1.0, 1.0, n - 1)
        r = float(np.abs(tail).max())
        head = r + float(rng.choice([-2e-12, -5e-13, 0.0, 5e-13]))
        values = [head, *tail.tolist()]
        values[-1] -= sum(values) + float(rng.choice([-2e-12, -5e-13, 0.0, 5e-13, 2e-12]))
        sigma = make_spectrum([Fraction(v) for v in values] if exact else values, exact=exact)
        report = check_necessary(sigma, K=1)
        try:
            require_necessary(sigma)
            gate = "pass"
        except PerronViolationError:
            gate = "perron"
        except NecessaryConditionViolationError:
            gate = "sum"
        assert report.perron_ok is (gate != "perron"), sigma.values
        assert (report.perron_ok and report.power_sum_ok) is (gate == "pass"), sigma.values
        outcomes.add(gate)
    assert outcomes == {"pass", "perron", "sum"}


def test_check_necessary_odd_power_failure():
    # s_1 = 0.4 >= 0 but s_3 = 1 - 0.6^3 * 4 < 0 ... pick one that trips
    # at k = 3: {1, -0.8, -0.8, -0.8} has s_1 = -1.4 < 0; use
    # {2, -0.9, -0.9} with s_1 = 0.2, s_3 = 8 - 1.458 > 0 -- instead force
    # a tie-broken radius: {1, -1, -1} has s_1 = -1 < 0.  The reliable odd
    # failure is a large negative bulk with tiny positive head.
    report = check_necessary(make_spectrum([0.5, -0.3, -0.2]), K=5)
    assert report.power_sum_ok  # s_k = 0.5^k - 0.3^k - 0.2^k >= 0 for all k
    report = check_necessary(make_spectrum([1.0, 1.0, -1.5]), K=5)
    assert not report.power_sum_ok  # s_3 = 2 - 3.375 < 0


def test_classify_each_kind():
    assert classify(make_spectrum([10, -1, -2, -3])).kind is SpectrumKind.SULEIMANOVA
    assert (
        classify(make_spectrum([6, -1, -2, -3])).kind
        is SpectrumKind.ZERO_TRACE_SULEIMANOVA
    )
    assert classify(make_spectrum([1, 0.5, 0.5, -0.9])).kind is SpectrumKind.SMALL_ORDER
    assert (
        classify(make_spectrum([3, 2, 1, 1, 0])).kind is SpectrumKind.ALL_NONNEGATIVE
    )
    assert (
        classify(make_spectrum([5, 3, 1, -2, -3, -4])).kind
        is SpectrumKind.UNCLASSIFIED
    )


def test_classify_counts_positives():
    cls = classify(make_spectrum([2, 1, 0, -1]))
    assert cls.positives == 2
    assert cls.trace == 2.0


def test_exact_spectrum_beyond_float_range():
    big = Fraction(10) ** 400
    sigma = make_spectrum([big, -1, -1], exact=True)
    assert sigma.scale() == big and type(sigma.scale()) is Fraction
    cls = classify(sigma)
    assert cls.kind is SpectrumKind.SULEIMANOVA
    assert cls.positives == 1
    assert classify(make_spectrum([big, -big], exact=True)).kind is (
        SpectrumKind.ZERO_TRACE_SULEIMANOVA
    )


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_spectrum_is_sorted_and_radius_matches(values):
    sigma = make_spectrum(values)
    assert list(sigma.values) == sorted(values, reverse=True)
    assert sigma.spectral_radius == max(abs(v) for v in values)
    assert sigma.trace == pytest.approx(sum(values), abs=1e-6)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_suleimanova_samples_classify_correctly(n, seed):
    rng = np.random.default_rng(seed)
    sigma = random_suleimanova(rng, n, scale=1e3)
    cls = classify(sigma)
    assert cls.kind in (
        SpectrumKind.SULEIMANOVA,
        SpectrumKind.ZERO_TRACE_SULEIMANOVA,
    )
    assert cls.positives == 1
    report = check_necessary(sigma, K=10)
    assert report.power_sum_ok and report.perron_ok


@pytest.mark.parametrize("mag", [0.0, 0.25, 1.0, 3.7, 1e12, 1e300, math.inf])
def test_classify_tol_band_is_the_old_scaled_band(mag):
    # The classification band was tol * max(1, magnitude); the profile's
    # max(tol, tol * magnitude) gives the same bits.  A Fraction magnitude
    # gets the same rule in exact arithmetic.
    band = CLASSIFY_TOL.band(mag)
    assert band == 1e-12 * max(1.0, mag)
    if math.isfinite(mag):
        exact = CLASSIFY_TOL.band(Fraction(mag))
        assert exact == Fraction(1e-12) * max(1, Fraction(mag))
        assert type(exact) is Fraction


def test_tolerance_band_stays_exact_beyond_the_float_range():
    huge = Fraction(10) ** 400
    assert CLASSIFY_TOL.band(huge) == Fraction(1e-12) * huge
    assert Tolerances(1e-10, 1e-9).band(huge) == Fraction(1e-9) * huge
    assert Tolerances(1e-10, 0.0).band(huge) == 1e-10
    assert Tolerances.exact().band(huge) == 0.0


def test_one_tolerance_type():
    from permrealize import linalg, verify

    assert linalg.Tolerances is Tolerances is verify.Tolerances


def test_power_sums_past_the_float_range_are_judged_on_the_scaled_values():
    # |l|^k overflows for |l| above about 1.4e6 by k = 50, and inf - inf
    # is nan: each such s_k is judged on sigma / radius instead, in the
    # same band, and the float sums are reported as they came out.
    for values in ([2e7, -1e7, -1e7], [1e200, -1e200], [1e308, -1e308]):
        report = check_necessary(make_spectrum(values))
        assert report.power_sum_ok and report.perron_ok
        assert not all(map(math.isfinite, report.power_sums))
    # s_3 < 0 at any scale; s_1 and s_2 are not.
    for scale in (1.0, 1e200):
        sigma = make_spectrum([v * scale for v in (3.0, -3.0, 1.0, 1.0, -1.5)])
        assert check_necessary(sigma, K=2).power_sum_ok
        assert not check_necessary(sigma, K=3).power_sum_ok


def test_suleimanova_spectra_pass_the_power_sums_up_to_1e300():
    # Float and exact mode agree: an exact sum never overflows.
    rng = np.random.default_rng(20261020)
    for i in range(200):
        values = random_suleimanova_values(rng, int(rng.integers(2, 10)),
                                           10.0 ** rng.uniform(0, 300))
        assert check_necessary(make_spectrum(values)).power_sum_ok, values
        if i % 10 == 0:
            exact = make_spectrum(values, exact=True)
            assert check_necessary(exact).power_sum_ok, values
