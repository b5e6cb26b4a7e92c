"""Companion-matrix baseline: construction, nonnegativity, certification."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import eval_poly, random_suleimanova
from permrealize import (
    Tolerances,
    as_realization,
    certify,
    char_poly,
    make_spectrum,
    realize_companion,
)

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def test_companion_integer_example_exact():
    sigma = make_spectrum(
        [Fraction(10), Fraction(-1), Fraction(-2), Fraction(-3)], exact=True
    )
    cr = realize_companion(sigma)
    # (t - 10)(t + 1)(t + 2)(t + 3) = t^4 - 4t^3 - 49t^2 - 104t - 60
    assert cr.poly == (
        Fraction(-60),
        Fraction(-104),
        Fraction(-49),
        Fraction(-4),
        Fraction(1),
    )
    expected = [
        [0, 0, 0, 60],
        [1, 0, 0, 104],
        [0, 1, 0, 49],
        [0, 0, 1, 4],
    ]
    assert all(
        cr.matrix.data[i, j] == expected[i][j] for i in range(4) for j in range(4)
    )


def test_companion_char_poly_round_trip_exact():
    sigma = make_spectrum(
        [Fraction(3), Fraction(-1, 2), Fraction(-2)], exact=True
    )
    cr = realize_companion(sigma)
    assert char_poly(cr.matrix) == cr.poly


def test_companion_detects_sign_obstruction():
    # (t - 3)(t - 2)(t + 1) = t^3 - 4t^2 + t + 6 has positive low-order
    # coefficients, so the companion matrix is not nonnegative.
    sigma = make_spectrum([3.0, 2.0, -1.0])
    cr = realize_companion(sigma)
    assert cr.poly == (6.0, 1.0, -4.0, 1.0)
    assert (cr.matrix.data < 0).any()
    report = certify(as_realization(cr, sigma))
    assert report.nonneg_ok.value == "fail"
    assert not report.passed


def test_companion_certifies_for_suleimanova():
    sigma = make_spectrum([10.0, -1.0, -2.0, -3.0])
    r = as_realization(realize_companion(sigma), sigma)
    assert r.method == "companion"
    report = certify(r)
    assert report.passed
    assert report.structure_ok.value == "not-applicable"


def test_verify_roots():
    # The companion polynomial vanishes at every target: within the default
    # band at max |c_k| in float mode, exactly in exact mode, also beyond the
    # float range.
    sigma = make_spectrum([4.0, -1.0, -3.0])
    cr = realize_companion(sigma)
    band = Tolerances().band(max(abs(c) for c in cr.poly))
    assert all(abs(eval_poly(cr.poly, v)) <= band for v in sigma.values)
    assert abs(eval_poly(cr.poly, -2.9)) > band
    big = make_spectrum([Fraction(10) ** 400, Fraction(-1), Fraction(-1)], exact=True)
    cr = realize_companion(big)
    assert all(eval_poly(cr.poly, v) == 0 for v in big.values)
    assert eval_poly(cr.poly, Fraction(-2)) != 0


def test_companion_single_entry():
    cr = realize_companion(make_spectrum([2.5]))
    assert_array_equal(cr.matrix.data, np.array([[2.5]]))
    assert cr.poly == (-2.5, 1.0)


@settings(deadline=None, max_examples=60)
@given(st.lists(fractions_st, min_size=1, max_size=7))
def test_companion_char_poly_identity_exact(roots):
    # det(tI - C(p)) = p for every monic p: checked in exact arithmetic.
    sigma = make_spectrum(roots, exact=True)
    cr = realize_companion(sigma)
    assert char_poly(cr.matrix) == cr.poly
    for v in sigma.values:
        assert eval_poly(cr.poly, v) == 0


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_companion_nonneg_on_random_suleimanova(n, seed):
    rng = np.random.default_rng(seed)
    sigma = random_suleimanova(rng, n, scale=10.0)
    cr = realize_companion(sigma)
    assert np.all(cr.matrix.data >= 0.0)
    # char_poly takes the float entries at their exact values, so the
    # companion identity holds to the last bit in float mode too.
    assert char_poly(cr.matrix) == cr.poly
