"""Closed-form realizations for orders 1 through 4."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import reference_realize_small, small_order_grid

from permrealize import (
    DimensionOutOfRangeError,
    InternalCaseGapError,
    NecessaryConditionViolationError,
    PerronViolationError,
    RealizationError,
    Tolerances,
    alpha_tuple,
    certify,
    make_spectrum,
    quarter_sums,
    realize_small,
)
from permrealize.small_order import (
    CASE_N1,
    CASE_N2,
    CASE_N3_DIRECT_SUM,
    CASE_N3_SULEIMANOVA,
    CASE_N4_GROUP,
    CASE_N4_PAIRED,
    CASE_N4_SULEIMANOVA,
    GROUP_TUPLE,
)
from permrealize.spectrum import value_band

unit_interval = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# n = 1, 2
# ---------------------------------------------------------------------------


def test_realize_1():
    r = realize_small(make_spectrum([3.5]))
    assert r.case == CASE_N1
    assert_array_equal(r.matrix.data, np.array([[3.5]]))
    assert certify(r).passed
    with pytest.raises(PerronViolationError):
        realize_small(make_spectrum([-0.5]))


def test_realize_2_known_values():
    r = realize_small(make_spectrum([3.0, 1.0]))
    assert r.case == CASE_N2
    assert_array_equal(r.matrix.data, np.array([[2.0, 1.0], [1.0, 2.0]]))
    r = realize_small(make_spectrum([1.0, -1.0]))
    assert_array_equal(r.matrix.data, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert certify(r).passed


def test_realize_2_exact():
    r = realize_small(make_spectrum([Fraction(1), Fraction(-1, 3)], exact=True))
    assert r.matrix.is_exact
    assert r.matrix.data[0, 0] == Fraction(1, 3)
    assert r.matrix.data[0, 1] == Fraction(2, 3)
    assert certify(r, Tolerances.exact()).passed


def test_realize_2_perron_guard():
    with pytest.raises(PerronViolationError):
        realize_small(make_spectrum([1.0, -2.0]))


# ---------------------------------------------------------------------------
# n = 3
# ---------------------------------------------------------------------------


def test_realize_3_direct_sum_branch():
    r = realize_small(make_spectrum([5.0, 2.0, -3.0]))
    assert r.case == CASE_N3_DIRECT_SUM
    assert r.matrix.layout == ((0, alpha_tuple(2)), (2, alpha_tuple(1)))
    assert_array_equal(
        r.matrix.data,
        np.array([[1.0, 4.0, 0.0], [4.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
    )
    assert certify(r).passed


def test_realize_3_suleimanova_branch():
    r = realize_small(make_spectrum([5.0, -2.0, -3.0]))
    assert r.case == CASE_N3_SULEIMANOVA
    assert certify(r).passed


def test_realize_3_rejects_bad_spectra():
    with pytest.raises(NecessaryConditionViolationError):
        realize_small(make_spectrum([1.0, -1.0, -1.0]))  # negative sum
    with pytest.raises(PerronViolationError):
        realize_small(make_spectrum([2.0, 1.5, -2.5]))  # radius not attained


# ---------------------------------------------------------------------------
# n = 4
# ---------------------------------------------------------------------------


def test_quarter_sums_known():
    a, b, c, d = quarter_sums(1.0, 0.9, 0.9, -1.0)
    assert (a, b, c, d) == pytest.approx((0.45, 0.5, 0.5, -0.45))
    a, b, c, d = quarter_sums(
        Fraction(1), Fraction(9, 10), Fraction(9, 10), Fraction(-1)
    )
    assert (a, b, c, d) == (
        Fraction(9, 20),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(-9, 20),
    )


def test_quarter_sums_invert():
    a, b, c, d = quarter_sums(8.0, 2.0, 2.0, 0.0)
    assert (a, b, c, d) == (3.0, 2.0, 2.0, 1.0)
    assert a + b + c + d == 8.0
    assert a + b - c - d == 2.0
    assert a - b + c - d == 2.0
    assert a - b - c + d == 0.0


def test_realize_4_suleimanova_case():
    r = realize_small(make_spectrum([10.0, -1.0, -2.0, -3.0]))
    assert r.case == CASE_N4_SULEIMANOVA
    assert certify(r).passed


def test_realize_4_group_case():
    r = realize_small(make_spectrum([8.0, 2.0, 2.0, 0.0]))
    assert r.case == CASE_N4_GROUP
    assert r.matrix.layout == ((0, GROUP_TUPLE),)
    assert GROUP_TUPLE.encoding == "0,1,2,3|1,0,3,2|2,3,0,1|3,2,1,0"
    assert_array_equal(
        r.matrix.data,
        np.array(
            [
                [3.0, 2.0, 2.0, 1.0],
                [2.0, 3.0, 1.0, 2.0],
                [2.0, 1.0, 3.0, 2.0],
                [1.0, 2.0, 2.0, 3.0],
            ]
        ),
    )
    assert certify(r).passed


def test_realize_4_paired_case_exact():
    sigma = make_spectrum(
        [Fraction(1), Fraction(9, 10), Fraction(9, 10), Fraction(-1)],
        exact=True,
    )
    r = realize_small(sigma)
    assert r.case == CASE_N4_PAIRED
    assert r.matrix.layout == ((0, alpha_tuple(2)), (2, alpha_tuple(2)))
    expected = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, Fraction(9, 10), 0],
        [0, 0, 0, Fraction(9, 10)],
    ]
    assert all(
        r.matrix.data[i, j] == expected[i][j] for i in range(4) for j in range(4)
    )
    assert certify(r, Tolerances.exact()).passed


def test_realize_4_boundary_d_zero():
    # l1 + l4 = l2 + l3 puts d exactly on the group/paired boundary; the
    # group branch must take it and still certify.
    r = realize_small(make_spectrum([2.0, 1.0, 1.0, 0.0]))
    assert r.case == CASE_N4_GROUP
    assert certify(r).passed


def test_realize_4_equal_spectrum_is_identity_scale():
    r = realize_small(make_spectrum([1.0, 1.0, 1.0, 1.0]))
    assert r.case == CASE_N4_GROUP
    assert_array_equal(r.matrix.data, np.eye(4))
    assert certify(r).passed


def test_realize_4_rejects_bad_spectra():
    with pytest.raises(NecessaryConditionViolationError):
        realize_small(make_spectrum([1.0, -0.8, -0.8, -0.8]))
    with pytest.raises(PerronViolationError):
        realize_small(make_spectrum([1.0, 0.5, 0.0, -1.5]))


def test_realize_small_dispatch_and_guard():
    assert realize_small(make_spectrum([2.0, -1.0])).case == CASE_N2
    with pytest.raises(DimensionOutOfRangeError):
        realize_small(make_spectrum([5.0, -1.0, -1.0, -1.0, -1.0]))


@settings(deadline=None, max_examples=300)
@given(unit_interval, unit_interval, unit_interval)
def test_realize_small_covers_admissible_4_spectra(u, v, w):
    # Any sorted (l2, l3, l4) in [-1, 1]^3 with nonnegative sum is
    # realizable with l1 = 1; no internal case gap may surface.
    l2, l3, l4 = sorted((u, v, w), reverse=True)
    if 1.0 + l2 + l3 + l4 < 0.0:
        l4 = -(1.0 + l2 + l3)  # snap onto the trace-zero boundary
        if l4 > l3:  # snapping broke the ordering; skip this corner
            return
    sigma = make_spectrum([1.0, l2, l3, l4])
    try:
        r = realize_small(sigma)
    except InternalCaseGapError as e:  # pragma: no cover - must not happen
        raise AssertionError(f"case gap for {sigma.values}") from e
    assert np.all(r.matrix.data >= -1e-12)
    report = certify(r)
    assert report.passed, (sigma.values, report.to_json_obj())


# ---------------------------------------------------------------------------
# One gate and one pairing rule against the per-order reference
# ---------------------------------------------------------------------------


def _outcome(realize, sigma):
    try:
        r = realize(sigma)
    except RealizationError as e:
        return type(e)
    return (
        r.method,
        r.case,
        r.matrix.layout,
        repr(r.matrix.data.tolist()),
    )


def _assert_same_as_reference(sigma):
    new = _outcome(realize_small, sigma)
    old = _outcome(reference_realize_small, sigma)
    l1 = sigma.values[0]
    band = value_band(sigma.spectral_radius)
    if sigma.n == 1 and -band <= l1 < -band / 2:
        # The gate judges Perron on |l1| - l1 = -2 l1, where the reference
        # took every l1 >= -band as a zero block.
        assert new is PerronViolationError and not isinstance(old, type), l1
        return
    perron_fails = sigma.spectral_radius - l1 > band
    if perron_fails and not sigma.trace >= -band:
        # Both conditions fail: the gate and the reference check them in
        # opposite orders.
        assert issubclass(new, NecessaryConditionViolationError), sigma.values
        assert issubclass(old, NecessaryConditionViolationError), sigma.values
        return
    assert new == old, sigma.values


def test_realize_small_matches_the_reference_on_the_criterion_5_grid():
    for values in small_order_grid():
        _assert_same_as_reference(make_spectrum(values))


#: Entries on the bands' edges: the +-1e-13 entries sit inside the float
#: band, -6e-13 is an n = 1 entry in [-band, -band/2), and the quarters
#: make exact sums, quarter sums and l2 land on 0.
_EDGE_VALUES = (0.0, 1e-13, -1e-13, -6e-13, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0)


def _random_entry(rng):
    return rng.choice(_EDGE_VALUES) if rng.random() < 0.6 else rng.uniform(-1.0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_realize_small_matches_the_reference_on_random_spectra(n):
    rng = random.Random(20261018 + n)
    for _ in range(3000):
        values = [_random_entry(rng) for _ in range(n)]
        _assert_same_as_reference(make_spectrum(values))
        _assert_same_as_reference(make_spectrum(values, exact=True))
