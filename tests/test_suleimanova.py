"""Alpha-pattern permutative realizations of Suleimanova spectra."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import random_suleimanova
from permrealize import (
    DimensionTooSmallError,
    EmptyInputError,
    NonFiniteEntryError,
    NotSuleimanovaError,
    NotZeroTraceError,
    Tolerances,
    alpha_tuple,
    assemble,
    certify,
    closed_eigensystem,
    identity,
    is_permutative,
    make_spectrum,
    mn_inverse,
    mn_matrix,
    realize_suleimanova,
    realize_zero_trace,
    suleimanova_first_row,
)

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


# ---------------------------------------------------------------------------
# the alpha pattern and its closed eigensystem
# ---------------------------------------------------------------------------


def test_alpha_pattern_rows_swap_first_with_i():
    A = assemble(alpha_tuple(4), [1.0, 2.0, 3.0, 4.0])
    assert_array_equal(
        A.data,
        np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [2.0, 1.0, 3.0, 4.0],
                [3.0, 2.0, 1.0, 4.0],
                [4.0, 2.0, 3.0, 1.0],
            ]
        ),
    )
    assert is_permutative(A)


def test_alpha_pattern_matches_explorer_assembly():
    # Bit for bit against the definition: row i is x with positions 0 and
    # i swapped.
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 8, 33):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        x[rng.integers(n)] = -0.0
        got = assemble(alpha_tuple(n), x.tolist()).data
        want = np.tile(x, (n, 1))
        for i in range(1, n):
            want[i, 0], want[i, i] = x[i], x[0]
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_alpha_pattern_rejects_overflowed_first_row():
    # x_2 = (s_1 - 2 * l_2) / 2 overflows to inf here.
    with pytest.raises(NonFiniteEntryError):
        realize_suleimanova(make_spectrum([1.5e308, -1e308]))
    with pytest.raises(NonFiniteEntryError):
        assemble(alpha_tuple(2), [1.0, float("nan")])


def test_alpha_pattern_single_entry():
    A = assemble(alpha_tuple(1), [5.0])
    assert A.data.shape == (1, 1)
    with pytest.raises(EmptyInputError):
        assemble(alpha_tuple(0), [])


def test_closed_eigensystem_values():
    s, deltas, V = closed_eigensystem(np.array([1.0, 2.0, 3.0, 4.0]))
    assert s == 10.0
    assert deltas.tolist() == [-1.0, -2.0, -3.0]
    # v_i (column i - 2 of V) is constant x_i except x_1 - s = -9 at slot i.
    assert V.T.tolist() == [
        [2.0, -9.0, 2.0, 2.0],
        [3.0, 3.0, -9.0, 3.0],
        [4.0, 4.0, 4.0, -9.0],
    ]


@settings(deadline=None, max_examples=60)
@given(st.lists(fractions_st, min_size=2, max_size=8))
def test_closed_eigensystem_is_exact_for_any_first_row(x):
    # The eigenpair identities hold for EVERY first row, not only realizing
    # ones: M v_i = delta_i v_i and M e = s e, checked in exact arithmetic.
    M = assemble(alpha_tuple(len(x)), x).data
    s, deltas, V = closed_eigensystem(M[0])
    n = len(x)
    ones = np.array([Fraction(1)] * n, dtype=object)
    assert all(v == s for v in np.dot(M, ones))
    for delta, v in zip(deltas, V.T):
        lhs = np.dot(M, v)
        rhs = delta * v
        assert all(a == b for a, b in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# the bordered matrix M_n and its closed-form inverse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_mn_inverse_exact(n):
    P = np.dot(mn_matrix(n, exact=True).data, mn_inverse(n, exact=True).data)
    E = identity(n, exact=True).data
    assert P.shape == E.shape
    assert all(a == b for a, b in zip(P.flat, E.flat))


def test_mn_matrix_shape_and_guard():
    M = mn_matrix(4)
    assert M.data.shape == (4, 4)
    assert_array_equal(M.data[0], np.ones(4))
    assert_array_equal(M.data[1:, 0], np.ones(3))
    assert_array_equal(M.data[1:, 1:], -np.eye(3))
    with pytest.raises(DimensionTooSmallError):
        mn_matrix(1)
    with pytest.raises(DimensionTooSmallError):
        mn_inverse(0)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------


def test_first_row_integer_example(sigma_integer_example):
    assert suleimanova_first_row(sigma_integer_example) == (1.0, 2.0, 3.0, 4.0)


def test_realize_integer_example(sigma_integer_example, matrix_integer_example):
    r = realize_suleimanova(sigma_integer_example)
    assert r.method == "suleimanova-permutative"
    assert_array_equal(r.matrix.data, np.array(matrix_integer_example, float))
    report = certify(r)
    assert report.passed
    assert report.max_residual == 0.0


def test_realize_zero_trace_example(
    sigma_zero_trace_example, matrix_zero_trace_example
):
    r = realize_zero_trace(sigma_zero_trace_example)
    assert r.method == "zero-trace-permutative"
    assert_array_equal(r.matrix.data, np.array(matrix_zero_trace_example, float))
    assert all(r.matrix.data[i, i] == 0.0 for i in range(4))
    assert certify(r).passed


def test_realize_exact_mode(sigma_integer_example):
    sigma = make_spectrum([Fraction(10), Fraction(-1), Fraction(-2), Fraction(-3)],
                          exact=True)
    r = realize_suleimanova(sigma)
    assert r.matrix.is_exact
    assert r.matrix.data[0, 0] == Fraction(1)
    report = certify(r, Tolerances.exact())
    assert report.passed
    assert report.max_residual == 0.0


def test_realize_rejects_non_suleimanova():
    with pytest.raises(NotSuleimanovaError):
        realize_suleimanova(make_spectrum([1.0, 1.0, -1.0]))  # two positives
    with pytest.raises(NotSuleimanovaError):
        realize_suleimanova(make_spectrum([1.0, -2.0]))  # negative trace


def test_realize_zero_trace_rejects_nonzero_trace():
    with pytest.raises(NotZeroTraceError):
        realize_zero_trace(make_spectrum([10, -1, -2, -3]))


def test_all_zero_spectrum_is_accepted():
    sigma = make_spectrum([0.0, 0.0, 0.0])
    r = realize_suleimanova(sigma)
    assert_array_equal(r.matrix.data, np.zeros((3, 3)))
    assert certify(r).passed
    r2 = realize_zero_trace(sigma)
    assert_array_equal(r2.matrix.data, np.zeros((3, 3)))


def test_two_entry_zero_trace():
    r = realize_zero_trace(make_spectrum([5.0, -5.0]))
    assert_array_equal(r.matrix.data, np.array([[0.0, 5.0], [5.0, 0.0]]))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_realizations_certify(n, seed):
    rng = np.random.default_rng(seed)
    sigma = random_suleimanova(rng, n, scale=100.0)
    r = realize_suleimanova(sigma)
    assert np.all(r.matrix.data >= 0.0)
    row_sums = r.matrix.data.sum(axis=1)
    assert np.allclose(row_sums, sigma.values[0], rtol=1e-12, atol=1e-12)
    assert certify(r).passed
