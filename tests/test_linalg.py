"""Dense matrices, characteristic polynomials, and serialization."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    alpha_identification_reference,
    block_diag,
    blocks_hold_by_index,
    closed_eigensystem,
    eval_poly,
    float_char_poly_reference,
    exact_alpha_spectrum,
    float_char_poly_stack_reference,
    poly_mul,
)
from permrealize import (
    DenseMatrix,
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyInputError,
    NonFiniteEntryError,
    NotSquareError,
    ParseError,
    PermTuple,
    Tolerances,
    alpha_tuple,
    assemble,
    cyclic_tuple,
    make_spectrum,
    char_poly,
    explore,
    from_rows,
    is_nonnegative,
    is_permutative,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    poly_from_roots,
    realize_companion,
    realize_suleimanova,
)
from permrealize import linalg as linalg_mod
from permrealize.linalg import (
    assemble_blocks,
    char_poly_coeffs,
    format_scalar,
    alpha_blocks_hold,
    _alpha_index,
    matrix_pieces,
    matrix_to_pretty,
)
from permrealize.small_order import GROUP_TUPLE, realize_small
from permrealize.suleimanova import alpha_direct_sum
from permrealize.spectrum import float_or_inf
from permrealize.verify import _alpha_identification_residual, certify

entries = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# ---------------------------------------------------------------------------
# construction and predicates
# ---------------------------------------------------------------------------


def test_from_rows_basic():
    M = from_rows([[1.0, 2.0], [3.0, 4.0]])
    assert M.n_rows == M.n_cols == 2
    assert M.is_square
    assert not M.is_exact
    assert_array_equal(M.data, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert M.max_abs() == 4.0


def test_from_rows_exact():
    M = from_rows([[Fraction(1, 3), Fraction(0)], [Fraction(2), Fraction(1)]],
                  exact=True)
    assert M.is_exact
    assert M.data[0, 0] == Fraction(1, 3)


def test_from_rows_rejects_bad_input():
    with pytest.raises(EmptyInputError):
        from_rows([])
    with pytest.raises(DimensionMismatchError):
        from_rows([[1.0, 2.0], [3.0]])
    for exact in (False, True):
        with pytest.raises(NonFiniteEntryError):
            from_rows([[1.0, math.inf], [0.0, 0.0]], exact=exact)
        with pytest.raises(NonFiniteEntryError):
            from_rows([[-math.inf]], exact=exact)
        with pytest.raises(NonFiniteEntryError):
            from_rows([[math.nan]], exact=exact)
    # An integer beyond the float range is finite, and exact.
    assert from_rows([[10**400]], exact=True).data[0, 0] == Fraction(10**400)


def test_from_rows_allows_rectangular_but_char_poly_refuses():
    wide = from_rows([[1.0, 2.0]])
    assert wide.n_rows == 1 and wide.n_cols == 2
    assert not wide.is_square
    with pytest.raises(NotSquareError):
        char_poly(wide)


def test_matrix_data_is_readonly():
    M = assemble(alpha_tuple(3), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        M.data[0, 0] = 5.0


def test_is_nonnegative():
    assert is_nonnegative(from_rows([[0.0, 1.0], [2.0, 3.0]]))
    assert not is_nonnegative(from_rows([[0.0, -1e-6], [0.0, 0.0]]))
    assert is_nonnegative(from_rows([[0.0, -1e-6], [0.0, 0.0]]), tol=1e-5)


def test_is_permutative():
    assert is_permutative(assemble(alpha_tuple(4), [1.0, 0.0, 0.0, 0.0]))
    assert is_permutative(from_rows([[1.0, 2.0], [2.0, 1.0]]))
    assert is_permutative(
        from_rows([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    )
    assert not is_permutative(from_rows([[1.0, 2.0], [1.0, 1.0]]))


# Per-entry definitions of the vectorized checks, kept as references.


def _max_abs_reference(M):
    return max(abs(float(v)) for v in M.data.flat)


def _is_nonnegative_reference(M, tol=0.0):
    return all(v >= -tol for v in M.data.flat)


def _is_permutative_reference(M):
    ref = np.sort(M.data[0])
    for i in range(1, M.n_rows):
        row = np.sort(M.data[i])
        if not all(abs(a - b) <= 0 for a, b in zip(ref, row)):
            return False
    return True


TOL = 0.25  # dyadic, so entries and differences at exactly +-TOL are exact


def _permutative_pairs(rng, exact):
    """(P, M): P permutative with repeated values, -0.0 and entries at -TOL;
    M is P with one entry moved by exactly +-TOL or +-2 TOL, or P itself."""
    pool = [0.0, -0.0, TOL, -TOL, 0.5, 1.0, 1.25, 3.0]
    for _ in range(300):
        n = rng.randint(1, 6)
        x = [rng.choice(pool) for _ in range(n)]
        rows = [rng.sample(x, n) for _ in range(n)]
        moved = [list(r) for r in rows]
        if rng.random() < 0.8:
            i, j = rng.randrange(n), rng.randrange(n)
            moved[i][j] += rng.choice([TOL, -TOL, 2 * TOL, -2 * TOL])
        if exact:
            rows = [[Fraction(v) for v in r] for r in rows]
            moved = [[Fraction(v) for v in r] for r in moved]
        yield from_rows(rows, exact=exact), from_rows(moved, exact=exact)


@pytest.mark.parametrize("exact", [False, True])
def test_vectorized_checks_match_per_entry_references(exact):
    rng = random.Random(20261018 + exact)
    outcomes = set()
    for P, M in _permutative_pairs(rng, exact):
        for A in (P, M):
            assert A.max_abs() == _max_abs_reference(A)
            for tol in (0.0, TOL):
                got = is_nonnegative(A, tol)
                assert got == _is_nonnegative_reference(A, tol)
                assert type(got) is bool
            got = is_permutative(A)
            assert got == _is_permutative_reference(A)
            outcomes.add(got)
    # Both outcomes occur, so the agreement is not vacuous.
    assert outcomes == {False, True}


def _alpha_edits():
    """An alpha matrix, then copies with one entry edited by one ulp either
    way, by its sign bit, or to -0.0: in row 0, in column 0, on the
    diagonal and off it.  Every copy is off the alpha layout."""
    M0 = assemble(alpha_tuple(5), [0.5, -1.5, 0.0, 3.0, -3.5])
    yield M0
    for i, j in ((0, 3), (0, 2), (3, 0), (2, 0), (1, 1), (2, 2), (1, 3), (4, 2), (3, 4)):
        v = M0.data[i, j]
        for new in (np.nextafter(v, np.inf), np.nextafter(v, -np.inf), -v, -0.0):
            data = M0.data.copy()
            data[i, j] = new
            yield DenseMatrix(data)


@pytest.mark.parametrize("exact", [False, True])
def test_max_abs_and_nonneg_read_the_recorded_first_row_as_the_whole_array(exact):
    mats = list(_alpha_edits())
    if exact:
        M0 = assemble(alpha_tuple(5), [Fraction(v) for v in mats[0].data[0].tolist()])
        mats = [M0] + [from_rows(M.to_lists(), exact=True) for M in mats[1:]]
    for k, M in enumerate(mats):
        # Only the unedited matrix, as assemble built it, reads its first
        # row alone.
        assert (M.layout is not None) == (k == 0)
        assert M.max_abs() == np.abs(M.data).max()
        for tol in (0.0, 1.5, 3.5, 4.0):
            assert is_nonnegative(M, tol) == bool((M.data >= -tol).all())


@pytest.mark.parametrize("n", range(1, 9))
def test_alpha_tuple_is_the_hand_written_alpha_pattern(n):
    rows = []
    for i in range(n):
        row = list(range(n))
        row[0], row[i] = row[i], row[0]
        rows.append(tuple(row))
    written = PermTuple(rows)
    assert alpha_tuple(n) == written
    assert hash(alpha_tuple(n)) == hash(written)
    assert written.is_alpha and alpha_tuple(n).is_alpha
    assert alpha_tuple(n).encoding == written.encoding
    # The circulant pattern is the alpha pattern only up to n = 2.
    assert cyclic_tuple(n).is_alpha is (n <= 2)
    assert (cyclic_tuple(n) == written) is (n <= 2)


def test_assemble_keeps_fractions_exact():
    x = (Fraction(1, 3), Fraction(2, 3), Fraction(0))
    M = assemble(alpha_tuple(3), x)
    assert M.is_exact
    assert M.to_lists() == [
        [Fraction(1, 3), Fraction(2, 3), Fraction(0)],
        [Fraction(2, 3), Fraction(1, 3), Fraction(0)],
        [Fraction(0), Fraction(2, 3), Fraction(1, 3)],
    ]
    assert all(type(v) is Fraction for v in M.data.flat)
    # One float entry makes the whole matrix float64.
    F = assemble(alpha_tuple(3), (Fraction(1, 3), 0.5, Fraction(0)))
    assert F.data.dtype == np.float64
    assert F.data[1, 0] == 0.5 and F.data[0, 0] == 1 / 3
    with pytest.raises(NonFiniteEntryError):
        assemble(alpha_tuple(2), (1.0, math.inf))
    with pytest.raises(DimensionMismatchError):
        assemble(alpha_tuple(3), (Fraction(1), Fraction(2)))


def test_max_abs_beyond_float_range_is_exact():
    M = from_rows([[Fraction(10) ** 400, Fraction(-1)], [0, 1]], exact=True)
    assert M.max_abs() == Fraction(10) ** 400
    assert type(M.max_abs()) is Fraction
    big = from_rows([[-(Fraction(10) ** 400)]], exact=True).max_abs()
    assert big == Fraction(10) ** 400
    # A float matrix keeps its float magnitude.
    assert type(from_rows([[-2.5, 1.0], [1.0, -2.5]]).max_abs()) is float


def test_max_abs_and_nonneg_of_a_dense_matrix_allocate_no_n_by_n_array():
    n = 512
    M = DenseMatrix(np.random.default_rng(512).uniform(-1.0, 1.0, (n, n)))
    expected = [float(np.abs(M.data).max()), False]
    got, peaks = [], []
    tracemalloc.start()
    try:
        for call in (M.max_abs, lambda: is_nonnegative(M, 0.5)):
            tracemalloc.reset_peak()
            got.append(call())
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert got == expected
    # an n x n bool array alone is n * n bytes
    assert max(peaks) < n * n // 8


@pytest.mark.parametrize("data", [[[-0.0]], [[0.0]], [[0.0, -0.0], [-0.0, 0.0]]])
def test_max_abs_of_signed_zeros_is_plus_zero(data):
    M = DenseMatrix(np.array(data))
    assert math.copysign(1.0, M.max_abs()) == 1.0 and M.max_abs() == 0.0
    assert is_nonnegative(M)


def test_max_abs_and_nonneg_of_nan_and_empty_matrices():
    M = DenseMatrix(np.array([[math.nan, 1.0], [2.0, 3.0]]))
    assert math.isnan(M.max_abs()) and not is_nonnegative(M, 1.0)
    empty = DenseMatrix(np.zeros((0, 0)))
    assert is_nonnegative(empty) is True
    with pytest.raises(ValueError):
        empty.max_abs()
    F = from_rows([[Fraction(-3, 2), Fraction(1)], [Fraction(0), Fraction(1, 3)]], exact=True)
    assert type(F.max_abs()) is Fraction and F.max_abs() == Fraction(3, 2)
    assert (is_nonnegative(F), is_nonnegative(F, 1.5), is_nonnegative(F, 1.25)) == (False, True, False)


# ---------------------------------------------------------------------------
# integer_lift: one denominator for float64, Fraction and mixed values
# ---------------------------------------------------------------------------


def _lift_cases(rng):
    yield np.array([0.0, -0.0])
    yield np.array([5e-324, -5e-324, 0.0, 1.0])
    yield np.array([1e308, -1e308, 3.0])
    yield np.array([1e308, 5e-324, -0.0])
    yield 2.0**60 + 256.0 * rng.integers(-1000, 1000, 16)
    yield -(2.0**60) + 128.0 * rng.integers(1, 1000, 16)
    yield rng.integers(-(10**6), 10**6, 64) / 1000
    yield rng.integers(-400, 400, 64) / 4
    yield np.exp(rng.uniform(-700.0, 700.0, 32)) * rng.choice([-1.0, 1.0], 32)
    yield np.array([], dtype=np.float64)
    fractions = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-99, 99, 12), rng.integers(1, 50, 12))]
    yield np.array(fractions, dtype=object)
    yield np.array(fractions[:4] + [0.1, -0.0, 5e-324], dtype=object)


@pytest.mark.parametrize("seed", range(8))
def test_integer_lift_matches_as_integer_ratio_over_the_same_denominator(seed):
    for values in _lift_cases(np.random.default_rng(seed)):
        B, D = linalg_mod.integer_lift(values)
        ratios = [v.as_integer_ratio() for v in values.tolist()]
        assert D == math.lcm(*(d for _, d in ratios))
        assert [int(b) for b in B] == [p * (D // d) for p, d in ratios]
        fits = max((abs(p * (D // d)) for p, d in ratios), default=0) * len(values) < 2**62
        want = np.int64 if values.dtype == np.float64 and fits else object
        assert B.dtype == want and B.shape == values.shape
        if B.dtype == object:
            assert all(type(b) is int for b in B)


@pytest.mark.parametrize(
    "values, dtype",
    [
        ([2.0**60 - 128, 0.0, 0.0, 0.0], np.int64),
        ([2.0**60, 0.0, 0.0, 0.0], object),
        ([-(2.0**60) + 128, 0.0, 0.0, 0.0], np.int64),
        ([-(2.0**60), 0.0, 0.0, 0.0], object),
        ([2.0**60, 0.0, 0.0], np.int64),
        ([2.0**58 - 32, 0.25, 0.0, 0.0], np.int64),
        ([2.0**58, 0.25, 0.0, 0.0], object),
        ([2.0**62 - 512], np.int64),
        ([2.0**62], object),
    ],
)
def test_integer_lift_is_int64_exactly_below_the_2_62_rule(values, dtype):
    values = np.array(values)
    B, D = linalg_mod.integer_lift(values)
    assert B.dtype == dtype
    assert [int(b) for b in B] == [int(Fraction(v) * D) for v in values]


def test_integer_lift_needs_no_numpy_2_function(monkeypatch):
    # pyproject declares numpy>=1.23: the lift counts trailing zero bits
    # without np.bitwise_count, which numpy 2.0 added.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    values = np.array([0.25, -0.0, 0.001, 5e-324, 2.0**60, 1e308])
    for k in range(1, len(values) + 1):
        B, D = linalg_mod.integer_lift(values[:k])
        assert [Fraction(int(b), D) for b in B] == [Fraction(v) for v in values[:k]]


def test_char_poly_of_quarters_and_floats_matches_fraction_reference():
    # Quarters lift to int64 and random floats to Python ints; char_poly
    # runs both on Python ints.
    rng = np.random.default_rng(20261021)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        _assert_matches_reference(from_rows((rng.integers(-40, 40, (n, n)) / 4).tolist()))
        _assert_matches_reference(from_rows(rng.uniform(-3.0, 3.0, (n, n)).tolist()))


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_2x2_known():
    # det(tI - A) = t^2 - (a + d) t + (ad - bc), ascending coefficients.
    p = char_poly(from_rows([[1.0, 2.0], [3.0, 4.0]]))
    assert p == (-2.0, -5.0, 1.0)
    assert len(p) == 3


def test_char_poly_exact_matches_float():
    rows = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(-1), Fraction(3)],
            [Fraction(5), Fraction(1), Fraction(2)]]
    pe = char_poly(from_rows(rows, exact=True))
    pf = char_poly(from_rows([[float(v) for v in r] for r in rows]))
    assert all(isinstance(c, Fraction) for c in pe)
    for ce, cf in zip(pe, pf):
        assert float(ce) == pytest.approx(cf, abs=1e-12)


def test_char_poly_size_guard():
    with pytest.raises(DimensionTooLargeError):
        char_poly(assemble(alpha_tuple(65), [1.0] + [0.0] * 64))


def _fraction_fl_reference(A: np.ndarray) -> tuple[Fraction, ...]:
    """Faddeev-LeVerrier over a Fraction matrix: the reference kernel."""
    n = A.shape[0]
    eye = np.empty((n, n), dtype=object)
    eye[:] = Fraction(0)
    for i in range(n):
        eye[i, i] = Fraction(1)
    coeffs = [Fraction(1)] * (n + 1)
    B = A.copy()
    coeffs[n - 1] = -sum(B[i, i] for i in range(n))
    for k in range(2, n + 1):
        B = np.dot(A, B + coeffs[n - k + 1] * eye)
        coeffs[n - k] = -sum(B[i, i] for i in range(n)) / k
    return tuple(coeffs)


def _lift(M) -> np.ndarray:
    return np.array(
        [[Fraction(v) for v in row] for row in M.to_lists()], dtype=object
    )


def _assert_matches_reference(M):
    ref = _fraction_fl_reference(_lift(M))
    p = char_poly(M)
    assert p == ref
    assert all(isinstance(c, Fraction) for c in p)


def test_char_poly_matches_fraction_reference_on_mixed_denominators():
    rng = random.Random(20261018)
    dens = (1, 2, 3, 5, 7, 12, 35, 1024)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-60, 60), rng.choice(dens)) for _ in range(n)]
            for _ in range(n)
        ]
        _assert_matches_reference(from_rows(rows, exact=True))


def test_char_poly_zero_matrix_and_order_one():
    for exact in (False, True):
        Z = from_rows([[0] * 4] * 4, exact=exact)
        _assert_matches_reference(Z)
        assert char_poly(Z) == (0, 0, 0, 0, 1)
        one = from_rows([[Fraction(-7, 3) if exact else -2.5]], exact=exact)
        _assert_matches_reference(one)
    assert char_poly(from_rows([[-2.5]])) == (Fraction(5, 2), 1)


def test_char_poly_of_floats_is_exact_across_binary_exponents():
    M = from_rows(
        [
            [1e-300, 1e300, -3.5, 0.1],
            [2.0, -1e-300, 1e300, 5e-324],
            [0.1, 7e-200, 1e-5, -1e150],
            [-0.3, 1e-310, 2.0**-1074, 1e-300],
        ]
    )
    _assert_matches_reference(M)
    rng = np.random.default_rng(7)
    for n in (5, 8):
        exps = rng.integers(-300, 300, size=(n, n))
        data = rng.standard_normal((n, n)) * 10.0 ** exps.astype(float)
        _assert_matches_reference(from_rows(data.tolist()))


def _float_kernel_inputs():
    """Random float matrices at n = 1..12: signed zeros, zero matrices,
    permutative ones, a transposed view, entries near 1e200 whose products
    overflow to inf and then nan, and traces that overflow."""
    rng = np.random.default_rng(20261018)
    for n in range(1, 13):
        yield np.zeros((n, n))
        yield np.full((n, n), -0.0)
        for _ in range(6):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
            A[rng.random((n, n)) < 0.3] = -0.0
            A[rng.random((n, n)) < 0.2] = 0.0
            yield A
            yield A.T
        x = rng.random(n) * 5.0
        x[rng.integers(n)] = -0.0
        yield x[np.array([rng.permutation(n) for _ in range(n)])]
        if n > 1:
            yield rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.5, 2.0, (n, n)) * 1e200
            yield np.diag(rng.uniform(0.5, 2.0, n) * 1e200)
            yield np.full((n, n), 1e308)
            # tr A overflows, so c * I holds inf * 0.0 = nan off the diagonal.
            yield np.ones((n, n)) + np.diag(np.full(n, 1e308))


def test_char_poly_coeffs_float_bits_match_reference():
    seen_inf = seen_nan = False
    with np.errstate(over="ignore", invalid="ignore"):
        for A in _float_kernel_inputs():
            got = tuple(char_poly_coeffs(A[None])[0].tolist())
            ref = float_char_poly_reference(A)
            assert [float.hex(c) for c in got] == [float.hex(c) for c in ref]
            if not any(math.isnan(c) for c in ref):
                assert got == ref
            seen_inf |= any(math.isinf(c) for c in ref)
            seen_nan |= any(math.isnan(c) for c in ref)
    assert seen_inf and seen_nan


def test_char_poly_coeffs_float_trace_is_plain_left_to_right_sum():
    # 1.0 + 1e16 rounds back to 1e16, so the trace read left to right with
    # plain additions is 0.0; a reversed, compensated (sum() of floats from
    # Python 3.12 on) or exact sum gives 1.0.
    A = np.diag([1.0, 1e16, -1e16])
    assert float.hex(char_poly_coeffs(A[None])[0, 2]) == float.hex(-0.0)
    assert float.hex(float_char_poly_reference(A)[2]) == float.hex(-0.0)


def _hexes(coeffs) -> list[str]:
    return [float.hex(float(c)) for c in coeffs]


def test_char_poly_coeffs_stack_slices_match_2d_call_and_reference():
    by_order: dict[int, list[np.ndarray]] = {}
    for A in _float_kernel_inputs():
        by_order.setdefault(A.shape[0], []).append(A)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, mats in by_order.items():
            for m in (1, 2, 2 * n):
                for start in range(0, len(mats), m):
                    stack = np.stack([mats[(start + j) % len(mats)] for j in range(m)])
                    for S in (stack, stack.transpose(0, 2, 1)):
                        got = char_poly_coeffs(S)
                        assert got.shape == (m, n + 1)
                        ref = float_char_poly_stack_reference(S)
                        for row, A, r in zip(got, S, ref):
                            assert _hexes(row) == _hexes(char_poly_coeffs(A[None])[0])
                            assert _hexes(row) == _hexes(r)


def test_char_poly_coeffs_stack_keeps_each_slice_to_itself():
    # -0.0 trace, inf and nan entries, and a slice whose products overflow
    # (its c * I then holds inf * 0.0 = nan): each row is its slice's own
    # recurrence, whatever sits next to it in the stack.
    rng = np.random.default_rng(11)
    n = 4
    finite = [rng.standard_normal((n, n)) for _ in range(3)]
    neg_zero = np.full((n, n), -0.0)
    with_inf = finite[0].copy()
    with_inf[1, 2] = np.inf
    with_nan = finite[1].copy()
    with_nan[3, 0] = np.nan
    overflow = np.ones((n, n)) + np.diag(np.full(n, 1e308))
    odd = [neg_zero, with_inf, with_nan, overflow]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = char_poly_coeffs(np.stack(finite))
        mixed = char_poly_coeffs(np.stack([finite[0], overflow, finite[1], with_inf,
                                           neg_zero, with_nan, finite[2]]))
        for got, want in zip(mixed[[0, 2, 6]], alone):
            assert _hexes(got) == _hexes(want)
        for got, A in zip(mixed[[4, 3, 5, 1]], odd):
            assert _hexes(got) == _hexes(float_char_poly_reference(A))
        assert _hexes(mixed[4][n - 1 : n]) == [float.hex(0.0)]  # -(-0.0) / 1
        assert np.isnan(mixed[[1, 3, 5], 0]).all()
    assert np.isfinite(alone).all()


def test_char_poly_coeffs_stack_guards():
    with pytest.raises(NotSquareError, match="stack"):
        char_poly_coeffs(np.zeros((2, 3, 4)))
    with pytest.raises(NotSquareError):
        char_poly_coeffs(np.zeros((1, 2, 2, 2)))
    with pytest.raises(DimensionTooLargeError, match="n <= 64"):
        char_poly_coeffs(np.zeros((2, 65, 65)))
    # One matrix is a stack of one; exact coefficients come from char_poly.
    with pytest.raises(NotSquareError, match="stack"):
        char_poly_coeffs(np.eye(2))


def test_poly_from_roots_known():
    assert poly_from_roots(make_spectrum([1.0, 2.0])) == (2.0, -3.0, 1.0)
    assert poly_from_roots(make_spectrum([0.0] * 3)) == (0.0, 0.0, 0.0, 1.0)
    p = poly_from_roots(make_spectrum([Fraction(1, 2), Fraction(-1, 2)], exact=True))
    assert p == (Fraction(-1, 4), Fraction(0), Fraction(1))
    assert all(type(c) is Fraction for c in p)


def test_poly_from_roots_matches_diagonal_char_poly():
    roots = [3.0, -1.0, 0.5, -2.5]
    D = from_rows(
        [[roots[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    )
    assert char_poly(D) == poly_from_roots(make_spectrum(roots))


def test_eval_poly_at_roots_is_zero_exact():
    roots = [Fraction(2), Fraction(-3), Fraction(1, 2)]
    p = poly_from_roots(make_spectrum(roots, exact=True))
    for r in roots:
        assert eval_poly(p, r) == 0
    assert eval_poly(p, Fraction(0)) == p[0]


def test_poly_mul():
    # (t - 1)(t + 1) = t^2 - 1
    assert poly_mul((-1.0, 1.0), (1.0, 1.0)) == (-1.0, 0.0, 1.0)


def test_direct_sum_char_poly_is_product():
    A = from_rows([[1.0, 2.0], [2.0, 1.0]])
    B = from_rows([[4.0]])
    lhs = char_poly(DenseMatrix(block_diag(A.data, B.data)))
    rhs = poly_mul(char_poly(A), char_poly(B))
    assert lhs == rhs


@settings(deadline=None, max_examples=50)
@given(square_matrices(max_n=5))
def test_char_poly_is_monic_and_trace_consistent(rows):
    M = from_rows(rows)
    p = char_poly(M)
    n = M.n_rows
    assert len(p) == n + 1
    assert p[-1] == 1.0
    # The t^{n-1} coefficient is -trace(A).
    trace = float(np.trace(M.data))
    scale = max(1.0, abs(trace))
    assert abs(p[-2] + trace) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------


def test_tolerances_band():
    tol = Tolerances(absolute=1e-10, relative=1e-9)
    assert tol.band(0.0) == 1e-10
    assert tol.band(100.0) == pytest.approx(1e-7)


def test_tolerances_exact_band_is_zero_even_at_huge_scale():
    tol = Tolerances.exact()
    assert tol.absolute == 0.0 and tol.relative == 0.0
    band = tol.band(1e300)
    assert band == 0.0 and not math.isnan(band)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_float():
    M = from_rows([[1.5, -2.0], [0.0, 3.25]])
    N = matrix_from_json(matrix_to_json(M))
    assert_array_equal(N.data, M.data)


def test_json_round_trip_exact():
    M = from_rows([[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(5, 7)]],
                  exact=True)
    text = matrix_to_json(M)
    assert "1/3" in text
    N = matrix_from_json(text, exact=True)
    assert N.is_exact
    assert N.data[0, 0] == Fraction(1, 3)
    assert N.data[1, 1] == Fraction(5, 7)


def test_matrix_to_json_obj_is_json_safe():
    # Exact entries are written as their "p/q" strings.
    M = from_rows([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]],
                  exact=True)
    assert json.loads(matrix_to_json(M)) == [["1/2", "0"], ["0", "1"]]


def test_csv_round_trip_float():
    M = from_rows([[0.1, -2.0e-17], [1e6, 3.0]])
    N = matrix_from_csv(matrix_to_csv(M))
    assert_array_equal(N.data, M.data)


def test_csv_round_trip_exact():
    M = from_rows([[Fraction(22, 7), Fraction(-1)], [Fraction(0), Fraction(4)]],
                  exact=True)
    text = matrix_to_csv(M)
    assert text.splitlines()[0] == "22/7,-1"
    N = matrix_from_csv(text, exact=True)
    assert N.data[0, 0] == Fraction(22, 7)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        matrix_from_csv("1,2\nfoo,4\n")
    # Not finite, or beyond the float range (fine in exact mode).
    for tok in ("inf", "-inf", "nan", "1e400", "-1e400", "1/0"):
        with pytest.raises(ParseError):
            matrix_from_csv(f"1,2\n{tok},4\n")
    assert matrix_from_csv("1e400\n", exact=True).data[0, 0] == 10**400
    with pytest.raises(ParseError):
        matrix_from_json("[[1e400]]", exact=True)
    with pytest.raises(ParseError):
        matrix_from_json("not json")
    with pytest.raises(ParseError):
        matrix_from_json('[[true, 1], [0, 1]]')


def _matrix_to_json_reference(M):
    return json.dumps(
        [[str(v) if isinstance(v, Fraction) else v for v in row]
         for row in M.data.tolist()]
    )


def _matrix_to_csv_reference(M):
    return "\n".join(",".join(format_scalar(v) for v in row) for row in M.data.tolist()) + "\n"


def _serialization_inputs():
    """Float matrices with repeated, signed-zero and extreme entries, odd
    shapes and a non-contiguous view, plus an integer and an exact one."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-320, 300, (6, 6))
    data[0, :4] = [-0.0, 0.1, 5e-324, 1e300]
    alpha = realize_suleimanova(make_spectrum([7.1, -0.3, -0.3, -1.7, -1.7, -2.9]))
    zeros = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [1.5, -1.5, 0.0]])
    return (
        from_rows(data.tolist()),
        alpha.matrix,
        from_rows(zeros.tolist()),
        from_rows([[-0.0]]),
        from_rows([[0.1, 0.2, 0.1], [-3.0, 0.2, 1e-310]]),
        DenseMatrix(alpha.matrix.data.T),
        realize_companion(make_spectrum([5.0, -0.5, -1.25, -2.0])).matrix,
        DenseMatrix(np.array([[1, 0], [-2, 3]])),
        from_rows([[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(10) ** 400]],
                  exact=True),
    )


def test_matrix_to_json_bytes_match_per_entry_encoder():
    inputs = _serialization_inputs()
    assert not inputs[5].data.flags.c_contiguous
    for M in inputs:
        assert matrix_to_json(M) == _matrix_to_json_reference(M)


def test_matrix_to_csv_bytes_match_per_entry_formatter():
    for M in _serialization_inputs():
        assert matrix_to_csv(M) == _matrix_to_csv_reference(M)


def _csv_tokens(rng):
    """Long random mantissas from the float range's edges to its middle."""
    for _ in range(400):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        point = rng.randint(0, len(digits))
        mantissa = digits[:point] + "." + digits[point:] if point else digits
        exp = rng.choice(["", f"e{rng.randint(-365, 265)}", f"E+{rng.randint(0, 20)}"])
        yield rng.choice(["", "-", "+"]) + mantissa + exp
    yield from (
        "5e-324", "-5e-324", "2.5e-324", "2.4e-324", "4.9406564584124654e-324",
        "2.2250738585072009e-308", "2.2250738585072014e-308", "-1e-320",
        "1e-400", "-1e-400", "-0", "-0.0", "+0", "0e5", "-0/7", "1/3", "-22/7",
        " 7/1024 ", "1_000.5", "1.7976931348623157e308", ".5", "5.",
    )


def _csv_text(tokens, width=8):
    tokens = tokens + ["0"] * (-len(tokens) % width)
    rows = [tokens[i : i + width] for i in range(0, len(tokens), width)]
    return "\n".join(",".join(r) for r in rows) + "\n", rows


def _read_by_lines(text, exact=False):
    """matrix_from_csv's token-by-token path, with its errors."""
    lines = [line.split(",") for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyInputError("CSV matrix text contains no rows")
    return from_rows([linalg_mod.parse_scalars(ts, exact) for ts in lines], exact=exact)


def _is_plain_float(t):
    """float(t) reads t, written without underscores, to a finite value
    other than -0.0."""
    try:
        v = float(t)
    except ValueError:
        return False
    return "_" not in t and math.isfinite(v) and (v != 0 or math.copysign(1.0, v) > 0)


def test_matrix_from_csv_values_match_fraction_parse():
    tokens = list(_csv_tokens(random.Random(5)))
    plain = [t for t in tokens if _is_plain_float(t)]
    assert 300 < len(plain) < len(tokens)
    # Plain float tokens are read by loadtxt, every token else line by line;
    # both give float(Fraction(t)) bit for bit.
    for toks, fast in ((plain, True), (tokens, False)):
        text, rows = _csv_text(toks)
        assert (linalg_mod._loadtxt_floats(text) is not None) is fast
        M = matrix_from_csv(text)
        want = np.array([[float(Fraction(t)) for t in r] for r in rows])
        assert_array_equal(M.data.view(np.uint64), want.view(np.uint64))
    # -0 is read as 0.0, as float(Fraction("-0")) is; a negative value that
    # underflows keeps its sign, as float(Fraction("-1e-400")) does.
    got = matrix_from_csv("-0,-1e-400\n").data[0]
    assert math.copysign(1.0, got[0]) == 1.0
    assert math.copysign(1.0, got[1]) == -1.0


def _assert_reads_like_lines(text, exact=False):
    """matrix_from_csv(text, exact) is _read_by_lines(text, exact), bit for
    bit in float mode and as equal Fractions in exact mode, or raises the
    same exception with the same message, and warns nothing."""
    try:
        want = _read_by_lines(text, exact)
    except (ParseError, DimensionMismatchError, EmptyInputError) as e:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(e)) as got:
                matrix_from_csv(text, exact)
        assert str(got.value) == str(e)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matrix_from_csv(text, exact)
        assert got.data.shape == want.data.shape
        if exact:
            assert got.is_exact
            assert all(type(v) is Fraction for v in got.data.flat)
            assert (got.data == want.data).all()
        else:
            assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.mark.parametrize("text", [
    "1,-0\n2,3\n",
    "1,-1e-400\n2,3\n",
    "1,1/3\n2,3\n",
    "1,1_000.5\n2,3\n",
    "1,2\n \t\n3,4\n",
    "1\x0b,2\n3,4\n",
    "1\u2028,2\n3,4\n",
    "1,2\u20283,4\n",
    "1,2,\n3,4,\n",
    "1,2\n#3,4\n",
    '1,"2"\n3,4\n',
    "1,2\n3\n",
    "1,2\n3,4,5\n",
    "",
    "\n \n\t\n",
    "\u2028",
])
def test_matrix_from_csv_falls_back_to_the_line_reader(text):
    # Each text holds something loadtxt reads differently from the Fraction
    # grammar, or not at all, or is not ASCII: it takes the line reader,
    # with the line reader's values and error messages, and no warning.
    assert linalg_mod._loadtxt_floats(text) is None
    _assert_reads_like_lines(text)


def test_matrix_from_csv_errors_keep_their_messages():
    with pytest.raises(DimensionMismatchError, match="^row 1 has 1 entries, expected 2$"):
        matrix_from_csv("1,2\n3\n")
    # \x0b ends a line, so ",2" is a line with an empty entry.
    with pytest.raises(ParseError, match="^cannot parse matrix entry ''$"):
        matrix_from_csv("1\x0b,2\n3,4\n")
    for text in ("", "\n\n", " \r\n"):
        with pytest.raises(EmptyInputError, match="^CSV matrix text contains no rows$"):
            matrix_from_csv(text)
    with pytest.raises(ParseError, match="^cannot parse matrix entry '#3'$"):
        matrix_from_csv("1,2\n#3,4\n")


def test_matrix_from_csv_fast_path_shapes():
    # loadtxt reads the lines of str.splitlines, breaks other than "\n"
    # among them.
    for text, shape in (("1.5\n", (1, 1)), ("1,2,3\n", (1, 3)), ("1\n2\n\n3", (3, 1)),
                        (" 1 ,\t2\n3,4\x1f\n", (2, 2)), ("1,2\r\n3,4\r\n", (2, 2)),
                        ("1,2\r3,4", (2, 2)), ("1,2\x0b3,4\n", (2, 2)),
                        ("1,2\x0c\n3,4\n", (2, 2)), ("1,2\x1c3,4\x1d5,6\x1e", (3, 2))):
        assert linalg_mod._loadtxt_floats(text) is not None
        got = matrix_from_csv(text).data
        assert got.shape == shape
        assert_array_equal(got.view(np.uint64), _read_by_lines(text).data.view(np.uint64))


def _alpha_csv_rows(t):
    """The rows of the alpha layout of the tokens t, as token lists."""
    return [[t[j] for j in p] for p in _alpha_index(len(t)).tolist()]


def _csv_of(rows):
    return "".join(",".join(r) + "\n" for r in rows)


def _edited(t, i, j, token):
    rows = _alpha_csv_rows(t)
    rows[i][j] = token
    return _csv_of(rows)


_LAYOUT_TOKENS = ["7.25", "0.5", "1e-3", "0.125", "3", "0.1", "2.75", "0"]


@pytest.mark.parametrize("text, reads_layout", [
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS)), True),
    (matrix_to_csv(realize_suleimanova(make_spectrum([7.1, -0.3, -1.7, -2.9])).matrix), True),
    (_edited(_LAYOUT_TOKENS, 0, 3, "0.25"), False),
    (_edited(_LAYOUT_TOKENS, 4, 6, "0.25"), True),
    (_edited(_LAYOUT_TOKENS, 7, 7, "9"), True),
    (_edited(_LAYOUT_TOKENS, 4, 6, "-0"), True),
    (_edited(_LAYOUT_TOKENS, 4, 6, "1/3"), True),
    (_edited(_LAYOUT_TOKENS, 4, 6, "x"), False),
    (_edited(_LAYOUT_TOKENS, 4, 6, "0.5,1"), False),
    (_edited(_LAYOUT_TOKENS, 4, 6, "1\t"), False),
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS)).replace("\n", "\r\n"), False),
    # Row 1 is two lines to the line reader, and blank row 3 keeps the
    # row count at n.
    (_csv_of([r if i not in (1, 3) else [] for i, r in enumerate(_alpha_csv_rows(_LAYOUT_TOKENS[:5]))])
     .replace("\n\n", "\n1,2,3,4,5\r6,7,8,9,10\n", 1), False),
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS))[:-1], False),
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS)).replace("\n", "\n\n", 3), False),
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS)[:-1]), False),
    (_csv_of(_alpha_csv_rows(_LAYOUT_TOKENS) * 2), False),
    (matrix_to_csv(assemble_blocks([alpha_tuple(k) for k in (2, 2, 3, 2)],
                                   [v for k in (2, 2, 3, 2) for v in [float(k + 2)] + [0.5] * (k - 1)])),
     False),
    ("4.5\n", True),
    ("-0\n", True),
    ("1/3\n", True),
    ("x\n", False),
    ("1,2\n2,1\n", True),
    ("1,2\n3,1\n", True),
    ("1/3,-0\n-0,1/3\n", True),
    ("1,2\n", False),
    ("1,2\n2,1\n\n", False),
    ("\n1,2\n2,1\n", False),
])
def test_matrix_from_csv_reads_the_alpha_layout_like_the_line_reader(text, reads_layout):
    # A text that is mostly the alpha layout of its first line is read from
    # that line's tokens and the rows that differ, in both scalar modes; any
    # other text, and any doubt, goes to loadtxt (float mode) and the line
    # reader, with their values and messages.
    for exact in (False, True):
        assert (linalg_mod._alpha_csv(text, exact) is not None) is reads_layout
        _assert_reads_like_lines(text, exact)


def _sweep_text(rng):
    """A small alpha layout text with a few edits of entries, rows and line
    ends."""
    tokens = ["0", "1", "-0", "1/3", "2.5", "x", "", " 3", "1e-400", "-1e-400", "5e-324",
              "1e400", "0.1"]
    n = rng.randint(1, 6)
    t = [rng.choice(tokens) if rng.random() < 0.3 else repr(rng.random()) for _ in range(n)]
    rows = _alpha_csv_rows(t)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(rows))
        kind = rng.random()
        if kind < 0.6 and rows[i]:
            rows[i][rng.randrange(len(rows[i]))] = rng.choice(tokens + [repr(rng.random())])
        elif kind < 0.7:
            rows[i].append("1")
        elif kind < 0.8 and len(rows[i]) > 1:
            rows[i].pop()
        elif kind < 0.9 and len(rows) > 1:
            rows.pop(i)
        else:
            rows.insert(i, list(rows[i]))
    text = _csv_of(rows)
    edit = rng.randrange(12)
    return _LINE_EDITS[edit](text) if edit < len(_LINE_EDITS) else text


#: CRLF, no final newline, a blank line, a whitespace-only line, a lone
#: "\r" or "\x0b" line break, one row too many.
_LINE_EDITS = (
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text[:-1],
    lambda text: text.replace("\n", "\n\n", 1),
    lambda text: text.replace("\n", "\n \n", 1),
    lambda text: text.replace("\n", "\r", 1),
    lambda text: text.replace(",", "\x0b", 1),
    lambda text: text + "1\n",
)


def _sweep_laid_out(exact):
    """How many of 3,000 sweep texts _alpha_csv lays out; each text is
    read as the line reader reads it."""
    rng = random.Random(24)
    laid_out = 0
    for _ in range(3000):
        text = _sweep_text(rng)
        laid_out += linalg_mod._alpha_csv(text, exact) is not None
        _assert_reads_like_lines(text, exact)
    return laid_out


def test_matrix_from_csv_alpha_sweep_matches_the_line_reader():
    assert 300 < _sweep_laid_out(False) < 2500


def test_matrix_from_csv_exact_alpha_sweep_matches_the_exact_line_reader():
    assert 300 < _sweep_laid_out(True) < 2500


def test_matrix_from_csv_parses_only_the_first_line_and_the_edited_row(monkeypatch):
    x = [0.1 * k for k in range(64)]
    rows = _alpha_csv_rows([repr(v) for v in x])
    rows[30][17] = "1234.5"
    text = _csv_of(rows)
    calls = []
    for name in ("_loadtxt_floats", "parse_scalars"):
        real = getattr(linalg_mod, name)
        monkeypatch.setattr(linalg_mod, name,
                            lambda arg, *a, _real=real, _name=name: calls.append((_name, arg))
                            or _real(arg, *a))
    got = matrix_from_csv(text).data
    assert calls == [("parse_scalars", rows[0]), ("parse_scalars", rows[30])]
    want = assemble(alpha_tuple(64), x).data.copy()
    want[30, 17] = 1234.5
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_format_scalar():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(5)) == "5"
    assert float(format_scalar(0.1)) == 0.1


@settings(deadline=None, max_examples=50)
@given(square_matrices(max_n=4))
def test_csv_round_trip_property(rows):
    M = from_rows(rows)
    N = matrix_from_csv(matrix_to_csv(M))
    assert_array_equal(N.data, M.data)


# ---------------------------------------------------------------------------
# the alpha layout's spectrum is its closed form, exactly
# ---------------------------------------------------------------------------


def _dense_residuals(P):
    """(P e - s e, P V - V diag(deltas)) with V formed and multiplied out."""
    s, deltas, V = closed_eigensystem(P[0])
    return P.sum(axis=1) - s, np.dot(P, V) - V * deltas


def _residual_blocks():
    """Seeded float and Fraction alpha blocks, and both blocks of a direct sum."""
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 7, 40):
        x = rng.uniform(0.5, 5.0, n)
        yield assemble(alpha_tuple(n), x.tolist()).data
        q = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(1, 50, n), rng.integers(1, 9, n))]
        yield assemble(alpha_tuple(n), q).data
    x = [v for k in (3, 5) for v in rng.uniform(0.5, 5.0, k).tolist()]
    D = assemble_blocks([alpha_tuple(3), alpha_tuple(5)], x).data
    yield D[:3, :3]
    yield D[3:, 3:]


def test_layout_holds_sees_a_one_entry_perturbation():
    # The closed form needs the layout exactly: one entry moved is caught by
    # the structure check, and moves the dense eigenvector residual past
    # the band.
    for P in _residual_blocks():
        n = len(P)
        if n == 1:
            continue  # the only entry is the first row itself
        assert alpha_blocks_hold(P, [(0, n)])
        x_inf = float(np.abs(P[0]).max())
        band = Tolerances().band(max(1.0, x_inf * x_inf)) if P.dtype != object else 0
        assert np.abs(_dense_residuals(P)[1]).max() <= band
        P = P.copy()
        P[n - 1, 0] += 1
        assert not alpha_blocks_hold(P, [(0, n)])
        assert np.abs(_dense_residuals(P)[1]).max() > band


def _first_rows(rng, n):
    """Seeded first rows of one order: uniform of both signs, small integers
    (tied eigenvalues), zeros and -0.0, subnormals, and magnitudes across the
    float range."""
    yield rng.uniform(-5.0, 5.0, n)
    yield rng.integers(-3, 4, n).astype(float)
    x = rng.uniform(0.0, 1.0, n)
    x[rng.random(n) < 0.3] = -0.0
    x[rng.random(n) < 0.2] = 0.0
    yield x
    yield rng.uniform(-1.0, 1.0, n) * 5e-320
    yield np.exp(rng.uniform(-700.0, 700.0, n)) * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("n", [1, 2, 3, 181, 182, 363, 1024])
def test_proven_alpha_layout_residuals_match_the_whole_block(n):
    # The identification of a proven layout is exact: against the block's
    # own spectrum (its closed form in Fractions, which is det(tI - P) at
    # small n) it is 0, and against that spectrum rounded to floats it is
    # the rounding, to the last bit of the Fraction.
    rng = np.random.default_rng([17, n])
    blocks = [(0, alpha_tuple(n))]
    for x in _first_rows(rng, n):
        P = assemble(alpha_tuple(n), x.tolist()).data
        assert alpha_blocks_hold(P, [(0, n)])
        mu = exact_alpha_spectrum(P, blocks)
        if n <= 3:
            assert char_poly(DenseMatrix(P)) == poly_from_roots(make_spectrum(mu, exact=True))
        exact = make_spectrum(mu, exact=True)
        assert _alpha_identification_residual(P[0], blocks, exact) == 0
        rounded = [float_or_inf(v) for v in mu]
        if all(map(math.isfinite, rounded)):
            target = make_spectrum(rounded)
            got = _alpha_identification_residual(P[0], blocks, target)
            assert got == alpha_identification_reference(P, blocks, target)
            assert got == max(abs(Fraction(f) - v) for f, v in zip(rounded, mu))


# ---------------------------------------------------------------------------
# the serializers against the per-entry reference
# ---------------------------------------------------------------------------


def _table_inputs():
    """Matrices whose entries the first row covers fully, partly or not at all."""
    alpha = realize_suleimanova(make_spectrum([9.5, -0.5, -1.5, -2.5, -3.0])).matrix
    blocks = DenseMatrix(block_diag(
        alpha.data, realize_suleimanova(make_spectrum([4.0, -1.0, -2.25])).matrix.data, [[0.75]]))
    zero_first = from_rows([[0.0, 1.5, 2.0], [1.5, -0.0, 2.0], [2.0, 1.5, -0.0]])
    minus_zero_first = from_rows([[-0.0, 1.5, 2.0], [1.5, 0.0, 2.0], [2.0, 1.5, 0.0]])
    rng = np.random.default_rng(29)
    dense = from_rows(rng.standard_normal((9, 9)).tolist())
    return alpha, blocks, zero_first, minus_zero_first, dense, from_rows([[-0.0]]), from_rows([[0.1]])


def test_serializers_match_the_per_entry_reference():
    for M in _table_inputs():
        assert matrix_to_json(M) == json.dumps(M.data.tolist())
        texts = [[format_scalar(v) for v in row] for row in M.data.tolist()]
        assert matrix_to_csv(M) == "\n".join(",".join(row) for row in texts) + "\n"
        assert matrix_to_pretty(M) == _pretty_reference(M)


def test_assemble_alpha_matches_the_index_gather():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 6, 50):
        x = rng.uniform(-2.0, 5.0, n)
        x[n // 2] = -0.0
        got = assemble(alpha_tuple(n), x.tolist()).data
        assert_array_equal(got.view(np.uint64), x[_alpha_index(n)].view(np.uint64))
        q = [Fraction(int(k), 7) for k in rng.integers(-20, 20, n)]
        got = assemble(alpha_tuple(n), q).data
        assert got.dtype == object
        assert (got == np.array(q, dtype=object)[_alpha_index(n)]).all()


def _pretty_reference(M):
    cells = [[format_scalar(v) for v in row] for row in M.data.tolist()]
    width = max(len(c) for row in cells for c in row)
    return "".join("  " + "  ".join(c.rjust(width) for c in row) + "\n" for row in cells)


def _assert_serialized_as_stored(M):
    assert matrix_to_json(M) == json.dumps(M.data.tolist())
    assert matrix_to_csv(M) == _matrix_to_csv_reference(M)
    assert matrix_to_pretty(M) == _pretty_reference(M)


def _suleimanova_values(rng, n):
    tail = -rng.uniform(0.0, 3.0, n - 1)
    return [float(-tail.sum() + rng.uniform(0.0, 2.0)), *tail.tolist()]


def _alpha_layouts():
    """(matrix, is one alpha block) for alpha blocks and direct sums of them."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 300):
        yield realize_suleimanova(make_spectrum(_suleimanova_values(rng, n))).matrix, True
    for values, case in (([3.0, 1.0, -2.0], "N3-DirectSum"),
                         ([4.0, 3.0, 2.5, -3.0], "N4-PairedDirectSum")):
        r = realize_small(make_spectrum(values))
        assert r.case == case
        yield r.matrix, False
    groups = [_suleimanova_values(rng, int(rng.integers(1, 5))) for _ in range(200)]
    sigma = make_spectrum([v for g in groups for v in g])
    r = alpha_direct_sum(groups, "test", sigma)
    assert len(r.matrix.layout) == 200
    yield r.matrix, False
    # First rows with -0.0 and repeated values, alone and in a direct sum.
    odd = assemble(alpha_tuple(6), [-0.0, 1.5, 1.5, 0.0, 2.0, -0.0])
    yield odd, True
    yield DenseMatrix(block_diag(odd.data, [[-0.0]], odd.data)), False


def test_serializers_slice_one_alpha_block_and_print_direct_sums_as_stored():
    for M, one_block in _alpha_layouts():
        # Every recorded matrix, one alpha block or a sum of several, is
        # printed from its blocks' first rows; the text is the stored entries.
        assert _records_one_alpha_block(M) == one_block
        _assert_serialized_as_stored(M)


def test_serializers_print_entries_off_the_alpha_layout_as_stored():
    # One ulp (or one sign bit) off the alpha layout, anywhere in it: the
    # output shows the stored entry, never the first row's value.
    M0 = assemble(alpha_tuple(5), [0.5, 1.5, 1.5, 0.0, 3.0])
    assert _records_one_alpha_block(M0)
    for i, j, new in ((3, 0, None), (2, 2, None), (4, 1, None), (1, 3, None),
                      (0, 4, None), (3, 0, -0.0), (1, 3, -0.0), (2, 3, 5e-324),
                      (0, 0, None)):
        data = M0.data.copy()
        data[i, j] = np.nextafter(data[i, j], np.inf) if new is None else new
        M = DenseMatrix(data)
        assert not _records_one_alpha_block(M)
        _assert_serialized_as_stored(M)
        text = format_scalar(data[i, j])
        assert matrix_to_csv(M).splitlines()[i].split(",")[j] == text


def _records_one_alpha_block(M):
    """True iff M records one alpha block over the whole matrix."""
    return M.layout is not None and len(M.layout) == 1 and M.layout[0][1].is_alpha


def _piece_inputs():
    """(matrix, records one alpha block) for the piece serializers."""
    rng = np.random.default_rng(17)
    yield assemble(alpha_tuple(1), [0.5]), True
    yield assemble(alpha_tuple(2), [1.5, -0.0]), True
    yield from_rows([[-0.0]]), False
    # First-row texts of different widths, 0.0 next to -0.0, subnormals.
    wide = [123456.789, 0.1, 5e-324, -0.0, 0.0, 2.5e-310, 1e300, 7.0, -0.0]
    yield assemble(alpha_tuple(len(wide)), wide), True
    x = [round(v, int(d)) for v, d in zip(rng.uniform(0.0, 1e4, 40), rng.integers(0, 9, 40))]
    yield assemble(alpha_tuple(40), x), True
    # A multi-block direct sum, and the wide block one ulp off its layout.
    blocks = [assemble(alpha_tuple(k), rng.uniform(0.0, 3.0, k).tolist()) for k in (3, 1, 4, 2)]
    yield DenseMatrix(block_diag(*(B.data for B in blocks), [[-0.0]],
                                 assemble(alpha_tuple(len(wide)), wide).data)), False
    for i, j in ((4, 0), (3, 3), (0, 8), (8, 5)):
        data = assemble(alpha_tuple(len(wide)), wide).data.copy()
        data[i, j] = np.nextafter(data[i, j], np.inf)
        yield DenseMatrix(data), False
    # Exact and integer matrices.
    yield assemble(alpha_tuple(3), [Fraction(1, 3), Fraction(-22, 7), Fraction(0)]), True
    yield DenseMatrix(block_diag(assemble(alpha_tuple(2), [Fraction(5, 2), Fraction(10) ** 40]).data,
                                 [[Fraction(-1, 9)]])), False
    yield DenseMatrix(np.array([[1, 0], [-2, 30]])), False
    # Recorded direct sums: alpha blocks of orders 1-4 whose first rows hold
    # -0.0 and repeated entries, an N4-Group block and a cyclic block next
    # to alpha blocks, and an exact sum; then a companion matrix, which
    # records no layout.
    firsts = ([-0.0], [2.5, 2.5], [0.0, -0.0, 0.0], [1.5, 0.25, 1.5, -0.0])
    xs = (*firsts, *firsts[::-1])
    yield assemble_blocks([alpha_tuple(len(x)) for x in xs], [v for x in xs for v in x]), False
    group = realize_small(make_spectrum([6.0, 1.0, -3.0, -3.0]))
    assert group.case == "N4-Group"
    yield assemble_blocks([GROUP_TUPLE, alpha_tuple(3)],
                          [*group.matrix.first_rows.tolist(), 2.0, 0.5, 0.0]), False
    yield assemble_blocks([alpha_tuple(2), cyclic_tuple(4), alpha_tuple(1)],
                          [0.5, 1e-3, 0.0, 1.25, -0.0, 3.5, 7.0]), False
    q = [Fraction(k, 6) for k in (5, -1, 0, 7, 7)]
    yield assemble_blocks([alpha_tuple(2), cyclic_tuple(3)], q), False
    yield realize_companion(make_spectrum(_suleimanova_values(rng, 12))).matrix, False


def test_matrix_pieces_join_to_the_serializers_and_the_references():
    references = {"json": _matrix_to_json_reference, "csv": _matrix_to_csv_reference,
                  "pretty": _pretty_reference}
    serializers = {"json": matrix_to_json, "csv": matrix_to_csv, "pretty": matrix_to_pretty}
    for M, one_block in _piece_inputs():
        assert _records_one_alpha_block(M) == one_block
        for fmt, reference in references.items():
            pieces = list(matrix_pieces(M, fmt))
            assert all(type(p) is str for p in pieces)
            text = "".join(pieces)
            assert text == serializers[fmt](M) == reference(M), (fmt, M.data)
            # No piece is longer than the longest row's text.
            rows = text[2:-2].split("], [") if fmt == "json" else text.splitlines()
            assert max(map(len, pieces)) <= max(map(len, rows))
    # Pretty output right-aligns every entry to the widest text.
    lines = matrix_to_pretty(assemble(alpha_tuple(3), [10.5, -0.0, 2.0])).splitlines()
    assert lines == ["  10.5    -0     2", "    -0  10.5     2", "     2    -0  10.5"]


def test_a_recorded_direct_sum_formats_each_value_once(monkeypatch):
    # 512 order-2 alpha blocks of distinct values: the format function sees
    # their first rows and the zero off them, n + 1 values, in one call.
    rng = np.random.default_rng(12)
    groups = [_suleimanova_values(rng, 2) for _ in range(512)]
    M = alpha_direct_sum(groups, "test", make_spectrum([v for g in groups for v in g])).matrix
    n = M.n_rows
    assert len(M.layout) == 512 and len(np.unique(M.data[M.data != 0])) == n
    for fmt in ("json", "csv", "pretty"):
        format_distinct, *rest = linalg_mod._FORMATS[fmt]
        counts = []

        def counted(values, format_distinct=format_distinct):
            counts.append(len(values))
            return format_distinct(values)

        monkeypatch.setitem(linalg_mod._FORMATS, fmt, (counted, *rest))
        text = "".join(matrix_pieces(M, fmt))
        assert counts == [n + 1], fmt
        if fmt == "json":
            assert text == json.dumps(M.data.tolist())


# ---------------------------------------------------------------------------
# the layout a built matrix records
# ---------------------------------------------------------------------------


def _recorded_matrices(rng):
    """Matrices from every builder that records a layout: alpha blocks in
    float and exact mode, other patterns, the N4-Group and paired direct
    sums, alpha direct sums, the blocks of one such sum twice around a 3 x 3
    identity block, explorer hits and alpha CSV files read back."""
    for n in (1, 2, 5, 40):
        values = _suleimanova_values(rng, n)
        yield realize_suleimanova(make_spectrum(values)).matrix
        yield realize_suleimanova(make_spectrum(values, exact=True)).matrix
        perm = PermTuple([list(range(n))] + [rng.permutation(n).tolist() for _ in range(n - 1)])
        for pt in (cyclic_tuple(n), perm):
            x = rng.uniform(-2.0, 3.0, n)
            x[rng.random(n) < 0.3] = -0.0
            yield assemble(pt, x.tolist())
            yield assemble(pt, [Fraction(int(k), 3) for k in rng.integers(-9, 9, n)])
    for values, case in (([6.0, 1.0, -3.0, -3.0], "N4-Group"),
                         ([3.0, 1.0, -2.0], "N3-DirectSum"),
                         ([4.0, 3.0, 2.5, -3.0], "N4-PairedDirectSum")):
        for exact in (False, True):
            r = realize_small(make_spectrum(values, exact=exact))
            assert r.case == case
            yield r.matrix
    groups = [_suleimanova_values(rng, int(rng.integers(1, 5))) for _ in range(50)]
    summed = alpha_direct_sum(groups, "test", make_spectrum([v for g in groups for v in g]))
    yield summed.matrix
    patterns = [pt for _, pt in summed.matrix.layout]
    x = summed.matrix.first_rows.tolist()
    yield assemble_blocks(patterns + [alpha_tuple(3)] + patterns, x + [1.0, 0.0, 0.0] + x)
    for values, strategy in (([10.0, -1.0, -2.0, -3.0], "alpha"), ([1.0] * 4, "cyclic")):
        hits = [h for h in explore(make_spectrum(values), strategy=strategy, budget=400)
                if h.certified]
        assert hits
        yield from (h.realization.matrix for h in hits)
    for n in (1, 3, 64):
        M = realize_suleimanova(make_spectrum(_suleimanova_values(rng, n))).matrix
        yield matrix_from_csv(matrix_to_csv(M))


def test_a_recorded_layout_holds_bit_for_bit():
    # What certify and the printers take on trust is what the index
    # reference proves, for every pattern, and what alpha_blocks_hold
    # proves of every alpha layout; the recorded first rows hold every
    # value of the matrix.
    count = 0
    for M in _recorded_matrices(np.random.default_rng(2026)):
        assert M.layout is not None
        assert blocks_hold_by_index(M.data, M.layout), M.layout
        if all(pt.is_alpha for _, pt in M.layout):
            assert alpha_blocks_hold(M.data, [(a, a + pt.n) for a, pt in M.layout])
        assert M.max_abs() == np.abs(M.data).max()
        for tol in (0.0, 1.0, -1e-9):
            assert is_nonnegative(M, tol) == bool((M.data >= -tol).all())
        count += 1
    assert count > 30


def test_layout_is_recorded_only_by_the_builders():
    M = assemble(alpha_tuple(3), [2.0, 0.5, 1.0])
    assert M.layout == ((0, alpha_tuple(3)),)
    with pytest.raises(TypeError):
        DenseMatrix(M.data, layout=M.layout)
    assert not M.data.flags.writeable
    # The same entries, not built from blocks, and a CSV file whose row 1
    # is edited off the alpha layout of its first line.
    for other in (DenseMatrix(M.data), from_rows(M.to_lists()),
                  matrix_from_json(matrix_to_json(M)),
                  matrix_from_csv(matrix_to_csv(M).replace("\n0.5,2,1\n", "\n0.5,2,1.5\n"))):
        assert other.layout is None


# ---------------------------------------------------------------------------
# a built matrix is stored as its blocks' first rows; data is derived
# ---------------------------------------------------------------------------


def _entry_by_entry(blocks, exact):
    """The dense assembly the stored form replaced, one entry at a time:
    entry (i, j) of each (start, PermTuple, first row) block is x[p_i[j]],
    and every other entry is zero."""
    n = sum(len(x) for _, _, x in blocks)
    zero = Fraction(0) if exact else 0.0
    rows = [[zero] * n for _ in range(n)]
    for start, pt, x in blocks:
        for i, p in enumerate(pt.index.tolist()):
            for j, k in enumerate(p):
                rows[start + i][start + j] = x[k]
    return np.array(rows, dtype=object if exact else np.float64)


def _assert_same_entries(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == object:
        assert all(type(v) is Fraction for v in got.flat)
        assert (got == want).all()
    else:
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _stored_cases():
    """(matrix, its blocks as (start, PermTuple, first row)) for first rows
    holding -0.0, Fraction first rows, and a Klein block beside an alpha
    block."""
    a5, a2, a3 = alpha_tuple(5), alpha_tuple(2), alpha_tuple(3)
    x = [-0.0, 1.5, -0.0, 0.0, 2.0]
    yield assemble(a5, x), [(0, a5, x)]
    yield assemble_blocks([a2, a3], x), [(0, a2, x[:2]), (2, a3, x[2:])]
    q = [Fraction(1, 3), Fraction(0), Fraction(-2, 7), Fraction(5)]
    yield assemble(alpha_tuple(4), q), [(0, alpha_tuple(4), q)]
    yield assemble_blocks([a2, a2], q), [(0, a2, q[:2]), (2, a2, q[2:])]
    klein, tail = [3.0, -0.0, 1.0, 0.5], [2.0, 0.25, -0.0]
    yield assemble_blocks([GROUP_TUPLE, a3], klein + tail), \
        [(0, GROUP_TUPLE, klein), (4, a3, tail)]
    yield assemble_blocks([GROUP_TUPLE, a2], q + q[:2]), \
        [(0, GROUP_TUPLE, q), (4, a2, q[:2])]


def test_derived_data_is_the_dense_assembly_bit_for_bit():
    cases = list(_stored_cases())
    for M, blocks in cases:
        exact = all(isinstance(v, Fraction) for _, _, x in blocks for v in x)
        _assert_same_entries(M.data, _entry_by_entry(blocks, exact))
        assert M.data is M.data and not M.data.flags.writeable
        assert M.layout == tuple((a, pt) for a, pt, _ in blocks)
    for M in _recorded_matrices(np.random.default_rng(7)):
        blocks = [(a, pt, M.first_rows[a : a + pt.n].tolist()) for a, pt in M.layout]
        _assert_same_entries(M.data, _entry_by_entry(blocks, M.is_exact))


def test_matrices_survive_pickle_and_copy():
    # Stored and dense matrices come back with the same entries, blocks and
    # first rows, read-only, from pickle, copy and deepcopy.
    companion = realize_companion(make_spectrum([3.0, -1.0, -1.0])).matrix
    dense = [companion, from_rows([[Fraction(1, 3), 0], [2, -1]], exact=True)]
    for M in [M for M, _ in _stored_cases()] + dense:
        for twin in (pickle.loads(pickle.dumps(M)), copy.copy(M), copy.deepcopy(M)):
            assert type(twin) is DenseMatrix and twin.layout == M.layout
            if M.first_rows is None:
                assert twin.first_rows is None
            else:
                _assert_same_entries(twin.first_rows, M.first_rows)
                assert not twin.first_rows.flags.writeable
            _assert_same_entries(twin.data, M.data)
            assert not twin.data.flags.writeable


def test_edited_files_and_companion_matrices_stay_dense():
    # A CSV file with a row off the alpha layout of its first line and a
    # companion matrix have no blocks: their entries are stored as read.
    M = assemble(alpha_tuple(4), [4.0, 0.5, 1.0, 2.0])
    text = matrix_to_csv(M).replace("\n1,0.5,4,2\n", "\n1,0.5,4,2.5\n")
    edited = matrix_from_csv(text)
    companion = realize_companion(make_spectrum([3.0, -1.0, -1.0])).matrix
    for D in (edited, companion, matrix_from_csv(text, exact=True)):
        assert D.layout is None and D.first_rows is None
        assert not D.data.flags.writeable
    want = M.data.copy()
    want[2, 3] = 2.5
    assert_array_equal(edited.data, want)


def test_alpha_direct_sum_of_512_blocks_derives_no_n2_array(monkeypatch):
    # Build, certify and print read the 1024 stored first rows only; the
    # count goes up once something reads every entry.
    calls = []
    lay_out = linalg_mod._lay_out

    def counted(first_rows, layout):
        calls.append(len(first_rows))
        return lay_out(first_rows, layout)

    monkeypatch.setattr(linalg_mod, "_lay_out", counted)
    rng = np.random.default_rng(512)
    groups = [_suleimanova_values(rng, 2) for _ in range(512)]
    r = alpha_direct_sum(groups, "test", make_spectrum([v for g in groups for v in g]))
    assert certify(r).passed
    for fmt in ("json", "csv", "pretty"):
        "".join(matrix_pieces(r.matrix, fmt))
    assert r.matrix.n_rows == 1024 and len(r.matrix.layout) == 512
    assert calls == []
    r.matrix.to_lists()
    assert calls[0] == 1024
