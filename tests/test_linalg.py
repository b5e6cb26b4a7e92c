"""Dense matrices, characteristic polynomials, and serialization."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import float_char_poly_reference
from permrealize import (
    DenseMatrix,
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyInputError,
    NonFiniteEntryError,
    NotSquareError,
    ParseError,
    PermTuple,
    Polynomial,
    Tolerances,
    alpha_tuple,
    assemble,
    cyclic_tuple,
    make_spectrum,
    char_poly,
    direct_sum,
    eval_poly,
    from_rows,
    identity,
    is_nonnegative,
    is_permutative,
    matrices_close,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    poly_from_roots,
    polys_close,
    realize_companion,
    realize_suleimanova,
)
from permrealize.linalg import (
    char_poly_coeffs,
    closed_eigensystem,
    closed_eigensystem_residuals,
    format_entries,
    format_scalar,
    matrix_to_json_obj,
    max_coeff_diff,
    poly_mul,
)

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
    assert M.trace() == 5.0
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
    with pytest.raises(NonFiniteEntryError):
        from_rows([[1.0, math.inf], [0.0, 0.0]])
    with pytest.raises(NonFiniteEntryError):
        from_rows([[math.nan]])


def test_from_rows_allows_rectangular_but_char_poly_refuses():
    wide = from_rows([[1.0, 2.0]])
    assert wide.n_rows == 1 and wide.n_cols == 2
    assert not wide.is_square
    with pytest.raises(NotSquareError):
        char_poly(wide)


def test_matrix_data_is_readonly():
    M = identity(3)
    with pytest.raises(ValueError):
        M.data[0, 0] = 5.0


def test_is_nonnegative():
    assert is_nonnegative(from_rows([[0.0, 1.0], [2.0, 3.0]]))
    assert not is_nonnegative(from_rows([[0.0, -1e-6], [0.0, 0.0]]))
    assert is_nonnegative(from_rows([[0.0, -1e-6], [0.0, 0.0]]), tol=1e-5)


def test_is_permutative():
    assert is_permutative(identity(4))
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


def _is_permutative_reference(M, tol=0.0):
    ref = np.sort(M.data[0])
    for i in range(1, M.n_rows):
        row = np.sort(M.data[i])
        if not all(abs(a - b) <= tol for a, b in zip(ref, row)):
            return False
    return True


def _matrices_close_reference(A, B, tol):
    if A.data.shape != B.data.shape:
        return False
    scale = max(_max_abs_reference(A), _max_abs_reference(B), 1.0)
    band = tol.band(scale)
    return all(abs(a - b) <= band for a, b in zip(A.data.flat, B.data.flat))


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
                got = is_permutative(A, tol)
                assert got == _is_permutative_reference(A, tol)
                outcomes.add(("perm", got))
        for tol in (Tolerances(TOL, 0.0), Tolerances(), Tolerances.exact()):
            got = matrices_close(P, M, tol)
            assert got == _matrices_close_reference(P, M, tol)
            outcomes.add(("close", got))
    # Both outcomes occur, so the agreement is not vacuous.
    assert outcomes == {(k, v) for k in ("perm", "close") for v in (False, True)}


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


def test_max_abs_beyond_float_range_is_inf():
    M = from_rows([[Fraction(10) ** 400, Fraction(-1)], [0, 1]], exact=True)
    assert M.max_abs() == math.inf
    assert from_rows([[-(Fraction(10) ** 400)]], exact=True).max_abs() == math.inf


def test_direct_sum_layout():
    A = from_rows([[1.0, 2.0], [3.0, 4.0]])
    B = from_rows([[5.0]])
    S = direct_sum([A, B])
    assert_array_equal(
        S.data,
        np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]]),
    )


def test_matrices_close():
    A = from_rows([[1.0, 2.0], [3.0, 4.0]])
    B = from_rows([[1.0, 2.0 + 1e-12], [3.0, 4.0]])
    assert matrices_close(A, B, Tolerances())
    assert not matrices_close(A, B, Tolerances.exact())


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_2x2_known():
    # det(tI - A) = t^2 - (a + d) t + (ad - bc), ascending coefficients.
    p = char_poly(from_rows([[1.0, 2.0], [3.0, 4.0]]))
    assert p.coeffs == (-2.0, -5.0, 1.0)
    assert p.degree == 2


def test_char_poly_exact_matches_float():
    rows = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(-1), Fraction(3)],
            [Fraction(5), Fraction(1), Fraction(2)]]
    pe = char_poly(from_rows(rows, exact=True))
    pf = char_poly(from_rows([[float(v) for v in r] for r in rows]))
    assert pe.is_exact
    for ce, cf in zip(pe.coeffs, pf.coeffs):
        assert float(ce) == pytest.approx(cf, abs=1e-12)


def test_char_poly_size_guard():
    with pytest.raises(DimensionTooLargeError):
        char_poly(identity(65))


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
    assert p.coeffs == ref
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    if M.is_exact:
        assert char_poly_coeffs(M.data) == ref


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
        assert char_poly(Z).coeffs == (0, 0, 0, 0, 1)
        one = from_rows([[Fraction(-7, 3) if exact else -2.5]], exact=exact)
        _assert_matches_reference(one)
    assert char_poly(from_rows([[-2.5]])).coeffs == (Fraction(5, 2), 1)


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
            got = char_poly_coeffs(A)
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
    assert float.hex(char_poly_coeffs(A)[2]) == float.hex(-0.0)
    assert float.hex(float_char_poly_reference(A)[2]) == float.hex(-0.0)


def test_poly_from_roots_known():
    assert poly_from_roots(make_spectrum([1.0, 2.0])).coeffs == (2.0, -3.0, 1.0)
    assert poly_from_roots(make_spectrum([0.0] * 3)).coeffs == (0.0, 0.0, 0.0, 1.0)
    p = poly_from_roots(make_spectrum([Fraction(1, 2), Fraction(-1, 2)], exact=True))
    assert p.coeffs == (Fraction(-1, 4), Fraction(0), Fraction(1))


def test_poly_from_roots_matches_diagonal_char_poly():
    roots = [3.0, -1.0, 0.5, -2.5]
    D = from_rows(
        [[roots[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    )
    assert polys_close(char_poly(D), poly_from_roots(make_spectrum(roots)),
                       Tolerances())


def test_eval_poly_at_roots_is_zero_exact():
    roots = [Fraction(2), Fraction(-3), Fraction(1, 2)]
    p = poly_from_roots(make_spectrum(roots, exact=True))
    for r in roots:
        assert eval_poly(p, r) == 0
    assert eval_poly(p, Fraction(0)) == p.coeffs[0]


def test_poly_mul():
    # (t - 1)(t + 1) = t^2 - 1
    a = Polynomial((-1.0, 1.0))
    b = Polynomial((1.0, 1.0))
    assert poly_mul(a, b).coeffs == (-1.0, 0.0, 1.0)


def test_direct_sum_char_poly_is_product():
    A = from_rows([[1.0, 2.0], [2.0, 1.0]])
    B = from_rows([[4.0]])
    lhs = char_poly(direct_sum([A, B]))
    rhs = poly_mul(char_poly(A), char_poly(B))
    assert polys_close(lhs, rhs, Tolerances())


def test_polys_close_and_max_diff():
    a = Polynomial((1.0, 2.0, 1.0))
    b = Polynomial((1.0, 2.0 + 1e-12, 1.0))
    assert polys_close(a, b, Tolerances())
    assert max_coeff_diff(a, b) == pytest.approx(1e-12, rel=1e-3)
    assert not polys_close(a, Polynomial((1.0, 3.0, 1.0)), Tolerances())
    assert not polys_close(a, Polynomial((1.0, 2.0)), Tolerances())


@settings(deadline=None, max_examples=50)
@given(square_matrices(max_n=5))
def test_char_poly_is_monic_and_trace_consistent(rows):
    M = from_rows(rows)
    p = char_poly(M)
    n = M.n_rows
    assert p.degree == n
    assert p.coeffs[-1] == 1.0
    # The t^{n-1} coefficient is -trace(A).
    trace = float(np.trace(M.data))
    scale = max(1.0, abs(trace))
    assert abs(p.coeffs[-2] + trace) <= 1e-10 * scale


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
    M = from_rows([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]],
                  exact=True)
    obj = matrix_to_json_obj(M)
    assert obj == [["1/2", "0"], ["0", "1"]]
    json.dumps(obj)


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


def test_matrix_from_csv_values_match_fraction_parse():
    tokens = list(_csv_tokens(random.Random(5)))
    width = 8
    tokens += ["0"] * (-len(tokens) % width)
    rows = [tokens[i : i + width] for i in range(0, len(tokens), width)]
    M = matrix_from_csv("\n".join(",".join(r) for r in rows) + "\n")
    want = np.array([[float(Fraction(t)) for t in r] for r in rows])
    assert_array_equal(M.data.view(np.uint64), want.view(np.uint64))
    # -0 is read as 0.0, as float(Fraction("-0")) is; a negative value that
    # underflows keeps its sign, as float(Fraction("-1e-400")) does.
    got = matrix_from_csv("-0,-1e-400\n").data[0]
    assert math.copysign(1.0, got[0]) == 1.0
    assert math.copysign(1.0, got[1]) == -1.0


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
# closed-form eigensystem residuals against the dense product
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
    blocks = [assemble(alpha_tuple(k), rng.uniform(0.5, 5.0, k).tolist()) for k in (3, 5)]
    D = direct_sum(blocks).data
    yield D[:3, :3]
    yield D[3:, 3:]


def _pair_band(P):
    x_inf = float(np.abs(P[0]).max())
    return Tolerances().band(max(1.0, x_inf * x_inf)) if P.dtype != object else 0


def test_closed_eigensystem_residuals_match_the_dense_product():
    for P in _residual_blocks():
        s, deltas, row, pair = closed_eigensystem_residuals(P)
        s_ref, deltas_ref, _ = closed_eigensystem(P[0])
        row_ref, pair_ref = _dense_residuals(P)
        assert s == s_ref and (deltas == deltas_ref).all()
        assert pair.shape == pair_ref.shape == (len(P), len(P) - 1)
        band = _pair_band(P)
        assert (np.abs(row - row_ref) <= band).all()
        assert (np.abs(pair - pair_ref) <= band).all()
        assert (np.abs(pair) <= band).all()


def test_closed_eigensystem_residuals_see_a_one_entry_perturbation():
    for P in _residual_blocks():
        n = len(P)
        if n == 1:
            continue  # the only entry is the first row itself
        P = P.copy()
        P[n - 1, 0] += 1
        band = _pair_band(P)
        for _, pair in (closed_eigensystem_residuals(P)[2:], _dense_residuals(P)):
            assert np.abs(pair).max() > band


# ---------------------------------------------------------------------------
# the serializers against the per-entry reference
# ---------------------------------------------------------------------------


def _table_inputs():
    """Matrices whose entries the first row covers fully, partly or not at all."""
    alpha = realize_suleimanova(make_spectrum([9.5, -0.5, -1.5, -2.5, -3.0])).matrix
    blocks = direct_sum([alpha, realize_suleimanova(make_spectrum([4.0, -1.0, -2.25])).matrix,
                         from_rows([[0.75]])])
    zero_first = from_rows([[0.0, 1.5, 2.0], [1.5, -0.0, 2.0], [2.0, 1.5, -0.0]])
    minus_zero_first = from_rows([[-0.0, 1.5, 2.0], [1.5, 0.0, 2.0], [2.0, 1.5, 0.0]])
    rng = np.random.default_rng(29)
    dense = from_rows(rng.standard_normal((9, 9)).tolist())
    return alpha, blocks, zero_first, minus_zero_first, dense, from_rows([[-0.0]]), from_rows([[0.1]])


def test_serializers_match_the_per_entry_reference():
    for M in _table_inputs():
        assert matrix_to_json(M) == json.dumps(M.data.tolist())
        texts = [[format_scalar(v) for v in row] for row in M.data.tolist()]
        assert format_entries(M) == texts
        assert matrix_to_csv(M) == "\n".join(",".join(row) for row in texts) + "\n"
