"""Dense real matrices and polynomials for construction and certification.

Matrices wrap a numpy array in one of two scalar modes sharing a single code
path: float64 for everyday work, or object arrays of ``fractions.Fraction``
when exact rational arithmetic is requested.  Characteristic polynomials are
computed by the Faddeev-LeVerrier trace recurrence, no eigensolver involved:
``char_poly`` is exact in both modes (it clears the entries' denominators and
runs the recurrence on Python integers), while ``char_poly_coeffs`` keeps a
float64 recurrence for search loops.  Monic polynomials store their leading
1 explicitly with degree-ascending coefficients.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyInputError,
    NonFiniteEntryError,
    NotSquareError,
    ParseError,
)
from .spectrum import Spectrum, Tolerances, float_or_inf

Scalar = Union[float, Fraction]

#: Largest order accepted by char_poly (the recurrence is O(n^4)).
CHAR_POLY_MAX_N = 64


def _array(rows: Sequence[Sequence], exact: bool) -> np.ndarray:
    if exact:
        arr = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = v if isinstance(v, Fraction) else Fraction(v)
        return arr
    arr = np.array(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("matrix contains a non-finite entry")
    return arr


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense real matrix (float64 or exact-Fraction entries)."""

    data: np.ndarray

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_exact(self) -> bool:
        return self.data.dtype == object

    def trace(self) -> Scalar:
        d = [self.data[i, i] for i in range(min(self.data.shape))]
        return sum(d[1:], start=d[0])

    def max_abs(self) -> float:
        """Largest entry magnitude as a float (inf beyond the float range)."""
        return float_or_inf(np.abs(self.data).max())

    def to_lists(self) -> list[list[Scalar]]:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            (self.data == other.data).all()
        )


def from_rows(rows: Iterable[Sequence], exact: bool = False) -> DenseMatrix:
    """Build a DenseMatrix from nested sequences, validating shape."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise EmptyInputError("matrix needs at least one row and one column")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatchError(
                f"row {i} has {len(row)} entries, expected {width}"
            )
    return DenseMatrix(_array(rows, exact))


def zeros(n_rows: int, n_cols: int, exact: bool = False) -> np.ndarray:
    """Writable zero array in the requested scalar mode (internal helper)."""
    if exact:
        arr = np.empty((n_rows, n_cols), dtype=object)
        arr[:] = Fraction(0)
        return arr
    return np.zeros((n_rows, n_cols))


def identity(n: int, exact: bool = False) -> DenseMatrix:
    """The alpha matrix with first row (1, 0, ..., 0)."""
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    return assemble(alpha_tuple(n), (one,) + (zero,) * (n - 1))


def is_nonnegative(M: DenseMatrix, tol: float = 0.0) -> bool:
    """True iff every entry is >= -tol."""
    return bool((M.data >= -tol).all())


def is_permutative(M: DenseMatrix, tol: float = 0.0) -> bool:
    """True iff every row is a permutation of the first row, within tol.

    Rows are compared as sorted multisets: one sort of every row, then
    each sorted row against the sorted first row, entries matching when they
    differ by at most tol.  The identity matrix is permutative under this
    definition (each row is a permutation of (1, 0, ..., 0)).
    """
    if not M.is_square:
        raise NotSquareError(
            f"permutativity is defined for square matrices, got "
            f"{M.n_rows}x{M.n_cols}"
        )
    rows = np.sort(M.data, axis=1)
    dev = rows[1:] - rows[0]
    return bool((np.abs(dev, out=dev) <= tol).all())


class PermTuple:
    """A permutative pattern: n row permutations of 0..n-1, the first the identity.

    ``index`` is the read-only n x n array whose row i is p_i, so the matrix
    with first row x is x[index].  A pattern given as rows is validated by a
    row sort; alpha_tuple's pattern is right by construction and skips that
    O(n^2 log n) check.  The alpha pattern (``is_alpha``, known in O(1))
    stores no array: its index is rebuilt in O(n^2) on each use, so a
    realization that records it does not hold n^2 integers for as long as
    it lives.
    """

    __slots__ = ("n", "_index")

    def __init__(self, perms):
        idx = np.array(perms)
        n = len(idx)
        base = np.arange(n)
        if (
            idx.shape != (n, n)
            or n == 0
            or idx.dtype.kind not in "iu"
            or (np.sort(idx, axis=1) != base).any()
        ):
            raise ValueError(f"{perms} is not {n} permutations of 0..{n-1}")
        if (idx[0] != base).any():
            raise ValueError("the first row permutation must be the identity")
        idx = idx.astype(np.intp, copy=False)
        idx.setflags(write=False)
        self.n = n
        self._index = None if (idx == _alpha_index(n)).all() else idx

    @property
    def is_alpha(self) -> bool:
        return self._index is None

    @property
    def index(self) -> np.ndarray:
        return _alpha_index(self.n) if self._index is None else self._index

    @property
    def encoding(self) -> str:
        return "|".join(",".join(map(str, p)) for p in self.index.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermTuple):
            return NotImplemented
        if self.is_alpha or other.is_alpha:
            return self.is_alpha and other.is_alpha and self.n == other.n
        return np.array_equal(self._index, other._index)

    def __hash__(self) -> int:
        return hash(self.n if self.is_alpha else self._index.tobytes())

    def __repr__(self) -> str:
        return f"PermTuple({self.encoding!r})"


def _alpha_index(n: int) -> np.ndarray:
    """Row i is 0..n-1 with 0 and i swapped."""
    idx = np.tile(np.arange(n, dtype=np.intp), (n, 1))
    rest = np.arange(1, n)
    idx[rest, 0] = rest
    idx[rest, rest] = 0
    idx.setflags(write=False)
    return idx


def alpha_tuple(n: int) -> PermTuple:
    """Row i swaps positions 0 and i (the transposition pattern)."""
    if n < 1:
        raise EmptyInputError(f"the alpha pattern needs n >= 1, got {n}")
    pt = PermTuple.__new__(PermTuple)
    pt.n, pt._index = n, None
    return pt


def assemble(pt: PermTuple, x: Sequence[Scalar]) -> DenseMatrix:
    """Matrix whose row i is x permuted by p_i: entry (i, j) = x[p_i[j]].

    Exact when every entry of x is a Fraction, float64 otherwise; a
    non-finite float entry raises NonFiniteEntryError.
    """
    exact = all(isinstance(v, Fraction) for v in x)
    xv = _array([x], exact)[0]
    if xv.shape != (pt.n,):
        raise DimensionMismatchError(
            f"first row has {len(x)} entries, pattern needs {pt.n}"
        )
    return DenseMatrix(xv[pt.index])


def closed_eigensystem(x) -> tuple[Scalar, np.ndarray, np.ndarray]:
    """The eigensystem of the alpha matrix with first row x, in closed form.

    Returns (s, deltas, V): s = sum(x) belongs to the all-ones vector e, and
    deltas[k] = x_1 - x_{k+2} to column k of V, which is x_{k+2} everywhere
    except x_1 - s at position k+2 (1-based).  This holds for every x.
    """
    x = np.asarray(x)
    n = len(x)
    s = sum(x[1:], start=x[0])
    V = np.empty((n, n - 1), dtype=x.dtype)
    V[:] = x[1:]
    cols = np.arange(n - 1)
    V[cols + 1, cols] = x[0] - s
    return s, x[0] - x[1:], V


def closed_eigensystem_residuals(
    P: np.ndarray,
) -> tuple[Scalar, np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the closed eigensystem of P's first row x, on P itself.

    Returns (s, deltas, P e - s e, P V - V diag(deltas)) with s, deltas and
    V as closed_eigensystem(x) gives them, in O(n^2) and without forming V:
    column k of V is x_{k+1} e + c_k e_{k+1} with c_k = x_0 - s - x_{k+1},
    so with the row sums rs of P, entry (i, k) of the second residual is
    x_{k+1} (rs_i - d_k) + c_k P[i, k+1] - [i = k+1] d_k c_k.  P is read
    entry by entry, not rebuilt from x, so the residuals measure P.
    """
    x = P[0]
    s = sum(x[1:], start=x[0])
    deltas = x[0] - x[1:]
    c = (x[0] - s) - x[1:]
    rs = P.sum(axis=1)
    R = np.subtract.outer(rs, deltas)
    R *= x[1:]
    R += P[:, 1:] * c
    R.reshape(-1)[len(x) - 1 :: len(x)] -= deltas * c  # entries (k+1, k)
    return s, deltas, rs - s, R


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients degree-ascending, leading term explicit.

    Characteristic polynomials are monic: ``coeffs[-1] == 1`` and
    ``degree == n`` for an n x n matrix.
    """

    coeffs: tuple[Scalar, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)


def _check_char_poly_order(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSquareError(
            f"characteristic polynomial needs a square matrix, got shape "
            f"{A.shape}"
        )
    if A.shape[0] > CHAR_POLY_MAX_N:
        raise DimensionTooLargeError(
            f"char_poly is limited to n <= {CHAR_POLY_MAX_N}, got "
            f"{A.shape[0]}"
        )


@functools.lru_cache(maxsize=None)
def _float_eye(n: int) -> np.ndarray:
    """np.eye(n), built once per order and shared read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def char_poly_coeffs(A: np.ndarray) -> tuple[Scalar, ...]:
    """Faddeev-LeVerrier coefficients of det(tI - A), degree-ascending.

    Works directly on a square array, for search loops that avoid wrapper
    overhead: an object array of Fractions gets the exact coefficients of
    char_poly; a float64 array runs the recurrence in float64, whose
    rounding the explorer's search trajectories inherit and which is
    therefore fixed: one np.dot per step, each trace summed left to right
    from the first diagonal entry by plain float additions (not sum(),
    which compensates float sums from Python 3.12 on), and B + c * I, not
    an in-place diagonal add, whose off-diagonal b + 0.0 (inf * 0.0 is
    nan) decides convergence on overflowing first rows.
    """
    _check_char_poly_order(A)
    if A.dtype == object:
        return _exact_char_poly_coeffs(A)
    n = A.shape[0]
    eye = _float_eye(n)
    coeffs: list[Scalar] = [1.0] * (n + 1)
    B = A
    for k in range(1, n + 1):
        d = B.diagonal().tolist()
        tr = d[0]
        for v in d[1:]:
            tr += v
        coeffs[n - k] = -tr / k
        if k < n:
            B = np.dot(A, B + coeffs[n - k] * eye)
    return tuple(coeffs)


def _exact_char_poly_coeffs(A: np.ndarray) -> tuple[Fraction, ...]:
    """Exact coefficients of det(tI - A) by Faddeev-LeVerrier over the integers.

    Every entry is rational (a float is a dyadic one), so A = B / D with B
    an integer matrix and D the lcm of the entries' denominators, a power
    of two for floats.  The recurrence runs on B in Python ints: the
    coefficients of an integer matrix are integers, so each division by k
    is exact.  Then c_j(A) = c_j(B) / D^(n-j).
    """
    n = A.shape[0]
    ratios = [v.as_integer_ratio() for v in A.ravel().tolist()]
    D = math.lcm(*(d for _, d in ratios))
    B = np.array([p * (D // d) for p, d in ratios], dtype=object).reshape(n, n)
    coeffs = [1] * (n + 1)
    Bk = B.copy()
    for k in range(1, n + 1):
        c = -Bk.trace() // k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            Bk[i, i] += c
        Bk = np.dot(B, Bk)
    return tuple(Fraction(c, D ** (n - j)) for j, c in enumerate(coeffs))


def char_poly(M: DenseMatrix) -> Polynomial:
    """Exact characteristic polynomial det(tI - M), Fraction coefficients.

    Float entries are taken at their exact binary values, so the result is
    the true polynomial of the matrix as stored, free of the rounding noise
    of a float64 recurrence.  The Faddeev-LeVerrier trace recurrence B_1 =
    A, c_{n-1} = -tr B_1, B_k = A (B_{k-1} + c_{n-k+1} I), c_{n-k} =
    -tr(B_k)/k needs only matrix products; it runs on the integer matrix
    that clears the entries' denominators.  Guarded to n <= 64 since the
    cost is O(n^4) products of growing integers.
    """
    _check_char_poly_order(M.data)
    return Polynomial(_exact_char_poly_coeffs(M.data))


def poly_from_roots(sigma: Spectrum) -> Polynomial:
    """Monic expansion of prod (t - l_k), one root at a time, O(n^2).

    Roots are folded in sorted-descending order (the Spectrum's own order)
    so the result is deterministic; with Fraction entries it is exact.
    """
    exact = sigma.is_exact
    one: Scalar = Fraction(1) if exact else 1.0
    zero: Scalar = Fraction(0) if exact else 0.0
    coeffs: list[Scalar] = [one]  # degree-descending while folding
    for r in sigma.values:
        coeffs.append(zero)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k] - r * coeffs[k - 1]
    coeffs.reverse()
    return Polynomial(tuple(coeffs))


def eval_poly(p: Polynomial, t: Scalar) -> Scalar:
    """Horner evaluation."""
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * t + c
    return acc


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Coefficient convolution (used to cross-check direct sums)."""
    exact = p.is_exact and q.is_exact
    zero: Scalar = Fraction(0) if exact else 0.0
    out = [zero] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(tuple(out))


def polys_close(p: Polynomial, q: Polynomial, tol: Tolerances) -> bool:
    """Coefficientwise comparison within tol.band(max coefficient size).

    Coefficients and band are lifted to Fractions (exact for floats) and
    compared exactly, since exact coefficients can exceed the float range
    (c_0 of a 30 x 30 matrix with entries near 1e12 is near 1e360).
    """
    if len(p.coeffs) != len(q.coeffs):
        return False
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    scale = max(1, max(abs(c) for c in (*a, *b)))
    band = max(Fraction(tol.absolute), Fraction(tol.relative) * scale)
    return all(abs(x - y) <= band for x, y in zip(a, b))


def max_coeff_diff(p: Polynomial, q: Polynomial) -> float:
    """Largest |p_k - q_k| as a float; inf on length mismatch or overflow."""
    if len(p.coeffs) != len(q.coeffs):
        return math.inf
    return float_or_inf(max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)))


def direct_sum(blocks: Sequence[DenseMatrix]) -> DenseMatrix:
    """Block-diagonal assembly of square blocks, zeros elsewhere."""
    blocks = list(blocks)
    if not blocks:
        raise EmptyInputError("direct_sum needs at least one block")
    for b in blocks:
        if not b.is_square:
            raise NotSquareError(
                f"direct_sum blocks must be square, got {b.n_rows}x{b.n_cols}"
            )
    exact = all(b.is_exact for b in blocks)
    n = sum(b.n_rows for b in blocks)
    out = zeros(n, n, exact)
    off = 0
    for b in blocks:
        k = b.n_rows
        data = b.data if (exact or not b.is_exact) else b.data.astype(float)
        out[off : off + k, off : off + k] = data
        off += k
    return DenseMatrix(out)


def matrices_close(A: DenseMatrix, B: DenseMatrix, tol: Tolerances) -> bool:
    """Entrywise comparison within tol.band(max entry size)."""
    if A.data.shape != B.data.shape:
        return False
    scale = max(A.max_abs(), B.max_abs(), 1.0)
    dev = A.data - B.data
    return bool((np.abs(dev, out=dev) <= tol.band(scale)).all())


# ---------------------------------------------------------------------------
# Serialization: JSON nested arrays and CSV (one row per line), both ways.
# ---------------------------------------------------------------------------


def _scalar_to_json(v: Scalar):
    return str(v) if isinstance(v, Fraction) else v


def _scalar_from_token(token, exact: bool) -> Scalar:
    """A matrix entry from a text token (Fraction grammar) or a JSON number."""
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise ParseError(f"cannot parse matrix entry {token!r}")
    try:
        if isinstance(token, str):
            f = Fraction(token)
            return f if exact else float(f)
        return Fraction(token) if exact else float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        # OverflowError: a value beyond the float range, or an infinite
        # JSON number in exact mode.
        raise ParseError(f"cannot parse matrix entry {token!r}") from e


def _float_row(tokens: list[str]) -> list[float]:
    """float(Fraction(t)) for every token, by float(t) wherever the two agree.

    They differ only where float() reads a token as non-finite (inf, nan,
    or beyond the float range, which Fraction rejects or float(Fraction)
    refuses) or as a zero (float("-0") is -0.0, float(Fraction("-0")) is
    0.0); those tokens and rows with a token float() rejects ("1/3") go
    through _scalar_from_token.
    """
    try:
        row = list(map(float, tokens))
    except ValueError:
        return [_scalar_from_token(t.strip(), False) for t in tokens]
    if math.isfinite(sum(row)) and 0.0 not in row:
        return row
    return [
        v if v != 0.0 and math.isfinite(v) else _scalar_from_token(t.strip(), False)
        for v, t in zip(row, tokens)
    ]


def matrix_to_json_obj(M: DenseMatrix) -> list[list]:
    """Nested lists with JSON-safe scalars (Fractions become strings)."""
    rows = M.data.tolist()
    if M.is_exact:
        return [[_scalar_to_json(v) for v in row] for row in rows]
    return rows


def _entry_texts(data: np.ndarray, format_distinct) -> list[list[str]]:
    """The text of every float64 entry, row by row, formatting each value once.

    Entries are told apart by their uint64 bit patterns, so -0.0 and 0.0
    stay apart; format_distinct maps the list of distinct values to their
    texts.  The first row holds every value of a permutative matrix, so its
    sorted patterns make the table, and every entry is found in it by
    binary search: no sort over the n^2 entries, and n values formatted
    instead of n^2.  Entries the first row lacks (zeros off the blocks of a
    direct sum, the other blocks' values, a matrix that is not permutative)
    are sorted on their own and appended to the table.

    The first row is sorted, not np.unique'd: a repeated value costs one
    more formatting, while a plain np.unique imports numpy.ma on its first
    call, about 10 ms of every fresh process that prints a matrix.
    """
    bits = data.view(np.uint64)
    table = np.sort(bits[0])
    pos = np.searchsorted(table, bits)
    missed = np.take(table, pos, mode="clip") != bits
    if missed.any():
        rest, inverse = np.unique(bits[missed], return_inverse=True)
        pos[missed] = inverse + len(table)
        table = np.concatenate((table, rest))
    texts = np.array(format_distinct(table.view(np.float64).tolist()), dtype=object)
    return texts[pos].tolist()


def matrix_to_json(M: DenseMatrix) -> str:
    """json.dumps(matrix_to_json_obj(M)), byte for byte.

    Float64 entries are deduplicated by their uint64 bit patterns, so -0.0
    and 0.0 stay distinct, and the distinct values are formatted by one
    json.dumps call, so every number is json's own text; the rows are
    joined from that string table.  Other dtypes, exact (Fraction) matrices
    among them, keep the per-entry path: np.unique on Fraction objects costs far more than it
    saves (1.6 s, against 30 ms for the whole encoding, at n = 256).

    Cost at n = 1024 on a 2-core VM, against plain json.dumps (0.45 s):
    about 0.1x for an alpha matrix, whose n distinct values all sit in the
    first row (every matrix realize emits has at most n + 2 distinct
    values), 0.9x with n^2 / 2, and 1.6x when all n^2 entries differ (the
    sort and the string table on top of the same formatting).
    """
    if M.data.dtype != np.float64:
        return json.dumps(matrix_to_json_obj(M))
    rows = _entry_texts(M.data, lambda vs: json.dumps(vs)[1:-1].split(", "))
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def matrix_from_json(text: str, exact: bool = False) -> DenseMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON matrix: {e}") from e
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError("JSON matrix must be a list of rows")
    rows = [[_scalar_from_token(v, exact) for v in row] for row in obj]
    return from_rows(rows, exact=exact)


def format_scalar(v: Scalar) -> str:
    """Shortest faithful text form: %.17g for floats, p/q for Fractions."""
    if isinstance(v, Fraction):
        return str(v)
    return "%.17g" % v


def format_entries(M: DenseMatrix) -> list[list[str]]:
    """format_scalar of every entry, row by row (each distinct float64 once)."""
    if M.data.dtype != np.float64:
        return [[format_scalar(v) for v in row] for row in M.data.tolist()]
    return _entry_texts(M.data, lambda vs: [format_scalar(v) for v in vs])


def matrix_to_csv(M: DenseMatrix) -> str:
    """One row per line, entries by format_scalar (each distinct float once)."""
    return "\n".join(",".join(row) for row in format_entries(M)) + "\n"


def matrix_from_csv(text: str, exact: bool = False) -> DenseMatrix:
    """One row per line, entries in the Fraction grammar; blank lines skipped.

    In float mode every entry is float(Fraction(token)), the correctly
    rounded value, and an entry beyond the float range is a ParseError.
    """
    lines = [line.split(",") for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyInputError("CSV matrix text contains no rows")
    if exact:
        rows = [[_scalar_from_token(t.strip(), True) for t in ts] for ts in lines]
    else:
        rows = [_float_row(ts) for ts in lines]
    return from_rows(rows, exact=exact)
