"""Real matrices and polynomials for construction and certification.

Matrices hold numpy arrays in one of two scalar modes sharing a single code
path: float64 for everyday work, or object arrays of ``fractions.Fraction``
when exact rational arithmetic is requested.  A matrix built from
permutative blocks is stored as the blocks and their first rows, n values;
its n x n array is derived only for a caller that reads every entry, and
any other matrix stores that array as given.  Characteristic polynomials are
computed by the Faddeev-LeVerrier trace recurrence, no eigensolver involved:
``char_poly`` is exact in both modes (it clears the entries' denominators and
runs the recurrence on Python integers), while ``char_poly_coeffs`` keeps a
float64 recurrence over stacks of matrices for search loops.  A polynomial
is a plain tuple of degree-ascending coefficients, with the leading 1 of a
monic one stored explicitly.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyInputError,
    NonFiniteEntryError,
    NotSquareError,
    ParseError,
)
from .spectrum import Scalar, Spectrum, Tolerances

#: Largest order accepted by char_poly (the recurrence is O(n^4)).
CHAR_POLY_MAX_N = 64


def _array(rows: Sequence[Sequence], exact: bool) -> np.ndarray:
    if exact:
        arr = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not isinstance(v, Fraction):
                    if v != v or v in (math.inf, -math.inf):
                        raise NonFiniteEntryError("matrix contains a non-finite entry")
                    v = Fraction(v)
                arr[i, j] = v
        return arr
    arr = np.array(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("matrix contains a non-finite entry")
    return arr


class DenseMatrix:
    """Immutable real matrix (float64 or exact-Fraction entries).

    A matrix that linalg's builders made from permutative blocks
    (assemble_blocks and assemble, an alpha CSV file as written) is stored
    as those blocks: ``layout``, the tuple of (start, PermTuple) blocks
    that tile it, and ``first_rows``, their first rows end to end, n values
    that hold every entry.  Its n x n ``data`` is derived from them when first read
    (_lay_out) and cached; only callers that need every entry read it
    (char_poly, to_lists, ==).  Any other matrix stores ``data`` as
    given, and its layout and first_rows are None.  Both arrays are
    read-only.
    """

    __slots__ = ("_data", "first_rows", "layout")

    def __init__(self, data: np.ndarray):
        data.setflags(write=False)
        self._set(data, None, None)

    def _set(self, data, first_rows, layout) -> None:
        for name, value in (("_data", data), ("first_rows", first_rows), ("layout", layout)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"DenseMatrix is immutable: cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the matrix by its constructors
        if self.first_rows is None:
            return DenseMatrix, (self._data,)
        return _built, (self.first_rows, self.layout)

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            data = _lay_out(self.first_rows, self.layout)
            data.setflags(write=False)
            self._set(data, self.first_rows, self.layout)
        return self._data

    @property
    def _stored(self) -> np.ndarray:
        return self._data if self.first_rows is None else self.first_rows

    @property
    def n_rows(self) -> int:
        return self._stored.shape[0]

    @property
    def n_cols(self) -> int:
        return self._stored.shape[-1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_exact(self) -> bool:
        return self._stored.dtype == object

    def max_abs(self) -> Scalar:
        """Largest entry magnitude, a Fraction for exact entries; read off
        the stored first rows when there are any."""
        v = _entry_values(self)
        # no n^2 temporary; abs gives +0.0 when the extremes are zeros
        m = abs(max(v.max(), -v.min()))
        return m if self.is_exact else float(m)

    def to_lists(self) -> list[list[Scalar]]:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            (self.data == other.data).all()
        )

    def __repr__(self) -> str:
        return f"DenseMatrix({self.data!r})"


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


def _entry_values(M: DenseMatrix) -> np.ndarray:
    """An array holding exactly the values of M's entries: its stored first
    rows plus, with several blocks, the zero off them; else all of them."""
    if M.layout is None:
        return M.data
    if len(M.layout) == 1:
        return M.first_rows
    return np.concatenate([M.first_rows, zeros(1, 1, M.is_exact)[0]])


def is_nonnegative(M: DenseMatrix, tol: float = 0.0) -> bool:
    """True iff every entry is >= -tol (read as in max_abs)."""
    v = _entry_values(M)
    return v.size == 0 or bool(v.min() >= -tol)


def is_permutative(M: DenseMatrix) -> bool:
    """True iff every row is a permutation of the first row.

    Rows are compared as sorted multisets: one sort of every row, then
    each sorted row against the sorted first row with ==, so 0.0 and -0.0
    match.  The identity matrix is permutative under this definition (each
    row is a permutation of (1, 0, ..., 0)).
    """
    if not M.is_square:
        raise NotSquareError(
            f"permutativity is defined for square matrices, got "
            f"{M.n_rows}x{M.n_cols}"
        )
    rows = np.sort(M.data, axis=1)
    return bool((rows[1:] == rows[0]).all())


class PermTuple:
    """A permutative pattern: n row permutations of 0..n-1, the first the identity.

    ``index`` is the read-only n x n array whose row i is p_i, so the matrix
    with first row x is x[index].  A pattern given as rows is validated by a
    row sort; alpha_tuple's pattern is right by construction and skips that
    O(n^2 log n) check.  The alpha pattern (``is_alpha``, known in O(1))
    stores no array, so a realization that records it does not hold n^2
    integers for as long as it lives.  Its index is built, in O(n^2), only
    when ``index`` or ``encoding`` is read: assemble, alpha_blocks_hold and
    the serializers handle an alpha block by slices of its first row instead.
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
    """Matrix whose row i is x permuted by p_i: entry (i, j) = x[p_i[j]]
    (assemble_blocks of the one pattern pt)."""
    return assemble_blocks((pt,), x)


def assemble_blocks(patterns: Sequence[PermTuple], x: Sequence[Scalar]) -> DenseMatrix:
    """The direct sum of one block per pattern, in order: block k's first
    row is the next pt.n entries of x, and its row i that row permuted by
    p_i.  Stored as x and those blocks (DenseMatrix.layout), in O(n).

    Exact when every entry of x is a Fraction, float64 otherwise; a
    non-finite float entry raises NonFiniteEntryError.
    """
    exact = all(isinstance(v, Fraction) for v in x)
    xv = _array([x], exact)[0]
    layout, n = [], 0
    for pt in patterns:
        layout.append((n, pt))
        n += pt.n
    if xv.shape != (n,):
        raise DimensionMismatchError(f"first row has {len(x)} entries, pattern needs {n}")
    return _built(xv, tuple(layout))


def _built(first_rows: np.ndarray, layout) -> DenseMatrix:
    """A DenseMatrix stored as layout, the blocks that tile it, and their
    first rows end to end."""
    first_rows.setflags(write=False)
    M = DenseMatrix.__new__(DenseMatrix)
    M._set(None, first_rows, layout)
    return M


def _lay_out(first_rows: np.ndarray, layout) -> np.ndarray:
    """A new writable n x n array: each (start, PermTuple) block of layout
    laid out from its first row, the slice of first_rows at start, and
    zeros off the blocks.  DenseMatrix.data of a matrix stored as its
    blocks is this array."""
    if len(layout) == 1:
        pt = layout[0][1]
        return _alpha_layout(first_rows) if pt.is_alpha else first_rows[pt.index]
    n = len(first_rows)
    data = zeros(n, n, first_rows.dtype == object)
    for start, pt in layout:
        stop = start + pt.n
        data[start:stop, start:stop] = _lay_out(first_rows[start:stop], ((0, pt),))
    return data


def _alpha_layout(xv: np.ndarray) -> np.ndarray:
    """A new writable array: the alpha layout of the first row xv."""
    data = np.empty((len(xv), len(xv)), dtype=xv.dtype)
    data[:] = xv
    data[1:, 0] = xv[1:]
    np.fill_diagonal(data[1:, 1:], xv[0])
    return data


def alpha_blocks_hold(A: np.ndarray, split) -> bool:
    """True iff the n x n array A is exactly the direct sum of the alpha
    layouts of its blocks' first rows, the blocks being split's half-open
    ranges (start, stop), which tile [0, n) in order (detect_blocks).

    Each block must be its first row laid out by the alpha pattern, and
    every entry off the blocks must be zero.  Float64 entries are compared
    as uint64 bit patterns, so -0.0 is neither 0.0 nor an off-block zero;
    exact entries as equal Fractions.  One block is checked by its slices
    (_alpha_block_holds); several together, by a few gathers over all
    their rows.  Then each row of a block holds its first row's values, so
    the entries off the blocks are zero iff A has no more nonzero entries
    than those rows.
    """
    if A.dtype == np.float64:
        A = A.view(np.uint64)
    if len(split) == 1:
        return _alpha_block_holds(A)
    n = len(A)
    starts = [a for a, _ in split]
    sizes = [b - a for a, b in split]
    s, k = np.repeat(starts, sizes), np.repeat(sizes, sizes)
    rows = np.arange(n)
    x = A[s, rows]  # the blocks' first rows, end to end
    if not ((A[rows, s] == x).all() and (A.diagonal() == x[s]).all()):
        return False
    # row i of its block holds x[j] in every column j but s[i] and i
    R = np.repeat(rows, k)
    C = np.arange(len(R)) - np.repeat(np.cumsum(k) - k, k) + np.repeat(s, k)
    if not ((A[R, C] == x[C]) | (C == s[R]) | (C == R)).all():
        return False
    return bool(np.count_nonzero(A) == np.dot(k, x != 0))


def _alpha_block_holds(P: np.ndarray) -> bool:
    """True iff P is the alpha layout of its first row x, checked by slices,
    with no index: column 0 against x[1:], the diagonal against x[0], and
    the rest of each row against x."""
    x = P[0]
    if not ((P[1:, 0] == x[1:]).all() and (P.diagonal()[1:] == x[0]).all()):
        return False
    ok = P[1:, 1:] == x[1:]
    np.fill_diagonal(ok, True)  # entries (i, i), checked against x[0] above
    return bool(ok.all())


def _check_char_poly_order(A: np.ndarray, stack: bool = False) -> None:
    """Refuse what char_poly_coeffs (stack=True) or char_poly cannot take."""
    if A.ndim != (3 if stack else 2) or A.shape[-1] != A.shape[-2]:
        what = "an (m, n, n) stack of square matrices" if stack else "a square matrix"
        raise NotSquareError(
            f"characteristic polynomial needs {what}, got shape {A.shape}"
        )
    if A.shape[-1] > CHAR_POLY_MAX_N:
        raise DimensionTooLargeError(
            f"char_poly is limited to n <= {CHAR_POLY_MAX_N}, got "
            f"{A.shape[-1]}"
        )


@functools.lru_cache(maxsize=None)
def _float_eye(n: int) -> np.ndarray:
    """np.eye(n), built once per order and shared read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def char_poly_coeffs(A: np.ndarray) -> np.ndarray:
    """Float64 Faddeev-LeVerrier coefficients of det(tI - A), degree-ascending,
    for each matrix of an (m, n, n) stack: an (m, n + 1) array, one row per
    matrix.  Works directly on arrays, for search loops that avoid wrapper
    overhead; exact coefficients come from char_poly.

    The recurrence runs on the whole stack at once, a few numpy calls
    per step whatever m is, and its rounding is fixed, since the explorer's
    search trajectories inherit it: each trace is summed left to right from
    the first diagonal entry by plain float additions (np.add.accumulate,
    not np.sum's pairwise sum, nor sum(), which compensates float sums from
    Python 3.12 on); B + c * I is c * I written out and then added, not an
    in-place diagonal add, whose off-diagonal b + 0.0 (inf * 0.0 is nan)
    decides convergence on overflowing first rows; and the product is one
    matmul, one dgemm per matrix as np.dot runs it.  Each matrix's
    coefficients are those of its own recurrence: a matrix that overflows
    leaves the others in its stack unchanged.
    """
    _check_char_poly_order(A, stack=True)
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape[0], A.shape[-1]
    eye = _float_eye(n)
    coeffs = np.ones((m, n + 1))
    # column j of coeffs as an (m, 1, 1) view, to scale the stacked I by
    cols = coeffs[:, :, None, None]
    # running sums along the diagonals; their last column is the traces
    sums = np.empty((m, n))
    tr = sums[:, -1:, None]
    S = np.empty_like(A)
    P = np.empty_like(A)
    B = A
    for k in range(1, n + 1):
        np.add.accumulate(B.diagonal(0, 1, 2), 1, out=sums)
        c = np.divide(tr, -float(k), out=cols[:, n - k])
        if k < n:
            np.multiply(c, eye, out=S)
            np.add(B, S, out=S)
            B = np.matmul(A, S, out=P)
    return coeffs


def integer_lift(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(B, D) with values[k] == B[k] / D exactly, D the lcm of the denominators.

    Every float and Fraction is rational (a float is a dyadic one, so D is
    a power of two for floats), and integer arithmetic on B is exact.  A
    float64 array is split by np.frexp into 53-bit integer mantissas and
    exponents, whose trailing zero bits give each value's denominator.  B
    is int64 when every |B[k]| * len(values) < 2**62, so that no sum or
    difference of two sums of the B[k] overflows.  Otherwise, and for any
    other array (Fractions, mixed), B is an object array of Python ints
    from as_integer_ratio, over the same D.
    """
    if values.dtype == np.float64:
        mant, exp = np.frexp(values)
        mant = np.ldexp(mant, 53).astype(np.int64)
        # values[k] is odd / 2**den[k] with den[k] = 53 - exp[k] less the
        # trailing zero bits of mant[k], read off its lowest set bit (a power
        # of two, exact as a float); a zero has no denominator
        den = 54 - exp - np.frexp((mant & -mant).astype(np.float64))[1]
        s = int(den[mant != 0].max(initial=0))
        top = float(np.abs(values).max(initial=0.0))
        if math.frexp(top)[1] + s <= 62 and int(math.ldexp(top, s)) * len(values) < 1 << 62:
            return np.ldexp(values, s).astype(np.int64), 1 << s
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    dens = {d for _, d in ratios}
    D = math.lcm(*dens)
    scale = {d: D // d for d in dens}
    return np.array([p * scale[d] for p, d in ratios], dtype=object), D


def _exact_char_poly_coeffs(A: np.ndarray) -> tuple[Fraction, ...]:
    """Exact coefficients of det(tI - A) by Faddeev-LeVerrier over the integers.

    A = B / D with B an integer matrix (integer_lift of the entries).  The
    recurrence runs on B in Python ints: the
    coefficients of an integer matrix are integers, so each division by k
    is exact.  Then c_j(A) = c_j(B) / D^(n-j).
    """
    n = A.shape[0]
    B, D = integer_lift(A.ravel())
    B = B.astype(object).reshape(n, n)
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


def char_poly(M: DenseMatrix) -> tuple[Fraction, ...]:
    """Exact coefficients of det(tI - M), degree-ascending, as Fractions.

    Float entries are taken at their exact binary values, so the result is
    the true polynomial of the matrix as stored, free of the rounding noise
    of a float64 recurrence.  The Faddeev-LeVerrier trace recurrence B_1 =
    A, c_{n-1} = -tr B_1, B_k = A (B_{k-1} + c_{n-k+1} I), c_{n-k} =
    -tr(B_k)/k needs only matrix products; it runs on the integer matrix
    that clears the entries' denominators.  Guarded to n <= 64 since the
    cost is O(n^4) products of growing integers.
    """
    _check_char_poly_order(M.data)
    return _exact_char_poly_coeffs(M.data)


def poly_from_roots(sigma: Spectrum) -> tuple[Scalar, ...]:
    """Degree-ascending coefficients of prod (t - l_k), leading 1 included,
    expanded one root at a time, O(n^2).

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
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Serialization: JSON nested arrays and CSV (one row per line), both ways.
# ---------------------------------------------------------------------------


def _scalar_from_token(token, exact: bool, what: str = "matrix") -> Scalar:
    """A matrix entry from a text token (Fraction grammar) or a JSON number."""
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise ParseError(f"cannot parse {what} entry {token!r}")
    try:
        if isinstance(token, str):
            f = Fraction(token)
            return f if exact else float(f)
        return Fraction(token) if exact else float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        # OverflowError: a value beyond the float range, or an infinite
        # JSON number in exact mode.
        raise ParseError(f"cannot parse {what} entry {token!r}") from e


def parse_scalars(tokens: list[str], exact: bool, what: str = "matrix") -> list[Scalar]:
    """Fraction(t) for every text token t, or float(Fraction(t)) unless exact.

    Surrounding whitespace is ignored; a token that is no Fraction, or in
    float mode lies beyond the float range, raises ParseError("cannot
    parse <what> entry ...").  Floats are read by float(t) wherever that
    agrees with float(Fraction(t)).  The two differ only where float()
    reads a token as non-finite (inf, nan, or beyond the float range,
    which Fraction rejects or float(Fraction) refuses) or as a zero
    (float("-0") is -0.0, float(Fraction("-0")) is 0.0); those tokens and
    lists with a token float() rejects ("1/3") go through Fraction.
    """
    if not exact:
        try:
            row = list(map(float, tokens))
        except ValueError:
            pass
        else:
            if math.isfinite(sum(row)) and 0.0 not in row:
                return row
            return [
                v if v != 0.0 and math.isfinite(v) else _scalar_from_token(t.strip(), False, what)
                for v, t in zip(row, tokens)
            ]
    return [_scalar_from_token(t.strip(), exact, what) for t in tokens]


def _entry_texts(data: np.ndarray, format_distinct) -> Iterator[list[str]]:
    """The texts of the entries of a matrix that records no layout, one
    list per row, from one call of format_distinct on its distinct values.

    Float64 entries are told apart by their uint64 bit patterns, so -0.0
    and 0.0 stay apart; other dtypes have every entry formatted.
    """
    if data.dtype != np.float64:
        texts, m = format_distinct(data.ravel().tolist()), data.shape[1]
        return (texts[i : i + m] for i in range(0, len(texts), m))
    table, inverse = np.unique(data.view(np.uint64), return_inverse=True)
    texts = np.array(format_distinct(table.view(np.float64).tolist()), dtype=object)
    return (texts[row].tolist() for row in inverse.reshape(data.shape))


def _json_texts(values: list) -> list[str]:
    """json.dumps of each value, a Fraction as its "p/q" string."""
    return json.dumps(values, default=str)[1:-1].split(", ")


def _scalar_texts(values: list) -> list[str]:
    return [format_scalar(v) for v in values]


def _padded_texts(values: list) -> list[str]:
    texts = _scalar_texts(values)
    width = max(map(len, texts))
    return [t.rjust(width) for t in texts]


#: Each text format: the entry texts of a list of values, the separator
#: between a row's entries, and the text before the first row, between two
#: rows and after the last.
_FORMATS = {
    "json": (_json_texts, ", ", "[[", "], [", "]]"),
    "csv": (_scalar_texts, ",", "", "\n", "\n"),
    "pretty": (_padded_texts, "  ", "  ", "\n  ", "\n"),
}


def matrix_pieces(M: DenseMatrix, fmt: str) -> Iterator[str]:
    """The text of matrix_to_<fmt>(M) (fmt "json", "csv" or "pretty") in
    pieces of at most one row, for a stream's writelines, in both scalar
    modes.

    One call of the format's texts covers every value of M, so pretty's
    padding holds across rows: for a matrix that records its blocks, the
    values the certificate judges (_entry_values, laid out by
    _layout_pieces), else each distinct entry (_entry_texts).  Either way
    the text shows M as stored.  Written to /dev/null at n = 1024 on a
    2-core shared VM, one alpha block takes 4.4-5.1 ms and 512 order-2
    alpha blocks 2.9-6.0 ms, by format (medians); an exact alpha block
    joins to JSON in 4.6 ms (485 ms as one json.dumps of its n^2 entries).
    """
    format_distinct, sep, first, between, last = _FORMATS[fmt]
    if M.layout is None:
        rows = map(sep.join, _entry_texts(M.data, format_distinct))
        body = chain((next(rows),), chain.from_iterable(zip(repeat(between), rows)))
    else:
        body = chain.from_iterable(_layout_pieces(M, format_distinct, sep, between))
    return chain((first,), body, (last,))


def _layout_pieces(M: DenseMatrix, format_distinct, sep: str, between: str) -> Iterator:
    """The pieces of M's rows, one iterable per recorded block, from the
    texts of _entry_values(M): the blocks' first rows, then the zero.

    A row is lead, its block's row and trail, slices of one zero row's
    text, empty for a block that spans M.  A block's first row follows
    between and lead; a later one follows joint = trail + between + lead,
    no longer than that row, whose block part holds two entries or more.
    An alpha block's rows are _alpha_pieces, another's its texts in index order.
    """
    texts, n = format_distinct(_entry_values(M).tolist()), M.n_rows
    zeros = sep.join(repeat(texts[-1], n)) if len(M.layout) > 1 else ""
    width = len(texts[-1]) + len(sep)  # of a zero and its separator
    for start, pt in M.layout:
        stop = start + pt.n
        t = texts[start:stop] if len(M.layout) > 1 else texts  # no copy for one block
        lead, trail = zeros[: start * width], zeros[len(zeros) - (n - stop) * width :]
        joint = "".join((trail, between, lead)) if pt.n > 1 else between
        if start:
            yield between, lead
        if pt.is_alpha:
            yield _alpha_pieces(t, sep, joint)
        else:
            rows = iter([sep.join(map(t.__getitem__, p)) for p in pt.index.tolist()])
            yield chain((next(rows),), chain.from_iterable(zip(repeat(joint), rows)))
        if trail:
            yield (trail,)


def _alpha_pieces(t: list[str], sep: str, between: str) -> Iterator[str]:
    """The text of the alpha layout of the entry texts t, rows joined by
    between: first J, t joined by sep, which is row 0, then four pieces
    for each row i >= 1: between + t_i, J from the separator after t_0
    through the one before t_i, t_0, and J after t_i.  _layout_pieces
    writes them; _alpha_csv compares a file's rows with them.
    """
    J = sep.join(t)
    yield J
    gap = len(sep)
    head = at = len(t[0])  # at: offset in J of the separator before t_i
    for ti in t[1:]:
        tail = at + gap + len(ti)
        yield between + ti
        yield J[head : at + gap]
        yield t[0]
        yield J[tail:]
        at = tail


def matrix_to_json(M: DenseMatrix) -> str:
    """json.dumps(M.to_lists(), default=str), byte for byte, so a Fraction
    is its "p/q" string (see matrix_pieces).

    Cost at n = 1024 on a 2-core shared VM, against plain json.dumps
    (0.7-0.8 s): about 0.01x for a matrix that records its blocks (7.8 ms
    for one alpha block, 3.6 ms for 512 order-2 alpha blocks), 0.9x with
    n^2 / 2 distinct entries, and 1.5x when all n^2 entries differ
    (np.unique and the string table on top of the same formatting).
    """
    return "".join(matrix_pieces(M, "json"))


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


def matrix_to_csv(M: DenseMatrix) -> str:
    """One row per line, entries by format_scalar (see matrix_pieces)."""
    return "".join(matrix_pieces(M, "csv"))


def matrix_to_pretty(M: DenseMatrix) -> str:
    """One line per row: two spaces, then the format_scalar texts right-aligned
    to the widest and two spaces apart (see matrix_pieces)."""
    return "".join(matrix_pieces(M, "pretty"))


def matrix_from_csv(text: str, exact: bool = False) -> DenseMatrix:
    """One row per line, entries in the Fraction grammar; blank lines skipped.

    In float mode every entry is float(Fraction(token)), the correctly
    rounded value, and an entry beyond the float range is a ParseError.
    Lines are those of str.splitlines.  A text is read in up to three
    steps, each giving up (None) on what it cannot read to the line
    reader's values:
    1. _alpha_csv, in both modes: when most rows repeat the alpha layout's
       text of the first line's tokens, only those tokens and the other
       rows are parsed.
    2. In float mode, numpy's loadtxt (_loadtxt_floats) reads the whole
       text.
    3. The token-by-token path below, which raises every error.
    Costs on a 2-core shared VM, whose fast and slow phases differ by
    about 2x (medians of 100 calls, three rounds): a float alpha file as
    written takes 0.11-0.19 ms at n = 64 and 0.48-0.93 ms at n = 256, and
    with one entry edited 0.12-0.24 and 0.56-1.07 ms, where loadtxt of the
    whole text took 0.58-0.59 and 6.2-10.4 ms.  As written it is stored
    as its first row; edited, its n x n array is written out.  A dense
    random file (n = 512, 98-132 ms) or a direct sum of order-2 alpha
    blocks (n = 512, 15-22 ms) gives up step 1 after a row or two and
    costs what loadtxt does.  In exact mode a float alpha file at n = 256
    takes 1.4-2.7 ms as written and 2.8-4.9 ms with one entry edited
    (247-250 ms line by line; medians of 30 calls).
    """
    M = _alpha_csv(text, exact)
    if M is not None:
        return M
    if not exact:
        data = _loadtxt_floats(text)
        if data is not None:
            return DenseMatrix(data)
    lines = [line.split(",") for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyInputError("CSV matrix text contains no rows")
    return from_rows([parse_scalars(ts, exact) for ts in lines], exact=exact)


#: The uint64 bit pattern of -0.0.
_MINUS_ZERO_BITS = np.float64(-0.0).view(np.uint64)


def _loadtxt_floats(text: str) -> Optional[np.ndarray]:
    """The float64 matrix of a CSV text, read by numpy's C parser, or None.

    None unless the text is ASCII, has a non-blank line, and loadtxt reads
    its lines, those of str.splitlines, to finite values with no -0.0.
    Then the result is bit for bit the line reader's: loadtxt reads each
    field as float(field) does (correctly rounded, surrounding whitespace
    ignored), but takes no underscores or hex (numpy 1.23 and later, whose
    loadtxt parses in C; older ones call float() on each field), float(t)
    equals float(Fraction(t)) wherever it is finite and not -0.0 (see
    parse_scalars), and both skip empty lines.  A
    whitespace-only line, a ragged row or any token float() rejects
    ("1/3", "#", a quoted or empty field) makes loadtxt raise.
    """
    if not text or text.isspace() or not text.isascii():
        return None
    try:
        data = np.loadtxt(text.splitlines(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(data).all() or (data.view(np.uint64) == _MINUS_ZERO_BITS).any():
        return None
    return data


def _alpha_csv(text: str, exact: bool) -> Optional[DenseMatrix]:
    """The matrix of a CSV text that is mostly the alpha layout of its
    first line's tokens t, or None.

    The rows are walked in order, and each is compared with its text in
    that layout (_alpha_pieces of t, four pieces per row), with no
    parsing.  The matrix is that layout of parse_scalars(t, exact), with
    the rows that differ read by parse_scalars, as the line reader reads
    them, and written over theirs.  When no row differs, equal text parses
    to equal values, so the matrix is stored as that one alpha block and
    its first row, in O(n); otherwise its n x n array is written out.
    None, so that the whole text is read as before, when:
    - the first line is not printable ASCII;
    - the text does not end in "\\n", or has not n = len(t) rows;
    - differing rows come to outnumber matching ones, so that a dense or
      direct-sum file gives up after a row or two;
    - parse_scalars refuses t or a differing row;
    - a differing row is not printable, or has not n tokens.  A row
      holding another line break ("\\r", "\\x0b") would be two lines to
      the line reader, which a blank row elsewhere could hide from the row
      count.
    Otherwise every line of the text is one of the n rows, so the values
    are the line reader's: bit for bit in float mode, equal Fractions in
    exact mode.
    """
    end = text.find("\n")
    first = text[:end]
    if not text.endswith("\n") or not (first.isascii() and first.isprintable()):
        return None
    t = first.split(",")
    pieces = _alpha_pieces(t, ",", "\n")
    next(pieces)  # J, the first line itself
    edited = []  # (i, row i's text) of each row that differs
    pos = end  # the "\n" before row i
    for i, row in enumerate(zip(pieces, pieces, pieces, pieces), 1):
        at = pos
        for piece in row:
            if not text.startswith(piece, at):
                break
            at += len(piece)
        else:
            if text.startswith("\n", at):
                pos = at
                continue
        end = text.find("\n", pos + 1)
        if end < 0 or 2 * (len(edited) + 1) > i + 1:
            return None
        edited.append((i, text[pos + 1 : end]))
        pos = end
    if pos + 1 != len(text):
        return None
    try:
        x = _array([parse_scalars(t, exact)], exact)[0]
        if not edited:
            return _built(x, ((0, alpha_tuple(len(t))),))
        data = _alpha_layout(x)
        for i, line in edited:
            row = line.split(",")
            if not line.isprintable() or len(row) != len(t):
                return None
            data[i] = parse_scalars(row, exact)
    except ParseError:
        return None
    return DenseMatrix(data)
