"""Certification of realizations without any general eigensolver.

A certificate is assembled from nonnegativity, structure (the permutative
blocks a realization records, if any, which must be its entries exactly)
and one spectral check.  When every recorded block has the alpha pattern
and holds, the spectral check is the paper's closed form: the alpha matrix
with first row x has the eigenvalues sum(x) and x_0 - x_i for every x, so
the blocks' eigenvalues are read off their first rows and compared with
the target exactly, at any n; a matrix whose exact zeros split it into
alpha blocks that hold (a direct sum given to verify) counts as recorded.
Any other matrix
(companion matrices, search hits of other patterns, other files given to
verify) gets the exact characteristic-polynomial coefficient match up to a
size limit.
Checks that do not apply to a given realization are reported as
not-applicable rather than silently passed, and a certificate on which
neither spectral check (charpoly, eigenpairs) ran is inconclusive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NotSquareError
from .linalg import (
    CHAR_POLY_MAX_N,
    DenseMatrix,
    PermTuple,
    alpha_tuple,
    char_poly,
    integer_lift,
    is_nonnegative,
    is_permutative,
    layout_holds,
    poly_from_roots,
)
from .spectrum import Scalar, Spectrum, Tolerances, float_or_inf, make_spectrum

# Method tags attached to Realizations by the construction modules.
METHOD_SULEIMANOVA = "suleimanova-permutative"
METHOD_SMALL_ORDER = "small-order"
METHOD_COMPANION = "companion"
METHOD_EXPLORER = "explorer-permutative"

#: Largest order at which a float matrix without alpha evidence (see
#: certify) gets the characteristic-polynomial check; recorded alpha blocks
#: are certified by their closed form at every order instead.
#: Float64 Faddeev-LeVerrier is numerically treacherous (its own
#: rounding noise reaches ~1e-9 relative by n = 9 even for a perfect
#: matrix), so the check compares the exact coefficients of the matrix as
#: stored (char_poly) with those of the exactly lifted target; the limit
#: only bounds the cost of that exact computation, whose integers grow with
#: n.  It is the largest n at which the charpoly of a float matrix with
#: full-precision entries costs no more than a recurrence over a Fraction
#: matrix does at n = 12: about 0.18 s against 0.20 s on a 2-core VM.
#: That budget assumes a bounded exponent spread: the integers of D*M
#: have about log2(lcm of denominators) + largest exponent bits, and past
#: about 100 bits the cost grows with their square.  At n = 30 it is 0.12 s
#: at 53 bits, 0.21 s at 93 bits, 0.83 s at 213 bits, 21 s with one 1e300
#: entry next to one 5e-324 entry (2071 bits), and 76 s with every entry
#: near 1e300 and one 5e-324 entry.  The check is not gated on bit size:
#: such a matrix gets a slow but true verdict, not an inconclusive one.
#: Exact-arithmetic matrices, whose denominators are usually small, use
#: the full guard limit instead.
CHARPOLY_FLOAT_CERTIFY_MAX_N = 30


class CheckState(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


class Verdict(enum.Enum):
    """Overall outcome of a certificate."""

    PASS = "pass"
    FAIL = "fail"
    #: No check failed, but no check that tells spectra apart ran either.
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerificationReport:
    """Tri-state outcome of each certification check plus the worst residual."""

    nonneg_ok: CheckState
    structure_ok: CheckState
    charpoly_ok: CheckState
    eigenpair_ok: CheckState
    max_residual: float
    tolerances: Tolerances

    @property
    def checks(self) -> dict[str, CheckState]:
        """Each check's state, keyed by its name in JSON and CLI output."""
        return {
            "nonneg": self.nonneg_ok,
            "structure": self.structure_ok,
            "charpoly": self.charpoly_ok,
            "eigenpairs": self.eigenpair_ok,
        }

    @property
    def verdict(self) -> Verdict:
        """Fail if any check failed; pass only if a spectral check passed.

        Nonnegativity and structure cannot tell two spectra apart, so
        without a charpoly or eigenpair check the verdict is inconclusive.
        """
        if CheckState.FAIL in self.checks.values():
            return Verdict.FAIL
        if CheckState.PASS in (self.charpoly_ok, self.eigenpair_ok):
            return Verdict.PASS
        return Verdict.INCONCLUSIVE

    @property
    def passed(self) -> bool:
        """True only for a pass verdict."""
        return self.verdict is Verdict.PASS

    def to_json_obj(self) -> dict:
        return {
            **{name: state.value for name, state in self.checks.items()},
            "max_residual": self.max_residual,
            "tolerances": {
                "absolute": self.tolerances.absolute,
                "relative": self.tolerances.relative,
            },
            "verdict": self.verdict.value,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Realization:
    """A constructed matrix, its target spectrum, and how it was built.

    ``params["blocks"]``, a list of (start, PermTuple) diagonal blocks,
    records the structure that certify checks; the method is a label.
    """

    matrix: DenseMatrix
    method: str
    target: Spectrum
    params: dict = field(default_factory=dict)
    certificate: Optional[VerificationReport] = None

    def __post_init__(self):
        if not self.matrix.is_square:
            raise NotSquareError("a Realization's matrix must be square")
        if self.matrix.n_rows != self.target.n:
            raise DimensionMismatchError(
                f"matrix order {self.matrix.n_rows} != spectrum size "
                f"{self.target.n}"
            )

    def with_certificate(self, report: VerificationReport) -> "Realization":
        return replace(self, certificate=report)


def detect_blocks(M: DenseMatrix) -> list[tuple[int, int]]:
    """Finest contiguous block-diagonal decomposition at M's exact zeros.

    Returns half-open index ranges (start, stop).  An entry couples indices
    i and j when M[i,j] != 0 or M[j,i] != 0 (0.0 and -0.0 both count as
    zero); blocks are the contiguous ranges closed under coupling.  The
    zero matrix decomposes into n 1x1 blocks.

    A matrix whose corner entry (0, n-1) or (n-1, 0) is nonzero is one
    block, read off those two entries.  Otherwise one pass over the n^2
    entries: each index's farthest coupled index is the last nonzero of
    its row or of its column, and a block closes at i when no index up to
    i couples past it (a running maximum).
    """
    if not M.is_square:
        raise NotSquareError(
            f"block detection needs a square matrix, got {M.n_rows}x{M.n_cols}"
        )
    A = M.data
    n = len(A)
    if n == 0:
        return []
    if A[0, -1] != 0 or A[-1, 0] != 0:
        return [(0, n)]
    nz = A != 0
    idx = np.arange(n)
    last_in_row = n - 1 - nz[:, ::-1].argmax(axis=1)
    last_in_col = n - 1 - nz[::-1].argmax(axis=0)
    # argmax finds no nonzero in an all-zero row or column; idx covers them
    far = np.maximum.reduce([
        idx,
        np.where(nz[idx, last_in_row], last_in_row, 0),
        np.where(nz[last_in_col, idx], last_in_col, 0),
    ])
    stops = (np.flatnonzero(np.maximum.accumulate(far) == idx) + 1).tolist()
    return list(zip([0] + stops[:-1], stops))


def _alpha_identification_residual(
    x: np.ndarray, blocks: list[tuple[int, PermTuple]], target: Spectrum
) -> Fraction:
    """Largest gap between the alpha blocks' exact eigenvalues and the target.

    x holds the blocks' first rows end to end (the blocks tile the
    matrix).  The alpha matrix with first row x has the eigenvalues sum(x)
    and x_0 - x_i (i >= 1), for every x, so a matrix that is exactly the
    direct sum of the alpha layouts of its blocks' first rows has exactly
    those values as its spectrum.  The first rows and the target are lifted
    to integers over one denominator D (integer_lift: an int64 array when
    no sum or difference below can overflow, else Python ints), each
    block's eigenvalues are formed there, and the two sorted arrays are
    compared entry by entry: the result is max |mu_k - l_k| as an exact
    Fraction, the same for either lift and for float64 and Fraction
    entries alike.
    """
    n = len(x)
    B, D = integer_lift(np.concatenate([x, target.values]))
    rows, want = B[:n], B[n:]
    lengths = [pt.n for _, pt in blocks]
    starts = list(accumulate(lengths[:-1], initial=0))
    eig = rows[np.repeat(starts, lengths)] - rows
    eig[starts] = np.add.reduceat(rows, starts)
    # timsort: both sides arrive nearly ordered, and numpy's default sort
    # of an object array compares about ten times as often
    gap = np.abs(np.sort(eig, kind="stable") - np.sort(want, kind="stable")).max()
    return Fraction(int(gap), D)


def certify(r: Realization, tol: Optional[Tolerances] = None) -> VerificationReport:
    """Run every applicable check on a Realization; failures are reported.

    Structure has one rule: the stored entries are the blocks' layout
    exactly (linalg.layout_holds: float64 entries bit for bit, exact ones
    as equal Fractions), so a matrix one ulp off its pattern is not
    permutative.  The blocks a realization records in ``params["blocks"]``,
    or else those its matrix was built as (DenseMatrix.layout), must hold:
    blocks equal to that layout hold by construction, any others by
    layout_holds.  A matrix without either (a file given to verify, say)
    is split at its exact zeros (detect_blocks); when every part is the
    alpha layout of its first row, those alpha blocks count as recorded.
    Otherwise structure is informational: pass when every part is
    permutative (is_permutative), not-applicable otherwise.  One spectral
    check runs, and both follow one rule, "exact residual <= tol.band(scale)":

    - alpha evidence (blocks that all have the alpha pattern and hold):
      the blocks' exact eigenvalues, read off their first rows, against
      the target (_alpha_identification_residual), at scale
      target.scale(), at every size, direct sums included; charpoly is
      not-applicable;
    - otherwise, the exact characteristic polynomial's coefficients
      against the target's, max |p_k - q_k| at scale max(1, largest
      |coefficient| of either), up to n = 30 in float mode (n = 64 in
      exact mode; see CHARPOLY_FLOAT_CERTIFY_MAX_N);
    - otherwise neither runs, and the verdict is inconclusive, never pass.

    max_residual is that exact residual, rounded to a float.  Structure
    takes no tolerance; bands apply to nonnegativity, at scale max(1,
    largest |entry|), and to the spectral comparisons.  Every band is
    formed in its scale's own arithmetic (Tolerances.band), so exact
    magnitudes beyond the float range get finite bands.  Nonnegativity and
    structure are numpy operations over at most the n^2 entries, and the
    identification is O(n) integer numpy work, one code path for float64
    and Fraction entries alike: on int64 arrays when the lifted values are
    small enough not to overflow, else on arrays of Python ints, with the
    same exact Fraction, verdict and max_residual either way.  On a matrix
    stored as its blocks, the scale, nonnegativity and the identification
    read the stored first rows, which hold every value; only other blocks,
    detect_blocks and the charpoly read its n x n array.
    """
    if tol is None:
        tol = Tolerances.exact() if r.matrix.is_exact else Tolerances()
    M = r.matrix
    n = M.n_rows
    entry_scale = max(1.0, M.max_abs())
    entry_band = tol.band(entry_scale)

    nonneg = CheckState.PASS if is_nonnegative(M, entry_band) else CheckState.FAIL

    blocks = r.params.get("blocks") or M.layout
    stored = blocks and tuple(blocks) == M.layout
    if blocks:
        ok = stored or layout_holds(M.data, blocks)
        structure = CheckState.PASS if ok else CheckState.FAIL
    else:
        # Read the blocks off the exact zeros: alpha blocks that hold count
        # as recorded; otherwise report permutative parts, but do not fail
        # a matrix that never claimed them.
        split = detect_blocks(M)
        blocks = [(a, alpha_tuple(b - a)) for a, b in split]
        A = M.data
        if layout_holds(A, blocks):
            structure = CheckState.PASS
        else:
            blocks = None
            ok = all(is_permutative(DenseMatrix(A[a:b, a:b])) for a, b in split)
            structure = CheckState.PASS if ok else CheckState.NOT_APPLICABLE

    def judge(res: Fraction, scale: Scalar) -> CheckState:
        # The one rule of both spectral checks.
        return CheckState.PASS if res <= tol.band(scale) else CheckState.FAIL

    charpoly = eig = CheckState.NOT_APPLICABLE
    res = Fraction(0)
    if blocks and structure is CheckState.PASS and all(pt.is_alpha for _, pt in blocks):
        # The paper's closed form is the spectral evidence at every n: the
        # stored blocks' spectrum is exactly their first rows' closed form.
        if stored:
            x = M.first_rows
        else:
            starts = np.repeat([a for a, _ in blocks], [pt.n for _, pt in blocks])
            x = M.data[starts, np.arange(n)]
        res = _alpha_identification_residual(x, blocks, r.target)
        eig = judge(res, r.target.scale())
    elif n <= (CHAR_POLY_MAX_N if M.is_exact else CHARPOLY_FLOAT_CERTIFY_MAX_N):
        # char_poly is exact for float entries too, so the residual is the
        # matrix's true coefficient deviation, not float Faddeev-LeVerrier
        # noise; its band is at the largest coefficient of either side.
        p = char_poly(M)
        q = poly_from_roots(make_spectrum(r.target.values, exact=True))
        res = max(abs(a - b) for a, b in zip(p, q))
        charpoly = judge(res, max(1, *map(abs, p), *map(abs, q)))

    return VerificationReport(
        nonneg_ok=nonneg,
        structure_ok=structure,
        charpoly_ok=charpoly,
        eigenpair_ok=eig,
        max_residual=float_or_inf(res),
        tolerances=tol,
    )
