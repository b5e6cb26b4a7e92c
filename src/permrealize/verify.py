"""Certification of realizations without any general eigensolver.

A certificate is assembled from four checks: entrywise nonnegativity,
structure (the permutative blocks a realization records, if any),
characteristic-polynomial coefficient matching against the target spectrum,
and — when every recorded block has the alpha pattern — closed-form eigenpair
residuals ||P v - d v||_inf together with the row-sum eigenpair P e = s e.
Checks that do not apply to a given realization are reported as
not-applicable rather than silently passed, and a certificate on which
neither spectral check (charpoly, eigenpairs) ran is inconclusive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NotSquareError
from .linalg import (
    CHAR_POLY_MAX_N,
    DenseMatrix,
    PermTuple,
    char_poly,
    closed_eigensystem_residuals,
    is_nonnegative,
    is_permutative,
    max_coeff_diff,
    poly_from_roots,
    polys_close,
)
from .spectrum import Scalar, Spectrum, Tolerances, float_or_inf, make_spectrum

# Method tags attached to Realizations by the construction modules.
METHOD_SULEIMANOVA = "suleimanova-permutative"
METHOD_SMALL_ORDER = "small-order"
METHOD_COMPANION = "companion"
METHOD_EXPLORER = "explorer-permutative"

#: Largest order at which a float matrix gets the characteristic-polynomial
#: check.  Float64 Faddeev-LeVerrier is numerically treacherous (its own
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


def detect_blocks(M: DenseMatrix, tol: float = 0.0) -> list[tuple[int, int]]:
    """Finest contiguous block-diagonal decomposition under threshold tol.

    Returns half-open index ranges (start, stop).  An entry couples indices
    i and j when |M[i,j]| > tol or |M[j,i]| > tol; blocks are the contiguous
    ranges closed under coupling.  The zero matrix decomposes into n 1x1
    blocks.

    Each index i of a block is scanned once, as one numpy comparison of
    row i and column i beyond the block's current end, and the scan stops
    once the block reaches n: a dense matrix costs one scan.
    """
    if not M.is_square:
        raise NotSquareError(
            f"block detection needs a square matrix, got {M.n_rows}x{M.n_cols}"
        )
    A = M.data
    n = M.n_rows
    ranges: list[tuple[int, int]] = []
    start = 0
    while start < n:
        end = start  # inclusive extent of the current block
        i = start
        while i <= end < n - 1:
            tail = end + 1
            coupled = (np.abs(A[i, tail:]) > tol) | (np.abs(A[tail:, i]) > tol)
            hits = np.flatnonzero(coupled)
            if hits.size:
                end = tail + int(hits[-1])
            i += 1
        ranges.append((start, end + 1))
        start = end + 1
    return ranges


def _near(a: np.ndarray, b, band: float) -> bool:
    d = a - b
    return bool((np.abs(d, out=d) <= band).all())


def _blocks_hold(A: np.ndarray, blocks: list[tuple[int, PermTuple]], band: float) -> bool:
    """True iff the recorded blocks hold within band.

    They must tile [0, n) in order, each block must be its first row laid
    out by its pattern, and every entry off the blocks must be zero.
    """
    pos = 0
    for start, pt in blocks:
        stop = start + pt.n
        if start != pos or stop > len(A):
            return False
        rows = A[start:stop]
        P = rows[:, start:stop]
        if not (
            _near(P, P[0][pt.index], band)
            and _near(rows[:, :start], 0, band)
            and _near(rows[:, stop:], 0, band)
        ):
            return False
        pos = stop
    return pos == len(A)


def _pow2_at_or_above(m) -> int:
    """The least e >= 0 with 2^e >= m, for a float or Fraction m >= 0."""
    p, q = m.as_integer_ratio()
    e = max(0, p.bit_length() - q.bit_length())
    return e + 1 if p > q << e else e


def _alpha_eigensystem_residuals(
    A: np.ndarray, blocks: list[tuple[int, PermTuple]], target: Spectrum, tol: Tolerances
) -> list[tuple[Scalar, Scalar]]:
    """(residual, band) pairs certifying each alpha block's closed eigensystem.

    For each block P with first row x, checks P e = s e and P v_i = d_i v_i
    for the closed-form eigenpairs of closed_eigensystem(x), in O(n^2)
    (closed_eigensystem_residuals); then that the blocks' eigenvalues
    {s, d_i} together reproduce the target spectrum, at the target's scale.

    The pair residuals are taken on t P with t = 2^-e, where 2^e is the
    least power of two >= max(1, |x|_inf), so every sum and product stays
    finite.  The row-sum residual scales by t and the eigenvector residual
    by t^2, and each is judged against tol.band(max(1, |x|_inf^2)) scaled
    the same way.  A power-of-two scaling is exact (Fractions, and floats
    short of the subnormal range), so the verdict is that of the unscaled
    block wherever its band is finite, and both sides stay finite.
    """
    exact = A.dtype == object
    absolute, relative = tol.absolute, tol.relative
    if exact:
        absolute, relative = Fraction(absolute), Fraction(relative)
    out: list[tuple[Scalar, Scalar]] = []
    eigs = []
    # The scaled residuals stay finite; an eigenvalue s / t or d_i / t
    # past the float range reads as inf.
    with np.errstate(over="ignore"):
        for start, pt in blocks:
            P = A[start : start + pt.n, start : start + pt.n]
            x_inf = np.abs(P[0]).max()
            e = _pow2_at_or_above(x_inf)
            t = Fraction(1, 1 << e) if exact else math.ldexp(1.0, -e)
            s, deltas, row_res, pair_res = closed_eigensystem_residuals(P * t)
            xt = x_inf * t
            out.append((np.abs(row_res).max(), max(absolute * t, relative * max(t, xt * x_inf))))
            if pair_res.size:
                band = max(absolute * t * t, relative * max(t * t, xt * xt))
                out.append((np.abs(pair_res, out=pair_res).max(), band))
            eigs.append(np.concatenate(([s], deltas)) / t)
    eigs = np.sort(np.concatenate(eigs))[::-1]
    id_res = np.abs(eigs - np.asarray(target.values)).max()
    out.append((id_res, tol.band(target.scale())))
    return out


def certify(r: Realization, tol: Optional[Tolerances] = None) -> VerificationReport:
    """Run every applicable check on a Realization; failures are reported.

    The structure check is strict for the blocks a realization records in
    ``params["blocks"]`` (see _blocks_hold); when they hold and all have
    the alpha pattern, closed-form eigenpair residuals run per block at
    every size, direct sums included.  Without recorded blocks it is
    informational — pass when the matrix decomposes into permutative
    diagonal blocks, not-applicable otherwise.  The exact characteristic
    polynomial is compared up to n = 30 in float mode (n = 64 in exact
    mode; see CHARPOLY_FLOAT_CERTIFY_MAX_N).  When neither of those
    spectral checks runs, the report's verdict is inconclusive, never pass.

    Nonnegativity, structure and the eigenpair residuals are whole-array
    numpy operations over the n^2 entries, one code path for float64 and
    Fraction entries alike; magnitudes beyond the float range read as inf.
    """
    if tol is None:
        tol = Tolerances.exact() if r.matrix.is_exact else Tolerances()
    M = r.matrix
    A = M.data
    n = M.n_rows
    entry_scale = max(1.0, M.max_abs())
    entry_band = tol.band(entry_scale)
    residuals: list[float] = [0.0]

    nonneg = CheckState.PASS if is_nonnegative(M, entry_band) else CheckState.FAIL

    blocks = r.params.get("blocks")
    if blocks:
        ok = _blocks_hold(A, blocks, entry_band)
        structure = CheckState.PASS if ok else CheckState.FAIL
    else:
        # No recorded structure: report permutative block structure when
        # present, but do not fail a matrix that never claimed it.
        ok = all(
            is_permutative(DenseMatrix(A[a:b, a:b]), entry_band)
            for a, b in detect_blocks(M, entry_band)
        )
        structure = CheckState.PASS if ok else CheckState.NOT_APPLICABLE

    charpoly_limit = (
        CHAR_POLY_MAX_N if M.is_exact else CHARPOLY_FLOAT_CERTIFY_MAX_N
    )
    if n <= charpoly_limit:
        # char_poly is exact for float entries too, so the comparison
        # measures the matrix's true coefficient deviation, not float
        # Faddeev-LeVerrier noise.
        p = char_poly(M)
        q = poly_from_roots(make_spectrum(r.target.values, exact=True))
        charpoly = (
            CheckState.PASS if polys_close(p, q, tol) else CheckState.FAIL
        )
        residuals.append(max_coeff_diff(p, q))
    else:
        charpoly = CheckState.NOT_APPLICABLE

    if blocks and structure is CheckState.PASS and all(pt.is_alpha for _, pt in blocks):
        eig = CheckState.PASS
        for res, band in _alpha_eigensystem_residuals(A, blocks, r.target, tol):
            residuals.append(float_or_inf(res))
            if res > band:
                eig = CheckState.FAIL
    else:
        eig = CheckState.NOT_APPLICABLE

    return VerificationReport(
        nonneg_ok=nonneg,
        structure_ok=structure,
        charpoly_ok=charpoly,
        eigenpair_ok=eig,
        max_residual=max(residuals),
        tolerances=tol,
    )
