"""Certification of realizations without any general eigensolver.

A certificate is assembled from four checks: entrywise nonnegativity,
structure (permutativity of the matrix or of each direct-sum block),
characteristic-polynomial coefficient matching against the target spectrum,
and — for alpha-pattern permutative matrices — closed-form eigenpair
residuals ||P v - d v||_inf together with the row-sum eigenpair P e = s e.
Checks that do not apply to a given construction are reported as
not-applicable rather than silently passed, and a certificate on which
neither spectral check (charpoly, eigenpairs) ran is inconclusive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NotSquareError
from .linalg import (
    CHAR_POLY_MAX_N,
    DenseMatrix,
    char_poly,
    is_nonnegative,
    is_permutative,
    max_coeff_diff,
    poly_from_roots,
    polys_close,
)
from .spectrum import Spectrum, Tolerances, float_or_inf, make_spectrum

# Method tags attached to Realizations by the construction modules.
METHOD_SULEIMANOVA = "suleimanova-permutative"
METHOD_ZERO_TRACE = "zero-trace-permutative"
METHOD_SMALL_ORDER = "small-order"
METHOD_COMPANION = "companion"
METHOD_EXPLORER = "explorer-permutative"

#: Methods whose output is a single alpha-pattern permutative matrix with a
#: closed-form eigensystem determined by its first row.
_ALPHA_METHODS = frozenset({METHOD_SULEIMANOVA, METHOD_ZERO_TRACE})

#: Methods whose output is permutative as a whole matrix.
_WHOLE_PERMUTATIVE_METHODS = _ALPHA_METHODS | {METHOD_EXPLORER}

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
    """A constructed matrix, its target spectrum, and how it was built."""

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


def _submatrix(M: DenseMatrix, start: int, stop: int) -> DenseMatrix:
    return DenseMatrix(M.data[start:stop, start:stop].copy())


def _alpha_eigensystem_residuals(
    M: DenseMatrix, target: Spectrum
) -> list[tuple[float, float]]:
    """(residual, scale) pairs certifying the first-row closed eigensystem.

    For an alpha-pattern matrix P with first row x and s = sum(x), checks
    P e = s e, P v_i = d_i v_i for the closed-form eigenvectors v_i (entries
    x_i except x_1 - s at position i, d_i = x_1 - x_i), and that {s, d_i}
    reproduces the target spectrum.  Each residual is paired with the
    magnitude scale its tolerance band should use.
    """
    x = M.data[0]
    n = M.n_rows
    s = sum(x[1:], start=x[0])
    x_inf = float_or_inf(np.abs(x).max())
    pair_scale = max(1.0, x_inf * x_inf)
    deltas = x[0] - x[1:]
    out: list[tuple[float, float]] = []

    # Row-sum eigenpair P e = s e.
    rs_res = float_or_inf(np.abs(M.data.sum(axis=1) - s).max())
    out.append((rs_res, pair_scale))

    if n > 1:
        # All v_i as columns of one matrix: the column for eigenvalue
        # d_i = x_1 - x_i is constant x_i except x_1 - s at position i;
        # P V should equal V scaled columnwise by the deltas.
        V = np.empty((n, n - 1), dtype=M.data.dtype)
        V[:] = x[1:]
        cols = np.arange(n - 1)
        V[cols + 1, cols] = x[0] - s
        resid = np.dot(M.data, V)
        V *= deltas
        resid -= V
        eig_res = float_or_inf(np.abs(resid, out=resid).max())
        out.append((eig_res, pair_scale))

    # Spectrum identification: {s} + deltas vs the target multiset.
    eigs = np.sort(np.concatenate(([s], deltas)))[::-1]
    id_res = float_or_inf(np.abs(eigs - np.asarray(target.values)).max())
    out.append((id_res, target.scale()))
    return out


def certify(r: Realization, tol: Optional[Tolerances] = None) -> VerificationReport:
    """Run every applicable check on a Realization; failures are reported.

    The structure check is strict for the construction methods (they promise
    permutativity of the whole matrix or of each block recorded in
    ``params["blocks"]``); for matrices of unknown origin it is
    informational — pass when the matrix decomposes into permutative
    diagonal blocks, not-applicable otherwise.  The exact characteristic
    polynomial is compared up to n = 30 in float mode (n = 64 in exact
    mode; see CHARPOLY_FLOAT_CERTIFY_MAX_N); alpha-pattern methods
    additionally get closed-form eigenpair residuals at every size.  When
    neither of those spectral checks runs, the report's verdict is
    inconclusive, never pass.

    Nonnegativity, structure and the eigenpair residuals are whole-array
    numpy operations over the n^2 entries, one code path for float64 and
    Fraction entries alike; magnitudes beyond the float range read as inf.
    """
    if tol is None:
        tol = Tolerances.exact() if r.matrix.is_exact else Tolerances()
    M = r.matrix
    n = M.n_rows
    entry_scale = max(1.0, M.max_abs())
    entry_band = tol.band(entry_scale)
    residuals: list[float] = [0.0]

    nonneg = CheckState.PASS if is_nonnegative(M, entry_band) else CheckState.FAIL

    if r.method in _WHOLE_PERMUTATIVE_METHODS:
        ok = is_permutative(M, entry_band)
        structure = CheckState.PASS if ok else CheckState.FAIL
    elif r.method == METHOD_SMALL_ORDER:
        blocks = r.params.get("blocks") or [(0, n)]
        ok = all(
            is_permutative(_submatrix(M, a, b), entry_band) for a, b in blocks
        )
        structure = CheckState.PASS if ok else CheckState.FAIL
    elif r.method == METHOD_COMPANION:
        structure = CheckState.NOT_APPLICABLE
    else:
        # Unknown origin: report permutative block structure when
        # present, but do not fail a matrix that never claimed it.
        blocks = detect_blocks(M, entry_band)
        ok = all(
            is_permutative(_submatrix(M, a, b), entry_band) for a, b in blocks
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

    if r.method in _ALPHA_METHODS:
        eig = CheckState.PASS
        for res, scale in _alpha_eigensystem_residuals(M, r.target):
            residuals.append(res)
            if res > tol.band(scale):
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
