"""Companion-matrix baseline realization.

The companion matrix of p(t) = prod (t - l_k) always has spectrum sigma;
it is entrywise nonnegative exactly when every non-leading coefficient c_k
is nonpositive.  By Descartes' rule of signs p then has exactly one
positive root, so the spectrum is Suleimanova and the alpha matrix already
realizes it: ``auto`` relies on alpha, and this matrix is built only when
asked for by name (method "companion", as the bench baseline is).  Coefficients
come from the O(n^2) one-root-at-a-time expansion; the exponential cost
sometimes associated with this route applies only to naive enumeration of
all root subsets, not to the incremental recurrence used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import DenseMatrix, from_rows, poly_from_roots
from .spectrum import Scalar, Spectrum
from .verify import METHOD_COMPANION, Realization


@dataclass(frozen=True)
class CompanionRealization:
    """Companion form of the target's characteristic polynomial.

    ``poly`` holds its degree-ascending coefficients c_0 .. c_n
    (poly_from_roots).  Orientation: subdiagonal of ones, coefficients in
    the last column (entry (i, n-1) is -c_i for i < n).
    """

    poly: tuple[Scalar, ...]
    matrix: DenseMatrix


def realize_companion(sigma: Spectrum) -> CompanionRealization:
    """Companion matrix of prod (t - l_k); works for any real spectrum."""
    poly = poly_from_roots(sigma)
    n = sigma.n
    exact = sigma.is_exact
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = one
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return CompanionRealization(poly=poly, matrix=from_rows(rows, exact=exact))


def as_realization(cr: CompanionRealization, sigma: Spectrum) -> Realization:
    """Wrap a companion construction for the shared certification path."""
    return Realization(matrix=cr.matrix, method=METHOD_COMPANION, target=sigma)
