"""Permutative realizations of Suleimanova spectra.

A Suleimanova spectrum (exactly one positive entry, nonnegative sum) is
always realizable, and the realizing matrix can be written down in closed
form: it is the alpha-pattern permutative matrix whose row i is the first
row x with positions 1 and i swapped.  Such a matrix has the explicit
eigensystem s = sum(x) (eigenvector e) and d_i = x_1 - x_i (eigenvector
x_i everywhere except x_1 - s at position i), so choosing

    x = (1/n) * (s_1, s_1 - n*l_2, ..., s_1 - n*l_n)

hits any prescribed Suleimanova target exactly, with every entry
nonnegative.  The vector x solves M_n x = lambda for the bordered matrix
M_n = [[1, e^T], [e, -I]], whose inverse is (1/n) [[1, e^T], [e, J - nI]];
both are provided as testable statements, but the realization itself uses
the O(n) formula directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import (
    DimensionTooSmallError,
    NegativeTraceError,
    NotSuleimanovaError,
    NotZeroTraceError,
)
from .linalg import DenseMatrix, alpha_tuple, assemble, from_rows
from .spectrum import CLASSIFY_TOL, Spectrum, SpectrumKind, classify, is_all_zero
from .verify import METHOD_SULEIMANOVA, METHOD_ZERO_TRACE, Realization

Scalar = Union[float, Fraction]


def mn_matrix(n: int, exact: bool = False) -> DenseMatrix:
    """The bordered matrix M_n = [[1, e^T], [e, -I]] (n >= 2)."""
    if n < 2:
        raise DimensionTooSmallError(f"mn_matrix needs n >= 2, got {n}")
    one: Scalar = Fraction(1) if exact else 1.0
    zero: Scalar = Fraction(0) if exact else 0.0
    rows = [[one] * n]
    for i in range(1, n):
        row = [zero] * n
        row[0] = one
        row[i] = -one
        rows.append(row)
    return from_rows(rows, exact=exact)


def mn_inverse(n: int, exact: bool = False) -> DenseMatrix:
    """Closed-form inverse (1/n) [[1, e^T], [e, J - nI]] of mn_matrix(n)."""
    if n < 2:
        raise DimensionTooSmallError(f"mn_inverse needs n >= 2, got {n}")
    if exact:
        inv_n = Fraction(1, n)
        diag = Fraction(1 - n, n)
    else:
        inv_n = 1.0 / n
        diag = (1.0 - n) / n
    rows = [[inv_n] * n]
    for i in range(1, n):
        row = [inv_n] * n
        row[i] = diag
        rows.append(row)
    return from_rows(rows, exact=exact)


def suleimanova_first_row(sigma: Spectrum) -> tuple[Scalar, ...]:
    """x = (1/n)(s_1, s_1 - n*l_2, ..., s_1 - n*l_n), computed in O(n)."""
    n = sigma.n
    s1 = sigma.trace
    exact = sigma.is_exact
    if exact:
        inv_n = Fraction(1, n)
        return (s1 * inv_n,) + tuple(
            (s1 - n * v) * inv_n for v in sigma.values[1:]
        )
    fn = float(n)
    return (s1 / fn,) + tuple((s1 - fn * v) / fn for v in sigma.values[1:])


def _alpha_realization(x: tuple[Scalar, ...], method: str, sigma: Spectrum) -> Realization:
    pt = alpha_tuple(len(x))
    return Realization(
        matrix=assemble(pt, x),
        method=method,
        target=sigma,
        params={"x": x, "blocks": [(0, pt)]},
    )


def realize_suleimanova(sigma: Spectrum) -> Realization:
    """Realize a Suleimanova spectrum by one permutative matrix.

    The target must have exactly one positive entry (the first, since
    spectra are sorted descending) and nonnegative sum; the all-zero
    spectrum is accepted and yields the zero matrix.  A negative sum raises
    NegativeTraceError, a necessary-condition failure; any other spectrum
    raises NotSuleimanovaError, which says only that the formula does not
    apply.
    """
    cls = classify(sigma)
    admissible = cls.kind in (
        SpectrumKind.SULEIMANOVA,
        SpectrumKind.ZERO_TRACE_SULEIMANOVA,
    )
    # The all-zero spectrum is admitted as the degenerate boundary case:
    # the construction yields the zero matrix.
    if not admissible and not is_all_zero(sigma):
        if cls.trace < -CLASSIFY_TOL.band(abs(sigma.values[0])):
            raise NegativeTraceError(
                f"the spectrum's sum {cls.trace} is negative, so no "
                "nonnegative matrix realizes it"
            )
        raise NotSuleimanovaError(
            "a Suleimanova spectrum needs exactly one positive entry and "
            f"nonnegative sum; got {cls.positives} positive entries with "
            f"sum {cls.trace}"
        )
    return _alpha_realization(suleimanova_first_row(sigma), METHOD_SULEIMANOVA, sigma)


def realize_zero_trace(sigma: Spectrum) -> Realization:
    """Zero-trace specialization: x = (0, -l_2, ..., -l_n), zero diagonal.

    Agrees entrywise with realize_suleimanova on its domain; kept separate
    because the zero-diagonal form is a statement worth testing on its own.
    """
    cls = classify(sigma)
    if cls.kind is not SpectrumKind.ZERO_TRACE_SULEIMANOVA and not is_all_zero(
        sigma
    ):
        raise NotZeroTraceError(
            "zero-trace realization needs a Suleimanova spectrum with zero "
            f"sum; classification is {cls.kind.value} with sum {cls.trace}"
        )
    zero: Scalar = Fraction(0) if sigma.is_exact else 0.0
    x = (zero,) + tuple(-v for v in sigma.values[1:])
    return _alpha_realization(x, METHOD_ZERO_TRACE, sigma)
