"""Alpha-matrix realizations: the paper's first row, one block or a direct sum.

The alpha pattern is the permutative matrix whose row i is the first row x
with positions 1 and i swapped.  It has the explicit eigensystem s = sum(x)
(eigenvector e) and d_i = x_1 - x_i (eigenvector x_i everywhere except
x_1 - s at position i), so for any real target lambda with sum s the first
row

    x = (s/n, s/n - l_2, ..., s/n - l_n)

gives exactly the spectrum lambda, and the matrix is a realization iff x is
nonnegative: iff s >= 0 and every l_i <= s/n (i >= 2).  That test is the
formula's whole applicability condition: a spectrum that fails the gate
(spectrum.require_necessary) fails it too, but only the gate says so.
Suleimanova spectra (exactly one positive entry, nonnegative sum) always
pass.  The vector x solves M_n x = lambda for the bordered matrix
M_n = [[1, e^T], [e, -I]], whose inverse is (1/n) [[1, e^T], [e, J - nI]];
the tests check both, but the realization itself uses the O(n) formula.

The paper's other construction, a direct sum of such blocks, is
alpha_direct_sum: one alpha block per group of target values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotSuleimanovaError
from .linalg import alpha_tuple, assemble_blocks
from .spectrum import Scalar, Spectrum, running_sum, value_band
from .verify import METHOD_SULEIMANOVA, Realization


def suleimanova_first_row(values) -> tuple[Scalar, ...]:
    """x = (s/n, s/n - l_2, ..., s/n - l_n) for values l (a Spectrum or a sequence).

    Exact for Fractions.  For floats a sum s within ``value_band(|l_1|)``
    counts as exactly 0, so a zero-trace row is (0, -l_2, ..., -l_n) bit
    for bit, and a sum that overflows partway gives s/n as the exact
    s/n, rounded (running_sum).
    """
    values = tuple(values)
    s = running_sum(values)
    if isinstance(values[0], Fraction):
        m = s / len(values)
    elif abs(s) <= value_band(abs(values[0])):
        m = 0.0
    else:
        m = float(s / len(values))
    return (m,) + tuple(m - v for v in values[1:])


def alpha_direct_sum(
    groups: Sequence[Sequence[Scalar]],
    method: str,
    target: Spectrum,
    case: Optional[str] = None,
) -> Realization:
    """The direct sum of one alpha block per group of values, in order,
    built from the blocks' first rows (assemble_blocks).

    Each block's first row is suleimanova_first_row of its group, so the
    blocks' spectra together are the groups' values.  ``case`` is the
    Realization's case tag.  A first row with an entry below
    ``-value_band(|head|)`` raises NotSuleimanovaError: that group has no
    alpha realization.
    """
    patterns, rows = [], []
    for g in groups:
        x = suleimanova_first_row(g)
        if min(x) < -value_band(abs(g[0])):
            raise NotSuleimanovaError(
                f"an alpha block needs every l_i <= s/n = {x[0]} (i >= 2) and "
                f"s >= 0, but its first row has the negative entry {min(x)}"
            )
        patterns.append(alpha_tuple(len(x)))
        rows += x
    matrix = assemble_blocks(patterns, rows)
    return Realization(matrix=matrix, method=method, target=target, case=case)


def realize_suleimanova(sigma: Spectrum, case: Optional[str] = None) -> Realization:
    """Realize sigma by one alpha matrix whenever its first row is nonnegative.

    Float spectra are compared within ``value_band(|l_1|)`` (a sum within
    it counts as 0); exact spectra with no band.  A first row with a
    negative entry (s < 0, or some l_i > s/n) raises NotSuleimanovaError,
    which says only that the formula does not apply.  ``case`` is recorded
    as in alpha_direct_sum.
    """
    return alpha_direct_sum([sigma.values], METHOD_SULEIMANOVA, sigma, case)


#: The old name of the zero-trace case, which is the alpha matrix with s = 0.
realize_zero_trace = realize_suleimanova
