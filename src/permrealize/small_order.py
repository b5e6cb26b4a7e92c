"""Closed-form realizations for every realizable spectrum with n <= 4.

Every spectrum of size at most 4 that passes the gate (spectrum.
require_necessary) is realized by a permutative matrix or a direct sum of
permutative matrices, in closed form.  On the sorted values l1 >= ... >= ln,
compared within the gate's band, the first rule that applies is taken:

  1. n >= 3 and l2 <= 0: one alpha (Suleimanova) matrix;
  2. n = 4 and the quarter sums a, b, c, d = (l1 +- l2 +- l3 +- l4)/4 are
     all >= 0: the group-pattern matrix [[a,b,c,d],[b,a,d,c],[c,d,a,b],
     [d,c,b,a]] with eigenvalues exactly (l1, l2, l3, l4);
  3. otherwise one alpha block per outside-in pair (l1, ln), (l2, ln-1),
     ..., plus [l_m] for the middle entry when n is odd.

Rule 3's blocks are admissible (a rejection raises InternalCaseGapError):
a pair (p, q) with p >= q needs p + q >= 0, and [l_m] needs l_m >= 0.  At
n <= 2 that is the gate's sum.  At n = 3 rule 1 failed, so l2 > 0, and
l1 + l3 >= 0 by the Perron condition.  At n = 4, a = s_1/4 >= 0 and the
sort order gives b, c >= 0, so rule 2 fails only on d < 0, i.e.
l2 + l3 > l1 + l4 >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import DimensionOutOfRangeError, InternalCaseGapError, NotSuleimanovaError
from .linalg import PermTuple, assemble
from .spectrum import Spectrum, require_necessary
from .suleimanova import alpha_direct_sum, realize_suleimanova
from .verify import METHOD_SMALL_ORDER, Realization

Scalar = Union[float, Fraction]

# Case tags recorded in Realization params.
CASE_N1 = "N1"
CASE_N2 = "N2"
CASE_N3_DIRECT_SUM = "N3-DirectSum"
CASE_N3_SULEIMANOVA = "N3-Suleimanova"
CASE_N4_SULEIMANOVA = "N4-Suleimanova"
CASE_N4_GROUP = "N4-Group"
CASE_N4_PAIRED = "N4-PairedDirectSum"

#: The case tag of rule 1 and of rule 3 at each order.
_SULEIMANOVA_CASE = {3: CASE_N3_SULEIMANOVA, 4: CASE_N4_SULEIMANOVA}
_PAIRED_CASE = {1: CASE_N1, 2: CASE_N2, 3: CASE_N3_DIRECT_SUM, 4: CASE_N4_PAIRED}

#: The Klein-group pattern of the N4-Group case.
GROUP_TUPLE = PermTuple(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


def quarter_sums(
    l1: Scalar, l2: Scalar, l3: Scalar, l4: Scalar
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(a, b, c, d) = (l1 +- l2 +- l3 +- l4)/4 in the group-form sign pattern.

    The inverse map is the same sign pattern without the division:
    l1 = a+b+c+d, l2 = a+b-c-d, l3 = a-b+c-d, l4 = a-b-c+d.
    """
    exact = all(isinstance(v, Fraction) for v in (l1, l2, l3, l4))
    q: Scalar = Fraction(1, 4) if exact else 0.25
    a = (l1 + l2 + l3 + l4) * q
    b = (l1 + l2 - l3 - l4) * q
    c = (l1 - l2 + l3 - l4) * q
    d = (l1 - l2 - l3 + l4) * q
    return a, b, c, d


def realize_small(sigma: Spectrum) -> Realization:
    """Realize any spectrum with 1 <= n <= 4 that passes the gate (rules above)."""
    band = require_necessary(sigma)
    n = sigma.n
    if n > 4:
        raise DimensionOutOfRangeError(
            f"closed-form small-order realization needs n <= 4, got {n}"
        )
    v = sigma.values
    if n >= 3 and v[1] <= band:
        return realize_suleimanova(sigma, _SULEIMANOVA_CASE[n])
    if n == 4:
        q = quarter_sums(*v)
        if min(q) >= -band:
            return Realization(
                matrix=assemble(GROUP_TUPLE, q),
                method=METHOD_SMALL_ORDER,
                target=sigma,
                params={"case": CASE_N4_GROUP, "blocks": [(0, GROUP_TUPLE)]},
            )
    groups = [(v[i], v[-1 - i]) for i in range(n // 2)] + [(v[n // 2],)] * (n % 2)
    try:
        return alpha_direct_sum(groups, METHOD_SMALL_ORDER, sigma, _PAIRED_CASE[n])
    except NotSuleimanovaError as e:
        raise InternalCaseGapError(
            f"the outside-in direct sum rejected spectrum {v}: {e}"
        ) from e
