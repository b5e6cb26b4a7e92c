"""Closed-form realizations for every realizable spectrum with n <= 4.

Every real spectrum of size at most 4 satisfying the necessary conditions
(nonnegative power sums; spectral radius attained by the largest entry) is
realized here by a permutative matrix or a direct sum of permutative
matrices, entirely in closed form:

  n = 1   [l1]                                            (l1 >= 0)
  n = 2   (1/2) [[l1+l2, l1-l2], [l1-l2, l1+l2]]          (l1 >= |l2|)
  n = 3   l2 > 0:  realize_2(l1, l3) (+) [l2]
          l2 <= 0: single permutative Suleimanova matrix
  n = 4   (i)  l2 <= 0: Suleimanova matrix
          (ii) quarter sums a,b,c,d = (l1 +- l2 +- l3 +- l4)/4 all >= 0:
               the group-pattern matrix [[a,b,c,d],[b,a,d,c],[c,d,a,b],
               [d,c,b,a]] with eigenvalues exactly (l1, l2, l3, l4)
          (iii) d < 0: realize_2(l1, l4) (+) realize_2(l2, l3)

Case analysis notes (enforced by assertion, see InternalCaseGapError):
under the preconditions, a = s_1/4 >= 0 and the sort order gives b, c >= 0,
so only d can be negative; and when d < 0, l2 + l3 > l1 + l4 >= 0, hence
l2 >= |l3| and both 2x2 blocks in (iii) are admissible.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Union

from .errors import (
    DimensionOutOfRangeError,
    InternalCaseGapError,
    NecessaryConditionViolationError,
    PerronViolationError,
)
from .linalg import PermTuple, alpha_tuple, assemble, direct_sum
from .spectrum import CLASSIFY_TOL, Spectrum, make_spectrum
from .suleimanova import realize_suleimanova
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

#: The Klein-group pattern of the N4-Group case.
GROUP_TUPLE = PermTuple(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


def _band(*values: Scalar) -> Scalar:
    """The classification band at the largest |value|, exact beyond floats."""
    return CLASSIFY_TOL.band(max(abs(v) for v in values))


def _check_preconditions(sigma: Spectrum) -> Scalar:
    """Shared n = 3, 4 preconditions; returns the tolerance band used.

    Values are compared as they are, so exact spectra beyond the float
    range are compared exactly.
    """
    band = _band(*sigma.values)
    if not sigma.trace >= -band:
        raise NecessaryConditionViolationError(
            f"spectrum sum must be nonnegative, got {sigma.trace}"
        )
    if sigma.spectral_radius - sigma.values[0] > band:
        raise PerronViolationError(
            "the largest entry must attain the spectral radius; "
            f"max entry {sigma.values[0]}, radius {sigma.spectral_radius}"
        )
    return band


def realize_2(l1: Scalar, l2: Scalar) -> Realization:
    """The 2 x 2 permutative realization of {l1, l2} (needs l1 >= |l2|)."""
    if l1 - abs(l2) < -_band(l1, l2):
        raise PerronViolationError(
            f"need l1 >= |l2| for a 2x2 nonnegative realization, got "
            f"({l1}, {l2})"
        )
    exact = isinstance(l1, Fraction) and isinstance(l2, Fraction)
    half: Scalar = Fraction(1, 2) if exact else 0.5
    pt = alpha_tuple(2)
    return Realization(
        matrix=assemble(pt, ((l1 + l2) * half, (l1 - l2) * half)),
        method=METHOD_SMALL_ORDER,
        target=make_spectrum([l1, l2], exact=exact),
        params={"case": CASE_N2, "blocks": [(0, pt)]},
    )


def realize_3(sigma: Spectrum) -> Realization:
    """n = 3 dispatch: block form when l2 > 0, else one permutative matrix."""
    if sigma.n != 3:
        raise DimensionOutOfRangeError(f"realize_3 needs n = 3, got {sigma.n}")
    band = _check_preconditions(sigma)
    l1, l2, l3 = sigma.values
    if l2 > band:
        head = realize_2(l1, l3)
        return Realization(
            matrix=direct_sum([head.matrix, assemble(alpha_tuple(1), (l2,))]),
            method=METHOD_SMALL_ORDER,
            target=sigma,
            params={
                "case": CASE_N3_DIRECT_SUM,
                "blocks": [(0, alpha_tuple(2)), (2, alpha_tuple(1))],
            },
        )
    r = realize_suleimanova(sigma)
    return replace(r, params={**r.params, "case": CASE_N3_SULEIMANOVA})


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


def realize_4(sigma: Spectrum) -> Realization:
    """n = 4 dispatch: Suleimanova, group form, or paired 2x2 direct sum."""
    if sigma.n != 4:
        raise DimensionOutOfRangeError(f"realize_4 needs n = 4, got {sigma.n}")
    band = _check_preconditions(sigma)
    l1, l2, l3, l4 = sigma.values

    if l2 <= band:
        r = realize_suleimanova(sigma)
        return replace(r, params={**r.params, "case": CASE_N4_SULEIMANOVA})

    a, b, c, d = quarter_sums(l1, l2, l3, l4)
    if min(a, b, c, d) >= -band:
        return Realization(
            matrix=assemble(GROUP_TUPLE, (a, b, c, d)),
            method=METHOD_SMALL_ORDER,
            target=sigma,
            params={"case": CASE_N4_GROUP, "blocks": [(0, GROUP_TUPLE)]},
        )

    # d < 0 here; a, b, c are nonnegative by the ordering, and
    # l2 + l3 > l1 + l4 >= 0 makes both pairs below admissible.  A trip of
    # either check means the case analysis above is wrong, not the input.
    try:
        head = realize_2(l1, l4)
        tail = realize_2(l2, l3)
    except PerronViolationError as e:
        raise InternalCaseGapError(
            f"paired direct-sum branch rejected spectrum {sigma.values}: {e}"
        ) from e
    return Realization(
        matrix=direct_sum([head.matrix, tail.matrix]),
        method=METHOD_SMALL_ORDER,
        target=sigma,
        params={
            "case": CASE_N4_PAIRED,
            "blocks": [(0, alpha_tuple(2)), (2, alpha_tuple(2))],
        },
    )


def realize_small(sigma: Spectrum) -> Realization:
    """Realize any admissible spectrum with 1 <= n <= 4."""
    n = sigma.n
    if not 1 <= n <= 4:
        raise DimensionOutOfRangeError(
            f"closed-form small-order realization needs n <= 4, got {n}"
        )
    if n == 1:
        l1 = sigma.values[0]
        if l1 < -_band(l1):
            raise PerronViolationError(
                f"a 1x1 nonnegative matrix needs l1 >= 0, got {l1}"
            )
        pt = alpha_tuple(1)
        return Realization(
            matrix=assemble(pt, (l1,)),
            method=METHOD_SMALL_ORDER,
            target=sigma,
            params={"case": CASE_N1, "blocks": [(0, pt)]},
        )
    if n == 2:
        return realize_2(*sigma.values)
    if n == 3:
        return realize_3(sigma)
    return realize_4(sigma)
