"""Target spectra: representation, necessary realizability checks, classification.

A spectrum here is an ordered multiset of real eigenvalue targets, stored
sorted descending.  Two classical necessary conditions for realizability by
an entrywise nonnegative matrix are checked: all power sums s_k = sum(l_i^k)
must be nonnegative, and the spectral radius max|l_i| must itself appear in
the spectrum (as a nonnegative value).  ``require_necessary`` is the gate
in front of every construction; spectrum values compare within ``value_band``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .errors import (
    EmptyInputError,
    NecessaryConditionViolationError,
    NonFiniteEntryError,
    PerronViolationError,
)

Scalar = Union[float, Fraction]

#: Depth at which the all-k power-sum condition is truncated by default.
DEFAULT_POWER_DEPTH = 50


def float_or_inf(v) -> float:
    """float(v), or +-inf when an exact value lies beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def running_sum(values) -> Scalar:
    """The sum of a sequence, left to right; when a float sum is not finite
    (it overflowed partway, though every value is finite), the exact sum
    as a Fraction instead."""
    s = sum(values[1:], start=values[0])
    if isinstance(s, float) and not math.isfinite(s):
        return sum(map(Fraction, values), start=Fraction(0))
    return s


@dataclass(frozen=True)
class Tolerances:
    """Mixed absolute/relative tolerance profile threaded through all checks.

    The band at a given magnitude ``scale`` is ``max(absolute, relative *
    scale)``, formed in the scale's own arithmetic: exactly, as a
    Fraction, for a Fraction scale, and in float64 for a float one, so an
    exact scale beyond the float range gets a finite band.
    ``Tolerances.exact()`` is the all-zero profile used with Fraction
    arithmetic, where every comparison must hold exactly.  Both values must
    be finite and >= 0 (ValueError otherwise): a negative band fails an
    exact match, and an infinite one accepts everything.
    """

    absolute: float = 1e-10
    relative: float = 1e-9

    def __post_init__(self):
        a, r = self.absolute, self.relative
        if not (math.isfinite(a) and math.isfinite(r) and a >= 0 and r >= 0):
            raise ValueError(
                f"tolerances must be finite and >= 0, got abs {a!r}, rel {r!r}"
            )

    @staticmethod
    def exact() -> "Tolerances":
        return Tolerances(absolute=0.0, relative=0.0)

    def band(self, scale: Scalar) -> Scalar:
        """max(absolute, relative * scale), exact for a Fraction scale."""
        if isinstance(scale, Fraction):
            return max(Fraction(self.absolute), Fraction(self.relative) * scale)
        return max(self.absolute, self.relative * scale)


#: The band used to call a float entry "positive" or a float trace "zero",
#: and to check the necessary conditions: 1e-12 * max(1, magnitude).
CLASSIFY_TOL = Tolerances(1e-12, 1e-12)


def value_band(m: Scalar) -> Scalar:
    """The band for comparing spectrum values at magnitude m: 0 for an
    exact (Fraction) m, at any magnitude; ``CLASSIFY_TOL.band(m)`` for a float."""
    return 0 if isinstance(m, Fraction) else CLASSIFY_TOL.band(m)


class SpectrumKind(enum.Enum):
    """The shape of a spectrum that ``permrealize check`` reports.

    Informational: the dispatch tries its constructions directly (see
    dispatch.realize), so no method is chosen by kind.
    """

    SULEIMANOVA = "suleimanova"
    ZERO_TRACE_SULEIMANOVA = "zero-trace-suleimanova"
    SMALL_ORDER = "small-order"
    ALL_NONNEGATIVE = "all-nonnegative"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Spectrum:
    """Immutable multiset of real eigenvalue targets, sorted descending."""

    values: tuple[Scalar, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        """True when every entry is a Fraction (exact-arithmetic mode)."""
        return all(isinstance(v, Fraction) for v in self.values)

    @cached_property
    def trace(self) -> Scalar:
        """s_1: the sum of the targets, in sorted order (running_sum); a
        float sum that overflows partway is the exact sum, rounded."""
        s = running_sum(self.values)
        return s if self.is_exact else float_or_inf(s)

    @cached_property
    def spectral_radius(self) -> Scalar:
        return max(abs(v) for v in self.values)

    def scale(self) -> Scalar:
        """max(1, |l_1|), the reference magnitude for tolerance bands, in
        l_1's own arithmetic: a Fraction for an exact spectrum."""
        m = abs(self.values[0])
        return max(type(m)(1), m)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class Classification:
    kind: SpectrumKind
    positives: int
    trace: Scalar


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the necessary-condition checks, truncated at depth K."""

    power_sums: tuple[Scalar, ...]
    power_sum_ok: bool
    perron_ok: bool
    spectral_radius: Scalar
    K: int


def make_spectrum(raw: Iterable, exact: bool = False) -> Spectrum:
    """Build a Spectrum from any iterable of reals.

    Entries are sorted descending; duplicates are preserved.  With
    ``exact=True`` every entry is coerced to Fraction and all downstream
    arithmetic on the spectrum stays exact.  An infinite or nan entry
    raises NonFiniteEntryError in both modes.
    """
    items = list(raw)
    if not items:
        raise EmptyInputError("a spectrum needs at least one target eigenvalue")
    coerced = []
    for v in items:
        if exact:
            if not isinstance(v, Fraction):
                if v != v or v in (math.inf, -math.inf):
                    raise NonFiniteEntryError(f"non-finite spectrum entry: {v!r}")
                v = Fraction(v)
            coerced.append(v)
        else:
            f = float(v)
            if not math.isfinite(f):
                raise NonFiniteEntryError(f"non-finite spectrum entry: {v!r}")
            coerced.append(f)
    coerced.sort(reverse=True)
    return Spectrum(tuple(coerced))


def _gate(sigma: Spectrum) -> tuple[bool, bool, Scalar]:
    """(Perron holds, the sum is nonnegative, the band they were judged in),
    within ``value_band(spectral_radius)``."""
    sr = sigma.spectral_radius
    band = value_band(sr)
    return bool(sr - sigma.values[0] <= band), bool(sigma.trace >= -band), band


def check_necessary(sigma: Spectrum, K: int = DEFAULT_POWER_DEPTH) -> ConditionReport:
    """Check the two classical necessary conditions up to power depth K.

    The Perron condition and s_1 >= 0 are the gate of require_necessary,
    judged in the same band, so this report fails whenever the gate does.
    The Perron check requires the largest entry itself to attain max|l_i|:
    a spectrum whose radius is only hit by a negative entry fails.  The
    power-sum condition quantifies over every k; here it is truncated at K
    (the constructions never rely on it for correctness), and each s_k with
    k >= 2 is compared against ``-value_band(sum|l_i|^k)`` so the test stays
    meaningful at any magnitude.  Where a float s_k or sum|l_i|^k is not
    finite (inf - inf is nan), s_k is judged, in the same relative band,
    on the values divided by the spectral radius: both sides scale by r^k.
    """
    if K < 1:
        raise ValueError(f"power depth must be >= 1, got {K}")
    perron_ok, ok, _ = _gate(sigma)
    powers = list(sigma.values)
    sums = []
    for k in range(1, K + 1):
        s_k = sum(powers[1:], start=powers[0])
        sums.append(s_k)
        a_k = sum(map(abs, powers))
        if isinstance(s_k, float) and not (math.isfinite(s_k) and math.isfinite(a_k)):
            scaled = [(v / sigma.spectral_radius) ** k for v in sigma.values]
            s_k, a_k = sum(scaled), sum(map(abs, scaled))
        if k > 1 and not s_k >= -value_band(a_k):
            ok = False
        powers = [p * v for p, v in zip(powers, sigma.values)]
    return ConditionReport(
        power_sums=tuple(sums),
        power_sum_ok=ok,
        perron_ok=perron_ok,
        spectral_radius=sigma.spectral_radius,
        K=K,
    )


def require_necessary(sigma: Spectrum) -> Scalar:
    """Raise unless sigma passes the gate; return the band it was judged in.

    The gate is the Perron condition (PerronViolationError), then a
    nonnegative sum (NecessaryConditionViolationError), both within
    ``value_band(spectral_radius)``.  Every construction relies on it.
    """
    perron_ok, sum_ok, band = _gate(sigma)
    if not perron_ok:
        raise PerronViolationError(
            "the largest entry must attain the spectral radius; "
            f"max entry {sigma.values[0]}, radius {sigma.spectral_radius}"
        )
    if not sum_ok:
        raise NecessaryConditionViolationError(
            f"the spectrum's sum {sigma.trace} is negative, so no "
            "nonnegative matrix realizes it"
        )
    return band


def classify(sigma: Spectrum) -> Classification:
    """Classify a spectrum by its signs and trace (see SpectrumKind).

    An entry counts as positive iff it exceeds ``value_band(|l_1|)``, so
    zeros sit with the non-positive entries, and every nonzero entry of an
    exact spectrum counts by its sign.  A spectrum with exactly one
    positive entry and nonnegative trace is Suleimanova (zero-trace variant
    when the trace vanishes within the same band).  Otherwise: small-order
    for n <= 4, all-nonnegative when no entry is below the band, and
    unclassified as the fallback.
    """
    band = value_band(abs(sigma.values[0]))
    positives = sum(1 for v in sigma.values if v > band)
    s1 = sigma.trace
    if positives == 1 and s1 >= -band:
        kind = (
            SpectrumKind.ZERO_TRACE_SULEIMANOVA
            if abs(s1) <= band
            else SpectrumKind.SULEIMANOVA
        )
    elif sigma.n <= 4:
        kind = SpectrumKind.SMALL_ORDER
    elif sigma.values[-1] >= -band:
        kind = SpectrumKind.ALL_NONNEGATIVE
    else:
        kind = SpectrumKind.UNCLASSIFIED
    return Classification(kind=kind, positives=positives, trace=s1)
