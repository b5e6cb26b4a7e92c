"""Timing comparison: permutative construction vs polynomial expansion.

The benchmark family is the zero-trace Suleimanova spectrum {n-1, -1, ...,
-1} (unit-scale tail).  The permutative realization touches O(n) distinct
values and costs O(n^2) only to materialize the matrix; any route through
the characteristic polynomial must expand prod (t - l_k), which is O(n^2)
with the incremental recurrence used here — the exponential cost sometimes
quoted for this route applies only to naive enumeration of all root
subsets, not to the recurrence.  The deeper problem for the polynomial
route is coefficient magnitude: for this family the peak |c_k| is a central
binomial, which exceeds double precision near n = 1024, so the companion
matrix simply cannot be materialized in floats while the permutative
matrix's entries stay O(n).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .companion import realize_companion
from .linalg import poly_from_roots
from .spectrum import Spectrum, make_spectrum
from .suleimanova import realize_suleimanova

DEFAULT_SIZES = (256, 512, 1024, 2048)

#: Target duration for one timing sample; short callables are batched up
#: to this per sample.
_MIN_SAMPLE_S = 0.05
#: Rounds of samples.  Each round takes one sample of every callable in
#: turn, so every size is sampled across the whole run.
_ROUNDS = 7

OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class BenchEntry:
    n: int
    suleimanova_s: float
    poly_s: float
    poly_products: int  # coefficient multiplications of poly_from_roots
    companion_s: Optional[float]  # None when the matrix cannot be built
    peak_coeff: Optional[float]  # None when not finite
    coeff_overflow: bool

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BenchReport:
    sizes: tuple[int, ...]
    family: str
    entries: tuple[BenchEntry, ...]
    poly_ratios: tuple[float, ...]
    suleimanova_ratios: tuple[float, ...]
    poly_product_ratios: tuple[float, ...]
    note: str

    def to_json_obj(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "family": self.family,
            "entries": [e.to_json_obj() for e in self.entries],
            "poly_doubling_ratios": list(self.poly_ratios),
            "suleimanova_doubling_ratios": list(self.suleimanova_ratios),
            "poly_product_doubling_ratios": list(self.poly_product_ratios),
            "note": self.note,
        }


def synthetic_spectrum(n: int) -> Spectrum:
    """The unit-tail zero-trace family {n-1, -1, ..., -1}."""
    return make_spectrum([float(n - 1)] + [-1.0] * (n - 1))


def counted_poly_from_roots(sigma: Spectrum) -> tuple[tuple[float, ...], int]:
    """poly_from_roots(sigma) and its coefficient multiplications, counted
    by its roots: a measure of its work that reads no clock."""
    count = 0

    class Root(float):
        def __mul__(self, other):
            nonlocal count
            count += 1
            return float(self) * other

    return poly_from_roots(Spectrum(tuple(map(Root, sigma.values)))), count


def _sample_rounds(fns: Sequence[Callable[[], object]]) -> list[list[float]]:
    """Per-call seconds of each callable, one sample per round.

    Fast callables are batched up to _MIN_SAMPLE_S per sample for
    resolution, after one untimed call that sets the batch size.
    """
    reps = []
    for fn in fns:
        t0 = time.perf_counter()
        fn()
        once = time.perf_counter() - t0
        reps.append(max(1, int(math.ceil(_MIN_SAMPLE_S / max(once, 1e-9)))))
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(_ROUNDS):
        for fn, r, out in zip(fns, reps, samples):
            t0 = time.perf_counter()
            for _ in range(r):
                fn()
            out.append((time.perf_counter() - t0) / r)
    return samples


def _ratios(samples: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Doubling ratios from the samples of successive sizes.

    For each pair of sizes, the median over rounds of the larger size's
    sample over the smaller one's from the same round.  A shared machine
    runs in faster and slower phases; samples taken back to back mostly
    share one, so their ratio cancels it, and the median drops the rounds
    that straddle a change.  A ratio of best-of-k times does not cancel
    it: it is off whenever one size caught a fast phase and the other did
    not.
    """
    return tuple(
        float(np.median([b / a for a, b in zip(xs, ys)]))
        for xs, ys in zip(samples, samples[1:])
    )


BENCH_NOTE = (
    "The polynomial expansion uses the O(n^2) incremental recurrence; "
    "exponential cost applies only to naive enumeration of all root "
    "subsets and is not reproduced here.  For this family the companion "
    "route's real failure mode is coefficient magnitude: the peak |c_k| "
    "overflows double precision (> 1e300) from n = 1024 on, while the "
    "permutative matrix's entries stay O(n)."
)


def run_bench(sizes: Sequence[int] = DEFAULT_SIZES) -> BenchReport:
    """Time the constructions over the given sizes, count poly_from_roots'
    products, and tabulate the doubling ratios of both."""
    sigmas = [synthetic_spectrum(n) for n in sizes]
    counted = [counted_poly_from_roots(s) for s in sigmas]
    peaks = [max(map(abs, coeffs)) for coeffs, _ in counted]
    products = [count for _, count in counted]
    # Where the coefficients overflow, the companion matrix cannot be built
    # in float64 at all, so it is not timed.
    finite = [math.isfinite(p) for p in peaks]
    # One kind after another, so that a kind's sizes are sampled back to
    # back within each round (see _ratios).
    samples = _sample_rounds(
        [partial(realize_suleimanova, s) for s in sigmas]
        + [partial(poly_from_roots, s) for s in sigmas]
        + [partial(realize_companion, s) for s, ok in zip(sigmas, finite) if ok]
    )
    k = len(sigmas)
    sule, poly, companion = samples[:k], samples[k : 2 * k], iter(samples[2 * k :])
    entries = [
        BenchEntry(
            n=n,
            suleimanova_s=min(sule[i]),
            poly_s=min(poly[i]),
            poly_products=products[i],
            companion_s=min(next(companion)) if finite[i] else None,
            peak_coeff=peaks[i] if finite[i] else None,
            coeff_overflow=not finite[i] or peaks[i] > OVERFLOW_LIMIT,
        )
        for i, n in enumerate(sizes)
    ]
    return BenchReport(
        sizes=tuple(sizes),
        family="{n-1, -1 x (n-1)} zero-trace Suleimanova",
        entries=tuple(entries),
        poly_ratios=_ratios(poly),
        suleimanova_ratios=_ratios(sule),
        poly_product_ratios=tuple(b / a for a, b in zip(products, products[1:])),
        note=BENCH_NOTE,
    )
