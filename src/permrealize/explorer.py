"""Pattern search for permutative realizations beyond the solved orders.

Whether every realizable real spectrum is realized by a permutative matrix
(or a direct sum of them) is open for n >= 5.  This module probes the
question empirically: a candidate is a tuple of row permutations (first row
the identity) plus a nonnegative first row x, assembled into the matrix
whose row i is x permuted by p_i.  The search minimizes a scale-balanced
sum of squared characteristic-coefficient mismatches, which vanishes
exactly when the matrix realizes the target.  Failure to reach zero proves
nothing (the search is local and budgeted); near-exact hits are re-checked
through the strict certification path before being reported as realized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import DimensionMismatchError, DimensionOutOfRangeError, NotApplicableError
from .linalg import PermTuple, alpha_tuple, assemble, char_poly_coeffs, poly_from_roots
from .spectrum import Spectrum, Tolerances, float_or_inf
from .suleimanova import suleimanova_first_row
from .verify import METHOD_EXPLORER, Realization, certify

#: Largest order the search accepts (characteristic-polynomial cost and
#: search-space size both explode beyond this).
MAX_SEARCH_N = 8

#: Default total objective-evaluation budget for one explore() call.
DEFAULT_BUDGET = 5000

#: A descent stops early once the objective falls below this: the hit is
#: already exact to machine precision and further polishing is noise.
CONVERGED = 1e-28

#: Results at or below 1e-16 * max(1, sr) are re-certified strictly.
CERTIFY_THRESHOLD = 1e-16

STRATEGIES = ("alpha", "cyclic", "transpositions", "random")


@dataclass(frozen=True)
class SearchResult:
    """Best first row found for one pattern, with its mismatch objective.

    ``realization`` is the assembled matrix with its passing certificate,
    on results that certified; None on the others.
    """

    tuple: PermTuple
    x: tuple[float, ...]
    objective: float
    realization: Optional[Realization] = None

    @property
    def certified(self) -> bool:
        return self.realization is not None

    def to_json_obj(self) -> dict:
        return {
            "tuple": self.tuple.encoding,
            "x": list(self.x),
            "objective": self.objective,
            "certified": self.certified,
        }


def cyclic_tuple(n: int) -> PermTuple:
    """Row i shifts x right by i (circulant pattern): entry (i,j) = x[(j-i) % n]."""
    perms = [
        tuple((j - i) % n for j in range(n)) for i in range(n)
    ]
    return PermTuple(tuple(perms))


def _transpositions(n: int) -> list[tuple[int, ...]]:
    """All transpositions of {0..n-1} as permutation words, lexicographic."""
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            p = list(range(n))
            p[a], p[b] = p[b], p[a]
            out.append(tuple(p))
    return out


def transposition_tuples(n: int) -> Iterator[PermTuple]:
    """All tuples whose rows 2..n are transpositions; the alpha tuple first."""
    yield alpha_tuple(n)
    ts = _transpositions(n)
    for choice in itertools.product(ts, repeat=n - 1):
        pt = PermTuple((tuple(range(n)),) + choice)
        if not pt.is_alpha:
            yield pt


def random_tuples(n: int, count: int, rng: np.random.Generator) -> list[PermTuple]:
    """Seeded sample of distinct tuples.

    Duplicates are filtered by the sorted-rows key only (reordering rows
    2..n does not change which matrices the pattern can produce up to row
    order, so such tuples are redundant as search starting points); the
    candidates themselves are never canonicalized.
    """
    seen = set()
    out: list[PermTuple] = []
    attempts = 0
    while len(out) < count and attempts < 20 * count + 50:
        attempts += 1
        rows = tuple(
            tuple(int(v) for v in rng.permutation(n)) for _ in range(n - 1)
        )
        key = tuple(sorted(rows))
        if key in seen:
            continue
        seen.add(key)
        out.append(PermTuple((tuple(range(n)),) + rows))
    return out


def _weights(sigma: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Target coefficients c_k and weights 1/max(1,|c_k|)^2, k = 0..n-1.

    Refuses a spectrum with a coefficient or weight that float64 cannot
    hold (non-finite, or a weight of 0): its objective would carry no
    information, and evaluating it would overflow.
    """
    target = np.array(
        [float_or_inf(c) for c in poly_from_roots(sigma).coeffs[:-1]],
        dtype=np.float64,
    )
    with np.errstate(over="ignore"):
        w = 1.0 / np.maximum(1.0, np.abs(target)) ** 2
    if not (np.isfinite(target).all() and w.all()):
        raise NotApplicableError(
            "the search objective cannot represent this spectrum: its "
            "characteristic coefficients or their weights overflow float64"
        )
    return target, w


def objective(pt: PermTuple, x, sigma: Spectrum) -> float:
    """Sum of w_k (c_k(P) - c_k(sigma))^2 over the non-leading coefficients."""
    if sigma.n != pt.n:
        raise DimensionMismatchError(
            f"spectrum size {sigma.n} != pattern size {pt.n}"
        )
    # Row 0 of the assembled matrix is x as float64: p_0 is the identity.
    return _make_objective(pt, sigma)(assemble(pt, x).data[0])


def _make_objective(
    pt: PermTuple, sigma: Spectrum
) -> Callable[[np.ndarray], float]:
    """The objective of pt against sigma as a function of a float64 first row."""
    target, w = _weights(sigma)
    idx = pt.index

    def f(x: np.ndarray) -> float:
        coeffs = np.array(char_poly_coeffs(x[idx])[:-1], dtype=np.float64)
        return float(np.sum(w * (coeffs - target) ** 2))

    return f


def fit_first_row(
    pt: PermTuple,
    sigma: Spectrum,
    seed: int = 0,
    iters: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Best nonnegative first row for one pattern, by local descent.

    Derivative-free coordinate descent with a shrinking step, restarted
    from seeded random nonnegative starts after a deterministic warm start
    (the Suleimanova closed-formula row clamped at zero, which is the exact
    solution whenever the pattern is the alpha tuple and the target is
    Suleimanova).  ``iters`` caps the total number of objective
    evaluations.  Deterministic for fixed (seed, iters).
    """
    n = sigma.n
    if pt.n != n:
        raise DimensionMismatchError(
            f"spectrum size {n} != pattern size {pt.n}"
        )
    if n > MAX_SEARCH_N:
        raise DimensionOutOfRangeError(
            f"search is limited to n <= {MAX_SEARCH_N}, got {n}"
        )
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    f = _make_objective(pt, sigma)
    scale = max(1.0, float(sigma.spectral_radius))
    rng = np.random.default_rng(seed)
    evals = 0

    def descend(x0: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        x = np.maximum(x0, 0.0)
        best = f(x)
        evals += 1
        step = 0.5 * scale
        while step > 1e-14 * scale and evals < iters and best > CONVERGED:
            improved = False
            for i in range(n):
                for delta in (step, -step):
                    cand = max(0.0, x[i] + delta)
                    if cand == x[i]:
                        continue
                    old = x[i]
                    x[i] = cand
                    val = f(x)
                    evals += 1
                    if val < best:
                        best = val
                        improved = True
                    else:
                        x[i] = old
                    if evals >= iters or best <= CONVERGED:
                        return best, x
            if not improved:
                step *= 0.5
        return best, x

    warm = np.maximum(
        np.array(suleimanova_first_row(sigma), dtype=np.float64), 0.0
    )
    # A candidate's coefficient mismatch can overflow float64 even when the
    # target's cannot; its objective is then inf and loses to every other.
    with np.errstate(over="ignore", invalid="ignore"):
        best_val, best_x = descend(warm)
        while evals < iters and best_val > CONVERGED:
            start = rng.random(n) * 2.0 * scale
            val, x = descend(start)
            if val < best_val:
                best_val, best_x = val, x
    return SearchResult(
        tuple=pt, x=tuple(float(v) for v in best_x), objective=best_val
    )


def _tuples_for_strategy(
    sigma: Spectrum, strategy: str, max_tuples: int, rng: np.random.Generator
) -> list[PermTuple]:
    n = sigma.n
    if strategy == "alpha":
        return [alpha_tuple(n)]
    if strategy == "cyclic":
        return [cyclic_tuple(n)]
    if strategy == "transpositions":
        return list(itertools.islice(transposition_tuples(n), max_tuples))
    if strategy == "random":
        return random_tuples(n, max_tuples, rng)
    raise ValueError(
        f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
    )


def explore(
    sigma: Spectrum,
    strategy: str = "alpha",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    tol: Optional[Tolerances] = None,
) -> list[SearchResult]:
    """Search permutative patterns for a realization of sigma.

    ``budget`` is the total objective-evaluation allowance, split across
    candidate tuples; each tuple's fit derives its own seed from (seed,
    tuple index), and results are ordered by a stable sort on (objective,
    encoding), so equal arguments give identical result lists.
    Results at objective <= 1e-16 * max(1, sr) are certified under ``tol``
    (certify's default when None) and keep their certified Realization
    when they pass.
    """
    n = sigma.n
    if not 2 <= n <= MAX_SEARCH_N:
        raise DimensionOutOfRangeError(
            f"explore needs 2 <= n <= {MAX_SEARCH_N}, got {n}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    per_tuple = max(200 * n, budget // 64)
    max_tuples = max(1, budget // per_tuple)
    tuples = _tuples_for_strategy(sigma, strategy, max_tuples, rng)
    per_tuple = max(1, budget // len(tuples))

    results = [
        fit_first_row(pt, sigma, seed=seed + 7919 * idx, iters=per_tuple)
        for idx, pt in enumerate(tuples)
    ]
    results.sort(key=lambda r: (r.objective, r.tuple.encoding))

    threshold = CERTIFY_THRESHOLD * max(1.0, float(sigma.spectral_radius))
    out: list[SearchResult] = []
    for r in results:
        if r.objective <= threshold:
            real = Realization(
                matrix=assemble(r.tuple, r.x),
                method=METHOD_EXPLORER,
                target=sigma,
                params={"x": r.x, "blocks": [(0, r.tuple)]},
            )
            real = real.with_certificate(certify(real, tol))
            if real.certificate.passed:
                r = replace(r, realization=real)
        out.append(r)
    return out


def results_to_jsonl(results: Iterable[SearchResult]) -> str:
    """One JSON record per line: tuple encoding, best x, objective."""
    import json

    return "\n".join(json.dumps(r.to_json_obj()) for r in results) + "\n"
