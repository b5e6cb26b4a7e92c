"""Shared samplers and reference fixtures for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from permrealize import (
    DenseMatrix,
    DimensionOutOfRangeError,
    InternalCaseGapError,
    NecessaryConditionViolationError,
    NotSuleimanovaError,
    PerronViolationError,
    Realization,
    Spectrum,
    Tolerances,
    assemble,
    from_rows,
    make_spectrum,
    quarter_sums,
)
from permrealize.small_order import (
    CASE_N1,
    CASE_N2,
    CASE_N3_DIRECT_SUM,
    CASE_N3_SULEIMANOVA,
    CASE_N4_GROUP,
    CASE_N4_PAIRED,
    CASE_N4_SULEIMANOVA,
    GROUP_TUPLE,
)
from permrealize.spectrum import CLASSIFY_TOL
from permrealize.suleimanova import alpha_direct_sum
from permrealize.verify import METHOD_SMALL_ORDER, METHOD_SULEIMANOVA


def random_suleimanova_values(
    rng: np.random.Generator, n: int, scale: float = 1e6
) -> list[float]:
    """One random Suleimanova sample: n - 1 entries in [-scale, 0] and a
    positive head chosen so the trace lands in [0, scale]."""
    tail = rng.uniform(-scale, 0.0, size=n - 1)
    head = float(-tail.sum() + rng.uniform(0.0, scale))
    return [head] + [float(v) for v in tail]


def random_suleimanova(
    rng: np.random.Generator, n: int, scale: float = 1e6
) -> Spectrum:
    return make_spectrum(random_suleimanova_values(rng, n, scale))


def wide_spread_suleimanova_text(n: int, head_exponent: int) -> str:
    """A float Suleimanova spectrum as CLI text, seeded by (n, head_exponent):
    head 10^h and n - 1 negatives at head / n times 10^-u, u uniform in
    [0, h], so the negatives spread over up to as many decades as the
    head's exponent and the trace stays positive."""
    rng = np.random.default_rng([n, head_exponent])
    head = 10.0**head_exponent
    tail = -head / n * 10.0 ** -rng.uniform(0, head_exponent, size=n - 1)
    return ",".join(repr(float(v)) for v in (head, *tail))


def _diag_sum(arr: np.ndarray):
    # numpy scalars keep sum() on plain additions on every Python version:
    # its compensated float path (3.12 on) needs an exact float start.
    d = [arr[i, i] for i in range(arr.shape[0])]
    return sum(d[1:], start=d[0])


def float_char_poly_reference(A: np.ndarray) -> tuple:
    """The float64 Faddeev-LeVerrier recurrence as char_poly_coeffs first ran
    it: the reference whose rounding the explorer's trajectories follow."""
    n = A.shape[0]
    eye = np.eye(n)
    coeffs = [1.0] * (n + 1)
    B = A.copy()
    coeffs[n - 1] = -_diag_sum(B)
    for k in range(2, n + 1):
        B = np.dot(A, B + coeffs[n - k + 1] * eye)
        coeffs[n - k] = -_diag_sum(B) / float(k)
    return tuple(coeffs)


def float_char_poly_stack_reference(A: np.ndarray) -> np.ndarray:
    """float_char_poly_reference of each matrix of an (m, n, n) stack, as
    the (m, n + 1) array that char_poly_coeffs returns for a stack."""
    return np.array([float_char_poly_reference(a) for a in A]).reshape(
        len(A), A.shape[-1] + 1
    )


def reference_fit_first_row(pt, sigma, seed=0, iters=5000):
    """explorer.fit_first_row as it ran before its moves were batched: one
    objective evaluation at a time, each through float_char_poly_reference.
    The batched descent must take the same steps and return the same x and
    objective, bit for bit."""
    from permrealize.explorer import CONVERGED, SearchResult, _weights
    from permrealize.suleimanova import suleimanova_first_row

    n = sigma.n
    target, w = _weights(sigma)
    idx = pt.index

    def f(x):
        coeffs = np.array(float_char_poly_reference(x[idx])[:-1], dtype=np.float64)
        return float(np.sum(w * (coeffs - target) ** 2))

    scale = max(1.0, float(sigma.spectral_radius))
    rng = np.random.default_rng(seed)
    evals = 0

    def descend(x0):
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


# ---------------------------------------------------------------------------
# References: the paper's bordered matrix M_n (M_n x = lambda for the alpha
# first row x) with its closed-form inverse, the alpha matrix's dense
# closed-form eigensystem, and polynomial evaluation and products, against
# which the constructions are checked.
# ---------------------------------------------------------------------------


def mn_matrix(n: int, exact: bool = False) -> DenseMatrix:
    """The bordered matrix M_n = [[1, e^T], [e, -I]] (n >= 2)."""
    if n < 2:
        raise ValueError(f"mn_matrix needs n >= 2, got {n}")
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    rows = [[one] * n]
    for i in range(1, n):
        row = [zero] * n
        row[0] = one
        row[i] = -one
        rows.append(row)
    return from_rows(rows, exact=exact)


def closed_eigensystem(x) -> tuple:
    """The eigensystem of the alpha matrix with first row x, in closed form.

    Returns (s, deltas, V): s = sum(x) belongs to the all-ones vector e, and
    deltas[k] = x_1 - x_{k+2} to column k of V, which is x_{k+2} everywhere
    except x_1 - s at position k+2 (1-based).  This holds for every x.
    """
    x = np.asarray(x)
    n = len(x)
    s = sum(x[1:], start=x[0])
    V = np.empty((n, n - 1), dtype=x.dtype)
    V[:] = x[1:]
    cols = np.arange(n - 1)
    V[cols + 1, cols] = x[0] - s
    return s, x[0] - x[1:], V


def exact_alpha_spectrum(A, blocks) -> list[Fraction]:
    """The eigenvalues of a matrix that is exactly the direct sum of the
    alpha layouts of its (start, PermTuple) blocks, ascending: sum(x) and
    x_0 - x_i for each block's first row x, in Fractions."""
    mu = []
    for start, pt in blocks:
        x = [Fraction(v) for v in A[start, start : start + pt.n].tolist()]
        mu.append(sum(x, Fraction(0)))
        mu += [x[0] - v for v in x[1:]]
    return sorted(mu)


def alpha_identification_reference(A, blocks, target) -> Fraction:
    """max |mu_k - l_k| over the ascending exact_alpha_spectrum mu and the
    ascending target values l, each value a Fraction: the reference for
    certify's eigenpairs residual on alpha blocks."""
    want = sorted(Fraction(v) for v in target.values)
    return max(abs(m - l) for m, l in zip(exact_alpha_spectrum(A, blocks), want))


def mn_inverse(n: int, exact: bool = False) -> DenseMatrix:
    """Closed-form inverse (1/n) [[1, e^T], [e, J - nI]] of mn_matrix(n)."""
    if n < 2:
        raise ValueError(f"mn_inverse needs n >= 2, got {n}")
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


def eval_poly(p: tuple, t):
    """Horner evaluation of degree-ascending coefficients."""
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * t + c
    return acc


def poly_mul(p: tuple, q: tuple) -> tuple:
    """Coefficient convolution (used to cross-check direct sums)."""
    exact = all(isinstance(c, Fraction) for c in (*p, *q))
    zero = Fraction(0) if exact else 0.0
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def polys_close_reference(p: tuple, q: tuple, tol: Tolerances) -> bool:
    """The coefficient comparison certify's charpoly check first made, as
    its own function: coefficients and band lifted to Fractions, the band
    at max(1, largest |coefficient| of either), every coefficient within it."""
    if len(p) != len(q):
        return False
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    scale = max(1, max(abs(c) for c in (*a, *b)))
    band = max(Fraction(tol.absolute), Fraction(tol.relative) * scale)
    return all(abs(x - y) <= band for x, y in zip(a, b))


@pytest.fixture
def sigma_integer_example() -> Spectrum:
    """Spectrum {10, -1, -2, -3}; realized by an integer permutative matrix."""
    return make_spectrum([10, -1, -2, -3])


@pytest.fixture
def matrix_integer_example() -> list[list[int]]:
    """The known integer realization of {10, -1, -2, -3}."""
    return [[1, 2, 3, 4], [2, 1, 3, 4], [3, 2, 1, 4], [4, 2, 3, 1]]


@pytest.fixture
def sigma_zero_trace_example() -> Spectrum:
    """Spectrum {6, -1, -2, -3}; trace zero, zero-diagonal realization."""
    return make_spectrum([6, -1, -2, -3])


@pytest.fixture
def matrix_zero_trace_example() -> list[list[int]]:
    """The known zero-diagonal realization of {6, -1, -2, -3}."""
    return [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0]]


def small_order_grid() -> list[list[float]]:
    """Criterion 5's sweep: l1 = 1 and sorted l2 >= l3 >= l4 on a 0.05 grid
    in [-1, 1] whose sum is at least -1e-9."""
    grid = [round(k * 0.05, 10) for k in range(-20, 21)]
    out = []
    for i, l2 in enumerate(grid):
        for j in range(i + 1):
            for k in range(j + 1):
                if 1.0 + l2 + grid[j] + grid[k] >= -1e-9:
                    out.append([1.0, l2, grid[j], grid[k]])
    return out


# ---------------------------------------------------------------------------
# Reference: the order <= 4 case analysis as hand-written branches per order,
# each with its own precondition checks.  realize_small replaces it with one
# gate and one pairing rule; tests require both to give the same outcome.
# ---------------------------------------------------------------------------


def _reference_band(*values):
    if all(isinstance(v, Fraction) for v in values):
        return 0
    return CLASSIFY_TOL.band(max(abs(v) for v in values))


def _reference_preconditions(sigma: Spectrum):
    band = _reference_band(*sigma.values)
    if not sigma.trace >= -band:
        raise NecessaryConditionViolationError(f"negative sum {sigma.trace}")
    if sigma.spectral_radius - sigma.values[0] > band:
        raise PerronViolationError(f"radius not attained in {sigma.values}")
    return band


def _reference_suleimanova(sigma: Spectrum, case: str) -> Realization:
    head = sigma.values[0]
    band = 0 if isinstance(head, Fraction) else CLASSIFY_TOL.band(abs(head))
    if sigma.trace < -band:
        raise NecessaryConditionViolationError(f"negative sum {sigma.trace}")
    return alpha_direct_sum([sigma.values], METHOD_SULEIMANOVA, sigma, case)


def reference_realize_2(l1, l2) -> Realization:
    if l1 - abs(l2) < -_reference_band(l1, l2):
        raise PerronViolationError(f"need l1 >= |l2|, got ({l1}, {l2})")
    exact = isinstance(l1, Fraction) and isinstance(l2, Fraction)
    target = make_spectrum([l1, l2], exact=exact)
    return alpha_direct_sum([target.values], METHOD_SMALL_ORDER, target, CASE_N2)


def reference_realize_3(sigma: Spectrum) -> Realization:
    band = _reference_preconditions(sigma)
    l1, l2, l3 = sigma.values
    if l2 > band:
        return alpha_direct_sum(
            [(l1, l3), (l2,)], METHOD_SMALL_ORDER, sigma, CASE_N3_DIRECT_SUM
        )
    return _reference_suleimanova(sigma, CASE_N3_SULEIMANOVA)


def reference_realize_4(sigma: Spectrum) -> Realization:
    band = _reference_preconditions(sigma)
    l1, l2, l3, l4 = sigma.values
    if l2 <= band:
        return _reference_suleimanova(sigma, CASE_N4_SULEIMANOVA)
    a, b, c, d = quarter_sums(l1, l2, l3, l4)
    if min(a, b, c, d) >= -band:
        return Realization(
            matrix=assemble(GROUP_TUPLE, (a, b, c, d)),
            method=METHOD_SMALL_ORDER,
            target=sigma,
            params={"case": CASE_N4_GROUP, "blocks": [(0, GROUP_TUPLE)]},
        )
    try:
        return alpha_direct_sum(
            [(l1, l4), (l2, l3)], METHOD_SMALL_ORDER, sigma, CASE_N4_PAIRED
        )
    except NotSuleimanovaError as e:
        raise InternalCaseGapError(f"paired branch rejected {sigma.values}") from e


def reference_realize_small(sigma: Spectrum) -> Realization:
    n = sigma.n
    if not 1 <= n <= 4:
        raise DimensionOutOfRangeError(f"needs n <= 4, got {n}")
    if n == 1:
        l1 = sigma.values[0]
        if l1 < -_reference_band(l1):
            raise PerronViolationError(f"a 1x1 matrix needs l1 >= 0, got {l1}")
        return alpha_direct_sum([sigma.values], METHOD_SMALL_ORDER, sigma, CASE_N1)
    if n == 2:
        return reference_realize_2(*sigma.values)
    if n == 3:
        return reference_realize_3(sigma)
    return reference_realize_4(sigma)
