"""Pattern search over permutative matrices (orders 2 through 8)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import (
    float_char_poly_stack_reference,
    random_suleimanova,
    reference_fit_first_row,
)
from permrealize import (
    DimensionMismatchError,
    DimensionOutOfRangeError,
    PermTuple,
    alpha_tuple,
    assemble,
    cyclic_tuple,
    explore,
    fit_first_row,
    make_spectrum,
    objective,
    transposition_tuples,
)
from permrealize import explorer
from permrealize.explorer import (
    DEFAULT_BUDGET,
    STRATEGIES,
    random_tuples,
    results_to_jsonl,
)


# ---------------------------------------------------------------------------
# pattern tuples
# ---------------------------------------------------------------------------


def test_perm_tuple_validation():
    with pytest.raises(ValueError):
        PermTuple(((1, 0), (0, 1)))  # first row must be the identity
    with pytest.raises(ValueError):
        PermTuple(((0, 1), (0, 0)))  # not a permutation
    with pytest.raises(ValueError):
        PermTuple(())


def test_perm_tuple_encoding():
    pt = alpha_tuple(3)
    assert pt.encoding == "0,1,2|1,0,2|2,1,0"
    assert pt.n == 3


def test_assemble_known():
    M = assemble(alpha_tuple(3), (1.0, 2.0, 3.0))
    assert_array_equal(
        M.data, np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    )
    with pytest.raises(DimensionMismatchError):
        assemble(alpha_tuple(3), (1.0, 2.0))


def test_cyclic_tuple_is_circulant():
    M = assemble(cyclic_tuple(3), (1.0, 2.0, 3.0))
    assert_array_equal(
        M.data, np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    )


def test_transposition_tuples_count_and_leading_alpha():
    tuples = list(transposition_tuples(3))
    # alpha first, then all 3^2 products of transpositions minus the one
    # duplicating alpha itself.
    assert tuples[0] == alpha_tuple(3)
    assert len(tuples) == 9
    assert len(set(t.encoding for t in tuples)) == 9


def test_random_tuples_seeded_and_distinct():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a = random_tuples(4, 6, rng1)
    b = random_tuples(4, 6, rng2)
    assert [t.encoding for t in a] == [t.encoding for t in b]
    assert len(set(t.encoding for t in a)) == len(a) == 6


# ---------------------------------------------------------------------------
# objective (frozen small-case values)
# ---------------------------------------------------------------------------


def test_objective_identity_rows_frozen_value():
    # All rows identical to x = (1, 0, 0): spectrum {1, 0, 0}, polynomial
    # t^3 - t^2.  Target {1, 1, 1} has polynomial t^3 - 3t^2 + 3t - 1 with
    # non-leading coefficients (-1, 3, -3) ascending; weights
    # (1, 1/9, 1/9).  Mismatch = 1*1 + (0-3)^2/9 + (-1+3)^2/9 = 22/9.
    ident = PermTuple((tuple(range(3)),) * 3)
    sigma = make_spectrum([1.0, 1.0, 1.0])
    assert objective(ident, (1.0, 0.0, 0.0), sigma) == pytest.approx(22.0 / 9.0)


def test_objective_zero_at_exact_solution():
    sigma = make_spectrum([10.0, -1.0, -2.0, -3.0])
    assert objective(alpha_tuple(4), (1.0, 2.0, 3.0, 4.0), sigma) == 0.0


def test_objective_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        objective(alpha_tuple(3), (1.0, 2.0, 3.0), make_spectrum([1.0, -1.0]))


# ---------------------------------------------------------------------------
# first-row fitting
# ---------------------------------------------------------------------------


def test_fit_first_row_warm_start_hits_alpha_solution():
    sigma = make_spectrum([10.0, -1.0, -2.0, -3.0])
    result = fit_first_row(alpha_tuple(4), sigma)
    assert result.objective <= 1e-16
    assert result.x == pytest.approx((1.0, 2.0, 3.0, 4.0), abs=1e-8)


def test_fit_first_row_identity_pattern_floor():
    # With every row equal to x, only {s, 0, ..., 0} is reachable, so the
    # best objective against {1, -1} is exactly 1.0 (the t^0 coefficient
    # can never match), attained at x = (0, 0).
    ident = PermTuple((tuple(range(2)),) * 2)
    result = fit_first_row(ident, make_spectrum([1.0, -1.0]), iters=800)
    assert result.objective == pytest.approx(1.0, abs=1e-12)
    assert result.x == pytest.approx((0.0, 0.0), abs=1e-6)


def test_fit_first_row_guards():
    with pytest.raises(DimensionMismatchError):
        fit_first_row(alpha_tuple(3), make_spectrum([1.0, -1.0]))
    with pytest.raises(ValueError):
        fit_first_row(alpha_tuple(2), make_spectrum([1.0, -1.0]), iters=0)


# ---------------------------------------------------------------------------
# end-to-end search
# ---------------------------------------------------------------------------


def test_explore_alpha_certifies_suleimanova():
    sigma = make_spectrum([10.0, -1.0, -2.0, -3.0])
    results = explore(sigma, strategy="alpha")
    assert len(results) == 1
    assert results[0].certified
    assert results[0].objective <= 1e-16


def test_explore_cyclic_constant_spectrum():
    # {1, 1, 1, 1, 1} is realized by the identity, which the cyclic
    # pattern reaches at x = e_1.
    sigma = make_spectrum([1.0] * 5)
    results = explore(sigma, strategy="cyclic", budget=4000)
    assert any(r.certified for r in results)


def test_explore_results_sorted_and_deterministic():
    sigma = make_spectrum([4.0, -1.0, -1.5, -1.5])
    a = explore(sigma, strategy="transpositions", budget=3000, seed=11)
    b = explore(sigma, strategy="transpositions", budget=3000, seed=11)
    assert results_to_jsonl(a) == results_to_jsonl(b)
    objs = [r.objective for r in a]
    assert objs == sorted(objs)


def test_explore_same_seed_same_log():
    sigma = make_spectrum([4.0, -1.0, -1.5, -1.5])
    first = explore(sigma, strategy="random", budget=2500, seed=3)
    again = explore(sigma, strategy="random", budget=2500, seed=3)
    assert results_to_jsonl(first) == results_to_jsonl(again)


def _kernel_targets(n: int):
    """(seed, spectrum): a Suleimanova spectrum, which the alpha tuple
    certifies and the cyclic and random tuples do not reach, and 1, 1 with
    negatives summing to -2, none of whose subsets sums to -1, on which
    every search spends its budget."""
    neg = [-2.0 / (n - 2) - 0.01 * k for k in range(n - 3)]
    yield 0, random_suleimanova(np.random.default_rng(n), n, scale=5.0)
    yield 1, make_spectrum([1.0, 1.0, -2.0 - sum(neg)] + neg)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_explore_logs_match_reference_kernel(strategy, monkeypatch):
    # Every search trajectory follows the float64 charpoly's rounding, so
    # the kernel must reproduce the reference recurrence bit for bit.
    for n in range(5, 9):
        for seed, sigma in _kernel_targets(n):
            args = dict(strategy=strategy, budget=400 * n, seed=seed)
            new = results_to_jsonl(explore(sigma, **args))
            with monkeypatch.context() as m:
                m.setattr(
                    explorer, "char_poly_coeffs", float_char_poly_stack_reference
                )
                ref = results_to_jsonl(explore(sigma, **args))
            assert new == ref, (strategy, n, sigma.values, seed)


def _descent_targets(n: int):
    """A Suleimanova spectrum (the alpha tuple converges on it); one with
    two positive values, which at n >= 4 is 1, 1 and negatives summing to
    -2, none of whose subsets sums to -1, so not realizable; and one whose
    largest coefficient is near 1e150, so squared mismatches reach the
    float range."""
    yield random_suleimanova(np.random.default_rng(n), n, scale=5.0)
    if n <= 3:
        yield make_spectrum([1.0, 0.6, -0.9][:n])
    else:
        neg = [-2.0 / (n - 2) - 0.01 * k for k in range(n - 3)]
        yield make_spectrum([1.0, 1.0, -2.0 - sum(neg)] + neg)
    head = 10.0 ** (150 / n)
    yield make_spectrum([head] + [-head * 2 * (k + 1) / n**2 for k in range(n - 1)])


def _hex(result):
    return [float.hex(v) for v in result.x] + [float.hex(result.objective)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batched_descent_matches_sequential_reference(strategy, monkeypatch):
    # fit_first_row evaluates a batch of moves per call and walks the
    # results in order; it must take the steps of the one-at-a-time
    # descent, including budgets that end mid-sweep and converging hits.
    converged = 0
    for n in range(2, 9):
        for sigma in _descent_targets(n):
            for budget in sorted({1, 2, 3, 2 * n + 1, 7 * n + 3, 400 * n}):
                args = dict(strategy=strategy, budget=budget, seed=n)
                new = explore(sigma, **args)
                with monkeypatch.context() as m:
                    m.setattr(explorer, "fit_first_row", reference_fit_first_row)
                    ref = explore(sigma, **args)
                assert results_to_jsonl(new) == results_to_jsonl(ref), (
                    strategy, n, sigma.values, budget,
                )
                converged += any(r.certified for r in new)
            pt = cyclic_tuple(n) if strategy == "cyclic" else alpha_tuple(n)
            for iters in (1, 2, 2 * n, 2 * n + 1, 5 * n + 2, 400):
                got = fit_first_row(pt, sigma, seed=7, iters=iters)
                ref = reference_fit_first_row(pt, sigma, seed=7, iters=iters)
                assert _hex(got) == _hex(ref), (strategy, n, sigma.values, iters)
    if strategy == "alpha":
        assert converged


def test_explore_size_guard():
    with pytest.raises(DimensionOutOfRangeError):
        explore(make_spectrum([1.0]), strategy="alpha")
    with pytest.raises(DimensionOutOfRangeError):
        explore(make_spectrum([8.0] + [-1.0] * 8), strategy="alpha")
    with pytest.raises(ValueError):
        explore(make_spectrum([1.0, -1.0]), strategy="nonsense")


def test_results_jsonl_round_trip():
    sigma = make_spectrum([3.0, -1.0, -2.0])
    results = explore(sigma, strategy="alpha")
    lines = results_to_jsonl(results).strip().splitlines()
    assert len(lines) == len(results)
    rec = json.loads(lines[0])
    assert set(rec) == {"tuple", "x", "objective", "certified"}
    assert rec["certified"] is True


def test_explore_respects_default_budget_constant():
    assert DEFAULT_BUDGET == 5000


def test_explored_hit_is_recertified_not_assumed():
    # A certified flag must only appear on results whose matrix actually
    # passes certification; spot-check by rebuilding the matrix.
    from permrealize import Realization, certify
    from permrealize.verify import METHOD_EXPLORER

    sigma = make_spectrum([6.0, -1.0, -2.0, -3.0])
    results = explore(sigma, strategy="alpha")
    hit = results[0]
    assert hit.certified
    r = Realization(
        matrix=assemble(hit.tuple, hit.x),
        method=METHOD_EXPLORER,
        target=sigma,
    )
    assert certify(r).passed
