"""Certification logic: check dispatch, block detection, report shape."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from permrealize import (
    DenseMatrix,
    DimensionMismatchError,
    NotSquareError,
    Realization,
    Tolerances,
    alpha_tuple,
    as_realization,
    assemble,
    certify,
    closed_eigensystem,
    detect_blocks,
    direct_sum,
    explore,
    from_rows,
    make_spectrum,
    realize_companion,
    realize_suleimanova,
    realize_small,
)
from permrealize.verify import (
    CHARPOLY_FLOAT_CERTIFY_MAX_N,
    CheckState,
    METHOD_SULEIMANOVA,
    Verdict,
    _alpha_eigensystem_residuals,
)


# ---------------------------------------------------------------------------
# block detection
# ---------------------------------------------------------------------------


def test_detect_blocks_direct_sum():
    M = direct_sum(
        [from_rows([[1.0, 1.0], [1.0, 1.0]]), from_rows([[2.0]])]
    )
    assert detect_blocks(M) == [(0, 2), (2, 3)]


def test_detect_blocks_zero_matrix():
    M = from_rows([[0.0] * 3] * 3)
    assert detect_blocks(M) == [(0, 1), (1, 2), (2, 3)]


def test_detect_blocks_full_matrix():
    M = from_rows([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]])
    assert detect_blocks(M) == [(0, 3)]


def test_detect_blocks_threshold():
    M = from_rows([[1.0, 1e-14], [0.0, 2.0]])
    assert detect_blocks(M, tol=1e-12) == [(0, 1), (1, 2)]
    assert detect_blocks(M, tol=0.0) == [(0, 2)]


def _detect_blocks_reference(M, tol=0.0):
    """The entry-by-entry scan detect_blocks replaced."""
    n = M.n_rows
    ranges = []
    start = 0
    while start < n:
        end = start
        i = start
        while i <= end:
            for j in range(n - 1, end, -1):
                if abs(M.data[i, j]) > tol or abs(M.data[j, i]) > tol:
                    end = j
                    break
            i += 1
        ranges.append((start, end + 1))
        start = end + 1
    return ranges


def _block_test_matrices(rng):
    """Dense, sparse and block-diagonal matrices; some entries at 1e-14."""
    for _ in range(30):
        n = int(rng.integers(1, 25))
        yield rng.random((n, n))
        sparse = rng.random((n, n)) * (rng.random((n, n)) < 0.08)
        sparse[rng.random((n, n)) < 0.03] = -1e-14
        yield sparse
        sizes = rng.integers(1, 5, int(rng.integers(1, 8)))
        blocks = [rng.random((k, k)) * (rng.random((k, k)) < 0.7) for k in sizes]
        B = direct_sum([from_rows(b.tolist()) for b in blocks]).data.copy()
        m = B.shape[0]
        B[rng.integers(0, m, 2), rng.integers(0, m, 2)] = 1e-14
        yield B


def test_detect_blocks_matches_reference_scan():
    rng = np.random.default_rng(3)
    seen = set()
    for data in _block_test_matrices(rng):
        M = DenseMatrix(data)
        for tol in (0.0, 1e-12):
            got = detect_blocks(M, tol)
            assert got == _detect_blocks_reference(M, tol), (data, tol)
            seen.add(len(got) > 1)
    assert seen == {True, False}
    E = direct_sum([from_rows([[Fraction(1, 3)]], exact=True),
                    from_rows([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
                              exact=True)])
    assert detect_blocks(E) == _detect_blocks_reference(E) == [(0, 1), (1, 3)]


def test_detect_blocks_needs_square():
    with pytest.raises(NotSquareError):
        detect_blocks(from_rows([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# Realization validation
# ---------------------------------------------------------------------------


def test_realization_rejects_nonsquare():
    with pytest.raises(NotSquareError):
        Realization(
            matrix=from_rows([[1.0, 2.0]]),
            method=METHOD_SULEIMANOVA,
            target=make_spectrum([1.0, -1.0]),
        )


def test_realization_rejects_order_mismatch():
    with pytest.raises(DimensionMismatchError):
        Realization(
            matrix=from_rows([[1.0, 0.0], [0.0, 1.0]]),
            method=METHOD_SULEIMANOVA,
            target=make_spectrum([1.0, 1.0, 1.0]),
        )


def test_with_certificate_attaches_report():
    r = realize_suleimanova(make_spectrum([10, -1, -2, -3]))
    assert r.certificate is None
    report = certify(r)
    r2 = r.with_certificate(report)
    assert r2.certificate is report
    assert r.certificate is None  # original untouched


# ---------------------------------------------------------------------------
# certify outcomes
# ---------------------------------------------------------------------------


def test_certify_full_pass(sigma_integer_example):
    report = certify(realize_suleimanova(sigma_integer_example))
    assert report.passed
    assert report.nonneg_ok is CheckState.PASS
    assert report.structure_ok is CheckState.PASS
    assert report.charpoly_ok is CheckState.PASS
    assert report.eigenpair_ok is CheckState.PASS
    assert report.max_residual == 0.0


def test_certify_flags_wrong_matrix(sigma_integer_example):
    # Perturb one entry: structure breaks and the polynomial drifts.
    M = from_rows(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 1.0, 3.0, 4.0],
            [3.0, 2.0, 1.5, 4.0],
            [4.0, 2.0, 3.0, 1.0],
        ]
    )
    r = Realization(matrix=M, method=METHOD_SULEIMANOVA,
                    target=sigma_integer_example,
                    params={"blocks": [(0, alpha_tuple(4))]})
    report = certify(r)
    assert report.structure_ok is CheckState.FAIL
    assert report.charpoly_ok is CheckState.FAIL
    assert not report.passed


def test_certify_flags_negative_entry():
    sigma = make_spectrum([1.0, -1.0])
    M = from_rows([[0.0, 1.0], [1.0, 0.0]])
    bad = from_rows([[0.0, -1.0], [-1.0, 0.0]])
    blocks = {"blocks": [(0, alpha_tuple(2))]}
    good = Realization(matrix=M, method=METHOD_SULEIMANOVA, target=sigma,
                       params=blocks)
    r = Realization(matrix=bad, method=METHOD_SULEIMANOVA, target=sigma,
                    params=blocks)
    assert certify(good).nonneg_ok is CheckState.PASS
    report = certify(r)
    assert report.nonneg_ok is CheckState.FAIL
    assert not report.passed


def test_certify_unknown_method_is_informational(sigma_integer_example):
    # A companion-shaped matrix under an empty method tag: the structure
    # check must report not-applicable, never fail, and the certificate
    # can still pass on the polynomial.
    from permrealize import realize_companion

    cr = realize_companion(sigma_integer_example)
    r = Realization(matrix=cr.matrix, method="", target=sigma_integer_example)
    report = certify(r)
    assert report.structure_ok is CheckState.NOT_APPLICABLE
    assert report.charpoly_ok is CheckState.PASS
    assert report.passed


def test_certify_unknown_method_passes_block_permutative():
    sigma = make_spectrum([5.0, 2.0, -3.0])
    r_small = realize_small(sigma)
    r = Realization(matrix=r_small.matrix, method="", target=sigma)
    report = certify(r)
    assert report.structure_ok is CheckState.PASS
    assert report.passed


def test_certify_charpoly_gate_beyond_float_limit():
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N + 8
    values = [float(n - 1)] + [-1.0] * (n - 1)
    r = realize_suleimanova(make_spectrum(values))
    report = certify(r)
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE
    assert report.eigenpair_ok is CheckState.PASS
    assert report.passed


def _alpha_matrix_at(n):
    """An alpha matrix with entries that binary floats cannot hold exactly."""
    rng = np.random.default_rng(n)
    tail = [-float(v) for v in rng.integers(1, 4000, size=n - 1) / 1000]
    sigma = make_spectrum([-sum(tail) + 0.125] + tail)
    return realize_suleimanova(sigma).matrix, sigma


def test_certify_charpoly_at_float_limit():
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N
    M, sigma = _alpha_matrix_at(n)
    # Unknown origin, so the polynomial is the only spectral check.
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.charpoly_ok is CheckState.PASS
    assert report.eigenpair_ok is CheckState.NOT_APPLICABLE
    assert report.verdict is Verdict.PASS
    data = M.data.copy()
    data[n // 2, 3] += 1e-3
    bad = Realization(matrix=DenseMatrix(data), method="", target=sigma)
    report = certify(bad)
    assert report.charpoly_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL
    assert not report.passed


def test_certify_charpoly_beyond_float_range():
    # c_0 is near 1e360 here: the comparison must stay exact, not overflow.
    n = 30
    sigma = make_spectrum([1e12 * n] + [-1e12] * (n - 1))
    M = realize_suleimanova(sigma).matrix
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.charpoly_ok is CheckState.PASS
    data = M.data.copy()
    data[1, 2] *= 1.5
    report = certify(Realization(matrix=DenseMatrix(data), method="", target=sigma))
    assert report.charpoly_ok is CheckState.FAIL
    assert report.max_residual == float("inf")


def test_certify_exact_entries_beyond_float_range():
    # Magnitudes and residual scales past the float range read as inf
    # instead of raising; exact mode's bands do not depend on them.
    big = Fraction(10) ** 400
    sigma = make_spectrum([big, Fraction(1)], exact=True)
    M = from_rows([[big, 0], [0, 1]], exact=True)
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.charpoly_ok is CheckState.PASS
    assert report.verdict is Verdict.PASS
    r = realize_suleimanova(make_spectrum([big, Fraction(-1)], exact=True))
    report = certify(r)
    assert report.eigenpair_ok is CheckState.PASS
    assert report.verdict is Verdict.PASS
    assert report.max_residual == 0.0


def test_certify_without_spectral_check_is_inconclusive():
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N + 1
    M, sigma = _alpha_matrix_at(n)
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE
    assert report.eigenpair_ok is CheckState.NOT_APPLICABLE
    assert CheckState.FAIL not in (report.nonneg_ok, report.structure_ok)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert not report.passed
    assert report.to_json_obj()["verdict"] == "inconclusive"


def test_certify_exact_mode_uses_zero_tolerances():
    sigma = make_spectrum([Fraction(2), Fraction(-2)], exact=True)
    r = realize_suleimanova(sigma)
    report = certify(r)
    assert report.tolerances.absolute == 0.0
    assert report.tolerances.relative == 0.0
    assert report.passed


def test_certify_small_order_checks_blocks():
    sigma = make_spectrum([5.0, 2.0, -3.0])
    r = realize_small(sigma)
    report = certify(r)
    assert report.structure_ok is CheckState.PASS
    assert report.passed
    # Same matrix, but with a wrong block map claiming the whole matrix is
    # one permutative block: the structure check must fail.
    wrong = Realization(
        matrix=r.matrix,
        method=r.method,
        target=sigma,
        params={"case": r.params["case"], "blocks": [(0, alpha_tuple(3))]},
    )
    assert certify(wrong).structure_ok is CheckState.FAIL


def _two_alpha_blocks():
    """Two 20 x 20 alpha blocks at n = 40, with spectra led by 19 and 38."""
    heads = [realize_suleimanova(make_spectrum([h] + [-1.0] * 19))
             for h in (19.0, 38.0)]
    sigma = make_spectrum([v for r in heads for v in r.target.values])
    blocks = [(0, alpha_tuple(20)), (20, alpha_tuple(20))]
    return direct_sum([r.matrix for r in heads]).data.copy(), sigma, blocks


def test_certify_recorded_direct_sum_passes_through_eigenpairs():
    data, sigma, blocks = _two_alpha_blocks()
    report = certify(Realization(matrix=DenseMatrix(data), method="",
                                 target=sigma, params={"blocks": blocks}))
    assert report.structure_ok is CheckState.PASS
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE  # n = 40 > 30
    assert report.eigenpair_ok is CheckState.PASS
    assert report.verdict is Verdict.PASS


def test_certify_recorded_blocks_need_zeros_off_the_blocks():
    # Each block alone still has its closed eigensystem, but the coupling
    # entries move the matrix's eigenvalues off the target.
    data, sigma, blocks = _two_alpha_blocks()
    data[0, 25] = data[25, 0] = 5.0
    report = certify(Realization(matrix=DenseMatrix(data), method="",
                                 target=sigma, params={"blocks": blocks}))
    assert report.structure_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL


@pytest.mark.parametrize(
    "blocks",
    [
        [(0, alpha_tuple(20)), (21, alpha_tuple(19))],  # gap at 20
        [(0, alpha_tuple(20)), (19, alpha_tuple(21))],  # 19 covered twice
        [(0, alpha_tuple(20)), (20, alpha_tuple(21))],  # ends at 41 > 40
        [(0, alpha_tuple(20))],  # leaves 20..39 uncovered
    ],
)
def test_certify_recorded_blocks_must_tile_the_matrix(blocks):
    data, sigma, _ = _two_alpha_blocks()
    report = certify(Realization(matrix=DenseMatrix(data), method="",
                                 target=sigma, params={"blocks": blocks}))
    assert report.structure_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL


def _constructions():
    """(name, realization, eigenpairs state) for every construction."""
    small = {
        "N1": [3.0],
        "N2": [3.0, -1.0],
        "N3-DirectSum": [5.0, 2.0, -3.0],
        "N3-Suleimanova": [5.0, -2.0, -3.0],
        "N4-Suleimanova": [10.0, -1.0, -2.0, -3.0],
        "N4-PairedDirectSum": [9.5, 9.0, 2.5, -0.75],
        "N4-Group": [8.0, 2.0, 2.0, 0.0],
    }
    for case, values in small.items():
        r = realize_small(make_spectrum(values))
        assert r.params["case"] == case
        yield case, r, "not-applicable" if case == "N4-Group" else "pass"
    sigma = make_spectrum([12.0, -1.0, -2.0, -3.0, -4.0])
    yield "suleimanova", realize_suleimanova(sigma), "pass"
    zero_trace = make_spectrum([6.0, -1.0, -2.0, -3.0])
    yield "zero-trace", realize_suleimanova(zero_trace), "pass"
    hit = explore(make_spectrum([10.0, -1.0, -2.0, -3.0]), strategy="alpha")[0]
    assert hit.tuple == alpha_tuple(4)
    yield "explorer", hit.realization, "pass"
    yield "companion", as_realization(realize_companion(sigma), sigma), "not-applicable"
    M = realize_suleimanova(sigma).matrix
    yield "unknown", Realization(matrix=M, method="", target=sigma), "not-applicable"


def test_certify_eigenpairs_follow_the_recorded_blocks():
    seen = []
    for name, r, eigenpairs in _constructions():
        report = certify(r)
        assert report.eigenpair_ok.value == eigenpairs, name
        assert report.verdict is Verdict.PASS, name
        seen.append(name)
    assert len(seen) == 12


def test_certify_direct_sum_eigenpairs_see_a_wrong_tail():
    r = realize_small(make_spectrum([5.0, 2.0, -3.0]))
    data = r.matrix.data.copy()
    data[2, 2] += 1.0
    wrong = Realization(matrix=DenseMatrix(data), method=r.method,
                        target=r.target, params=r.params)
    report = certify(wrong)
    assert report.structure_ok is CheckState.PASS
    assert report.eigenpair_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL


def test_report_json_shape(sigma_integer_example):
    report = certify(realize_suleimanova(sigma_integer_example))
    obj = report.to_json_obj()
    assert set(obj) == {
        "nonneg",
        "structure",
        "charpoly",
        "eigenpairs",
        "max_residual",
        "tolerances",
        "verdict",
        "passed",
    }
    assert obj["verdict"] == "pass"
    assert obj["passed"] is True
    assert obj["tolerances"] == {"absolute": 1e-10, "relative": 1e-9}


def test_certify_custom_tolerances(sigma_integer_example):
    report = certify(
        realize_suleimanova(sigma_integer_example), Tolerances(1e-6, 1e-6)
    )
    assert report.tolerances.absolute == 1e-6
    assert report.passed


# ---------------------------------------------------------------------------
# eigenpair residuals on the scaled block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("values", [
    [1e200] + [-1e198] * 39,
    [1.5e308, -1e307, -1e308],
])
def test_eigenpairs_stay_finite_near_the_float_limit(values):
    r = realize_suleimanova(make_spectrum(values))
    tol = Tolerances()
    pairs = _alpha_eigensystem_residuals(r.matrix.data, r.params["blocks"], r.target, tol)
    assert all(np.isfinite(float(res)) and np.isfinite(float(band)) and res <= band
               for res, band in pairs)
    assert certify(r).eigenpair_ok is CheckState.PASS
    shifted = make_spectrum([values[0]] + [1.25 * v for v in values[1:]])
    wrong = Realization(matrix=r.matrix, method=r.method, target=shifted,
                        params=r.params)
    assert certify(wrong).eigenpair_ok is CheckState.FAIL


def _unscaled_dense_verdict(P, tol):
    """The eigenpair judgement on the block as stored: a dense P V at the
    band tol.band(max(1, |x|_inf^2)); None when the residual lies so near
    the band that rounding may decide it."""
    s, deltas, V = closed_eigensystem(P[0])
    x_inf = float(np.abs(P[0]).max())
    band = tol.band(max(1.0, x_inf * x_inf))
    res = max(np.abs(P.sum(axis=1) - s).max(), np.abs(P @ V - V * deltas).max())
    if abs(res - band) <= 1e-6 * band:
        return None
    return CheckState.PASS if res <= band else CheckState.FAIL


@pytest.mark.parametrize("tol", [Tolerances(), Tolerances(1e-3, 1e-12)])
@pytest.mark.parametrize("x_inf", [0.3, 1.2, 1.7, 1e3, 1e150])
def test_scaled_eigenpair_verdict_matches_the_unscaled_rule(tol, x_inf):
    # Where the unscaled band is finite, judging the scaled block changes
    # no verdict: perturbations from far below to far above the band give
    # the states the dense, unscaled rule gives.
    rng = np.random.default_rng(17)
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N + 1  # keeps the exact charpoly out
    x = rng.uniform(0.1, 1.0, n)
    x *= x_inf / x.max()
    P0 = assemble(alpha_tuple(n), x.tolist()).data
    s, deltas, _ = closed_eigensystem(P0[0])
    target = make_spectrum([s, *deltas])
    seen = set()
    for h in np.geomspace(1e-7, 1e2, 61) * tol.band(max(1.0, x_inf)):
        P = P0.copy()
        P[3, 3] += h
        expected = _unscaled_dense_verdict(P, tol)
        if expected is None:
            continue
        r = Realization(matrix=DenseMatrix(P), method="", target=target,
                        params={"blocks": [(0, alpha_tuple(n))]})
        report = certify(r, tol)
        if report.structure_ok is not CheckState.PASS:
            continue
        assert report.eigenpair_ok is expected, h
        seen.add(expected)
    assert seen == {CheckState.PASS, CheckState.FAIL}
