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
    certify,
    detect_blocks,
    direct_sum,
    from_rows,
    make_spectrum,
    realize_suleimanova,
    realize_small,
)
from permrealize.verify import (
    CHARPOLY_FLOAT_CERTIFY_MAX_N,
    CheckState,
    METHOD_SULEIMANOVA,
    Verdict,
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
                    target=sigma_integer_example)
    report = certify(r)
    assert report.structure_ok is CheckState.FAIL
    assert report.charpoly_ok is CheckState.FAIL
    assert not report.passed


def test_certify_flags_negative_entry():
    sigma = make_spectrum([1.0, -1.0])
    M = from_rows([[0.0, 1.0], [1.0, 0.0]])
    bad = from_rows([[0.0, -1.0], [-1.0, 0.0]])
    good = Realization(matrix=M, method=METHOD_SULEIMANOVA, target=sigma)
    r = Realization(matrix=bad, method=METHOD_SULEIMANOVA, target=sigma)
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
        params={"case": r.params["case"], "blocks": [(0, 3)]},
    )
    assert certify(wrong).structure_ok is CheckState.FAIL


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
