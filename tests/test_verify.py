"""Certification logic: check dispatch, block detection, report shape."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    alpha_identification_reference,
    block_diag,
    blocks_hold_by_index,
    closed_eigensystem,
    exact_alpha_spectrum,
    polys_close_reference,
    random_suleimanova,
)
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
    char_poly,
    detect_blocks,
    explore,
    from_rows,
    make_spectrum,
    poly_from_roots,
    realize,
    realize_companion,
    realize_suleimanova,
    realize_small,
)
from permrealize import verify as verify_mod
from permrealize.verify import (
    CHARPOLY_FLOAT_CERTIFY_MAX_N,
    CheckState,
    METHOD_SULEIMANOVA,
    Verdict,
)
from permrealize.linalg import alpha_blocks_hold, assemble_blocks
from permrealize.small_order import GROUP_TUPLE
from permrealize.spectrum import float_or_inf
from permrealize.suleimanova import alpha_direct_sum


# ---------------------------------------------------------------------------
# block detection
# ---------------------------------------------------------------------------


def test_detect_blocks_direct_sum():
    M = DenseMatrix(block_diag([[1.0, 1.0], [1.0, 1.0]], [[2.0]]))
    assert detect_blocks(M) == [(0, 2), (2, 3)]


def test_detect_blocks_zero_matrix():
    M = from_rows([[0.0] * 3] * 3)
    assert detect_blocks(M) == [(0, 1), (1, 2), (2, 3)]


def test_detect_blocks_full_matrix():
    M = from_rows([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]])
    assert detect_blocks(M) == [(0, 3)]


def test_detect_blocks_threshold():
    # Blocks split at exact zeros only: a tiny entry couples, -0.0 does not.
    assert detect_blocks(from_rows([[1.0, 1e-14], [0.0, 2.0]])) == [(0, 2)]
    assert detect_blocks(from_rows([[1.0, 5e-324], [0.0, 2.0]])) == [(0, 2)]
    assert detect_blocks(from_rows([[1.0, -0.0], [0.0, 2.0]])) == [(0, 1), (1, 2)]


def _detect_blocks_reference(M):
    """The entry-by-entry scan detect_blocks replaced."""
    n = M.n_rows
    ranges = []
    start = 0
    while start < n:
        end = start
        i = start
        while i <= end:
            for j in range(n - 1, end, -1):
                if abs(M.data[i, j]) > 0 or abs(M.data[j, i]) > 0:
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
        B = block_diag(*blocks)
        m = B.shape[0]
        B[rng.integers(0, m, 2), rng.integers(0, m, 2)] = 1e-14
        yield B


def test_detect_blocks_matches_reference_scan():
    rng = np.random.default_rng(3)
    seen = set()
    for data in _block_test_matrices(rng):
        M = DenseMatrix(data)
        got = detect_blocks(M)
        assert got == _detect_blocks_reference(M), data
        seen.add(len(got) > 1)
    assert seen == {True, False}
    E = DenseMatrix(block_diag([[Fraction(1, 3)]],
                               [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]))
    assert detect_blocks(E) == _detect_blocks_reference(E) == [(0, 1), (1, 3)]


def test_detect_blocks_needs_square():
    with pytest.raises(NotSquareError):
        detect_blocks(from_rows([[1.0, 2.0]]))


def test_detect_blocks_of_the_empty_matrix_is_no_block():
    M = DenseMatrix(np.zeros((0, 0)))
    assert detect_blocks(M) == _detect_blocks_reference(M) == []


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
    # The closed form is the spectral check of recorded alpha blocks.
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE
    assert report.eigenpair_ok is CheckState.PASS
    assert report.max_residual == 0.0


def test_certify_flags_wrong_matrix(sigma_integer_example):
    # Perturb one entry: the matrix is no alpha layout, its rows are no
    # permutations of the first, and the polynomial drifts.
    M = from_rows(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 1.0, 3.0, 4.0],
            [3.0, 2.0, 1.5, 4.0],
            [4.0, 2.0, 3.0, 1.0],
        ]
    )
    r = Realization(matrix=M, method=METHOD_SULEIMANOVA, target=sigma_integer_example)
    report = certify(r)
    assert report.structure_ok is CheckState.NOT_APPLICABLE
    assert report.charpoly_ok is CheckState.FAIL
    assert report.eigenpair_ok is CheckState.NOT_APPLICABLE
    assert report.verdict is Verdict.FAIL


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


@pytest.mark.parametrize("n", [12, 30, 31, 64])
def test_certify_perturbed_alpha_realization_fails(n):
    r = realize_suleimanova(random_suleimanova(np.random.default_rng(n), n))
    report = certify(r)
    assert report.verdict is Verdict.PASS
    band = report.tolerances.band(max(1.0, r.matrix.max_abs()))
    # No layout and no alpha layout at its zeros: the charpoly judges it up
    # to n = 30, where 4 entry bands stay inside the coefficient band and
    # 1000 do not, and above that no spectral check runs: never a pass.
    for bands, charpoly in ((4, CheckState.PASS), (1000, CheckState.FAIL)):
        data = r.matrix.data.copy()
        data[n // 2, 1] += bands * band
        report = certify(replace(r, matrix=DenseMatrix(data)))
        assert report.structure_ok is CheckState.NOT_APPLICABLE
        assert report.eigenpair_ok is CheckState.NOT_APPLICABLE
        if n > CHARPOLY_FLOAT_CERTIFY_MAX_N:
            charpoly = CheckState.NOT_APPLICABLE
        assert report.charpoly_ok is charpoly
        assert report.verdict is {CheckState.PASS: Verdict.PASS, CheckState.FAIL: Verdict.FAIL,
                                  CheckState.NOT_APPLICABLE: Verdict.INCONCLUSIVE}[charpoly]
    # The right matrix against a wrong target fails the closed form.
    values = list(r.target.values)
    values[-1] -= 4 * report.tolerances.band(r.target.scale())
    report = certify(replace(r, target=make_spectrum(values)))
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE
    assert report.eigenpair_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("i, j", [(0, 2), (3, 0), (2, 2), (1, 3)])
def test_recorded_alpha_block_off_its_bit_layout_is_judged_in_the_band(exact, i, j):
    # A block is an alpha layout only exactly: one ulp off it, wherever the
    # entry is, and so does 10^-3 off, the matrix is no alpha layout and
    # its rows are no permutations of the first.  The spectrum is then
    # judged in the band by the charpoly (n = 5): the ulp passes it,
    # 10^-3 does not.
    values = [Fraction(10), Fraction(-1), Fraction(-2), Fraction(-3), Fraction(-7, 2)]
    r = realize_suleimanova(make_spectrum(values if exact else [float(v) for v in values]))
    assert r.matrix.layout == ((0, alpha_tuple(5)),)
    v = float(r.matrix.data[i, j])
    for moved, charpoly in ((np.nextafter(v, np.inf), CheckState.PASS),
                            (v + 1e-3, CheckState.FAIL)):
        data = r.matrix.data.copy()
        data[i, j] = Fraction(moved) if exact else moved
        M = DenseMatrix(data)
        assert M.layout is None
        report = certify(replace(r, matrix=M), Tolerances())
        assert report.structure_ok is CheckState.NOT_APPLICABLE
        assert (report.charpoly_ok, report.eigenpair_ok) == (charpoly, CheckState.NOT_APPLICABLE)
        assert report.verdict is (Verdict.PASS if charpoly is CheckState.PASS else Verdict.FAIL)


def _zeros_direct_sum():
    """A built direct sum whose blocks hold 0.0 and -0.0: the alpha blocks
    of 3,1,-1 (first row 1, 0, 2) and of first row 2, -0.0, 1."""
    first = realize_suleimanova(make_spectrum([3.0, 1.0, -1.0])).matrix
    second = assemble(alpha_tuple(3), [2.0, -0.0, 1.0])
    s, deltas, _ = closed_eigensystem(second.data[0])
    sigma = make_spectrum([3.0, 1.0, -1.0, s, *deltas])
    matrix = assemble_blocks([alpha_tuple(3)] * 2, [*first.first_rows, *second.first_rows])
    return Realization(matrix=matrix, method="", target=sigma)


@pytest.mark.parametrize("edit", [
    "ulp-up", "ulp-down", "sign-bit", "zero-to-minus-zero", "minus-zero-to-zero",
    "off-block-subnormal", "exact-1e-30",
])
def test_recorded_blocks_hold_only_exactly(edit):
    # Any edit of the bits, a zero's sign included, leaves no alpha layout:
    # the edited matrix gets no closed form, and the charpoly (n = 6)
    # judges its spectrum in the band, exactly in exact mode, where only
    # the sign flip of a 2 and the 10^-30 fail.
    charpoly = CheckState.FAIL if edit in ("sign-bit", "exact-1e-30") else CheckState.PASS
    r = _zeros_direct_sum()
    if edit == "exact-1e-30":
        r = replace(r, matrix=from_rows(r.matrix.to_lists(), exact=True),
                    target=make_spectrum([Fraction(v) for v in r.target.values], exact=True))
    assert certify(r).verdict is Verdict.PASS
    data = r.matrix.data.copy()
    i, j, new = {
        "ulp-up": (4, 5, lambda v: np.nextafter(v, np.inf)),
        "ulp-down": (1, 2, lambda v: np.nextafter(v, -np.inf)),
        "sign-bit": (2, 0, lambda v: -v),
        "zero-to-minus-zero": (2, 1, lambda v: -0.0),
        "minus-zero-to-zero": (3, 4, lambda v: 0.0),
        "off-block-subnormal": (4, 1, lambda v: 5e-324),
        "exact-1e-30": (5, 3, lambda v: v + Fraction(1, 10**30)),
    }[edit]
    old, data[i, j] = data[i, j], new(data[i, j])
    assert str(data[i, j]) != str(old)
    M = DenseMatrix(data)
    assert not alpha_blocks_hold(data, detect_blocks(M))
    report = certify(replace(r, matrix=M))
    assert report.structure_ok is not CheckState.FAIL
    assert (report.charpoly_ok, report.eigenpair_ok) == (charpoly, CheckState.NOT_APPLICABLE)
    assert report.verdict is (Verdict.PASS if charpoly is CheckState.PASS else Verdict.FAIL)


def test_negative_tolerances_are_refused():
    r = realize_suleimanova(make_spectrum([3.0, -1.0, -1.0]))
    for a, b in ((-1, -1), (-1e-300, 1e-9), (1e-10, -1e-9), (float("nan"), 0.0)):
        with pytest.raises(ValueError, match="finite and >= 0"):
            certify(r, Tolerances(a, b))
    assert certify(r, Tolerances(0.0, 0.0)).structure_ok is CheckState.PASS


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


def _reversed(M: DenseMatrix) -> DenseMatrix:
    """Q M Q^T for the order-reversing permutation Q: the same entries and
    spectrum, but not the alpha layout of its first row, so certify has no
    alpha evidence for it."""
    return DenseMatrix(M.data[::-1, ::-1].copy())


def test_certify_charpoly_at_float_limit():
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N
    M, sigma = _alpha_matrix_at(n)
    M = _reversed(M)
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
    # Distinct negatives: with equal ones the alpha matrix is (x_0 - y) I +
    # y J, which every relabeling leaves the alpha layout.
    n = 30
    tail = [-1e12 * (1 + k / 64) for k in range(n - 1)]
    sigma = make_spectrum([1e12 - sum(tail)] + tail)
    M = _reversed(realize_suleimanova(sigma).matrix)
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.charpoly_ok is CheckState.PASS
    data = M.data.copy()
    data[1, 2] *= 1.5
    report = certify(Realization(matrix=DenseMatrix(data), method="", target=sigma))
    assert report.charpoly_ok is CheckState.FAIL
    assert report.max_residual == float("inf")


def test_certify_exact_entries_beyond_float_range():
    # Magnitudes and residual scales past the float range stay exact
    # instead of raising; exact mode's bands do not depend on them.
    big = Fraction(10) ** 400
    sigma = make_spectrum([big, Fraction(1)], exact=True)
    # diag(big, 1) splits at its zeros into two 1 x 1 alpha blocks; the
    # triangular matrix has no alpha evidence and takes the charpoly.
    M = from_rows([[big, 0], [0, 1]], exact=True)
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert (report.charpoly_ok, report.eigenpair_ok) == (
        CheckState.NOT_APPLICABLE, CheckState.PASS)
    assert report.verdict is Verdict.PASS
    M = from_rows([[big, 1], [0, 1]], exact=True)
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert (report.charpoly_ok, report.eigenpair_ok) == (
        CheckState.PASS, CheckState.NOT_APPLICABLE)
    assert report.verdict is Verdict.PASS
    r = realize_suleimanova(make_spectrum([big, Fraction(-1)], exact=True))
    report = certify(r)
    assert report.eigenpair_ok is CheckState.PASS
    assert report.verdict is Verdict.PASS
    assert report.max_residual == 0.0


def test_exact_scales_beyond_the_float_range_get_finite_bands():
    # At the default tolerances the bands are 1e-9 of magnitudes near
    # 1e400, formed exactly: a wrong target and a negative entry of that
    # size fail, where an infinite band would let both pass.
    big = Fraction(10) ** 400
    r = realize_suleimanova(make_spectrum([big, -big / 2], exact=True))
    assert certify(r, Tolerances()).verdict is Verdict.PASS
    wrong = replace(r, target=make_spectrum([big, Fraction(3)], exact=True))
    report = certify(wrong, Tolerances())
    assert report.eigenpair_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL
    # The alpha layout of (big, -big), spectrum {2 big, 0}: the spectral
    # check passes, and the entries -big fail nonneg.
    M = from_rows([[big, -big], [-big, big]], exact=True)
    report = certify(
        Realization(matrix=M, method="", target=make_spectrum([2 * big, 0], exact=True)),
        Tolerances(),
    )
    assert (report.nonneg_ok, report.eigenpair_ok) == (CheckState.FAIL, CheckState.PASS)
    assert report.verdict is Verdict.FAIL


def _charpoly_cases(rng, exact):
    """Seeded (matrix, target) pairs for the charpoly check, each with its
    exact coefficient gap spread around the default band: companion
    matrices with one coefficient moved by a multiple of the band, and in
    float mode triangular matrices near 1e200, whose coefficients lie
    beyond the float range, against targets moved by a relative step."""
    factors = (0.0, 0.5, 1 - 2.0**-20, 1.0, 1 + 2.0**-20, 2.0)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        if exact:
            # Up to 1e200 in exact mode: coefficients up to about 1e1200.
            mag = Fraction(10) ** int(rng.integers(0, 201))
            values = [mag * Fraction(int(v), int(d)) for v, d in zip(
                rng.integers(-40, 41, n), rng.integers(1, 9, n))]
        else:
            values = (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 12)).tolist()
        sigma = make_spectrum(values, exact=exact)
        C = realize_companion(sigma).matrix
        q = poly_from_roots(make_spectrum(sigma.values, exact=True))
        band = Tolerances().band(max(1, *map(abs, q)))
        for f in factors:
            for sign in (1, -1):
                k = int(rng.integers(0, n))
                data = C.data.copy()
                step = sign * Fraction(f) * band
                data[k, n - 1] += step if exact else float(step)
                yield DenseMatrix(data), sigma
        if not exact:
            d = rng.uniform(1.0, 2.0, n) * 1e200
            T = np.triu(rng.uniform(0.5, 1.0, (n, n)) * 1e200, 1) + np.diag(d)
            for eps in (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6):
                moved = d.copy()
                moved[int(rng.integers(0, n))] *= 1 + eps
                yield DenseMatrix(T), make_spectrum(moved.tolist())


@pytest.mark.parametrize("exact", [False, True])
def test_charpoly_verdict_matches_the_coefficient_reference(exact):
    # certify's charpoly verdict is the coefficient comparison it first
    # made (polys_close_reference), and max_residual is the exact largest
    # coefficient gap, rounded.
    rng = np.random.default_rng([21, exact])
    seen = set()
    beyond = 0
    for M, sigma in _charpoly_cases(rng, exact):
        p = char_poly(M)
        q = poly_from_roots(make_spectrum(sigma.values, exact=True))
        beyond += float_or_inf(max(map(abs, q))) == math.inf
        for tol in (Tolerances(), Tolerances(0.0, 1e-6), Tolerances.exact()):
            report = certify(Realization(matrix=M, method="", target=sigma), tol)
            assert report.eigenpair_ok is CheckState.NOT_APPLICABLE
            want = polys_close_reference(p, q, tol)
            assert report.charpoly_ok is (CheckState.PASS if want else CheckState.FAIL)
            assert report.max_residual == float_or_inf(max(abs(a - b) for a, b in zip(p, q)))
            seen.add(want)
    assert seen == {True, False}
    assert beyond > 0


def test_certify_alpha_evidence_needs_every_bit():
    # 3, 1, -1 has the first row (1, 0, 2): a zero entry written -0.0 is no
    # longer the alpha layout bit for bit, so the charpoly judges it.
    for values in ([1.0, -1.0], [3.0, 1.0, -1.0]):
        sigma = make_spectrum(values)
        M = realize_suleimanova(sigma).matrix
        report = certify(Realization(matrix=M, method="", target=sigma))
        assert (report.charpoly_ok, report.eigenpair_ok) == (
            CheckState.NOT_APPLICABLE, CheckState.PASS)
        data = M.data.copy()
        i, j = np.argwhere(data == 0.0)[-1]
        data[i, j] = -0.0
        report = certify(Realization(matrix=DenseMatrix(data), method="", target=sigma))
        assert (report.charpoly_ok, report.eigenpair_ok) == (
            CheckState.PASS, CheckState.NOT_APPLICABLE)
        assert report.verdict is Verdict.PASS


def test_certify_without_spectral_check_is_inconclusive():
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N + 1
    M, sigma = _alpha_matrix_at(n)
    report = certify(Realization(matrix=_reversed(M), method="", target=sigma))
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
    # The same entries as a dense array are split at their exact zeros into
    # the same alpha blocks.
    dense = replace(r, matrix=DenseMatrix(r.matrix.data))
    assert certify(dense) == report


def _two_alpha_blocks():
    """Two 20 x 20 alpha blocks at n = 40, with spectra led by 19 and 38."""
    heads = [realize_suleimanova(make_spectrum([h] + [-1.0] * 19))
             for h in (19.0, 38.0)]
    sigma = make_spectrum([v for r in heads for v in r.target.values])
    return block_diag(*(r.matrix.data for r in heads)), sigma


def test_certify_recorded_direct_sum_passes_through_eigenpairs():
    data, sigma = _two_alpha_blocks()
    report = certify(Realization(matrix=DenseMatrix(data), method="", target=sigma))
    assert report.structure_ok is CheckState.PASS
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE  # alpha evidence
    assert report.eigenpair_ok is CheckState.PASS
    assert report.verdict is Verdict.PASS


def test_certify_recorded_blocks_need_zeros_off_the_blocks():
    # Each block alone still has its closed eigensystem, but the coupling
    # entries join the two at the zeros into one block that is no alpha
    # layout, and at n = 40 no spectral check runs: never a pass.
    data, sigma = _two_alpha_blocks()
    data[0, 25] = data[25, 0] = 5.0
    M = DenseMatrix(data)
    assert detect_blocks(M) == [(0, 40)]
    report = certify(Realization(matrix=M, method="", target=sigma))
    assert report.structure_ok is CheckState.NOT_APPLICABLE
    assert report.charpoly_ok is report.eigenpair_ok is CheckState.NOT_APPLICABLE
    assert report.verdict is Verdict.INCONCLUSIVE


def test_constructions_record_their_structure_only_as_the_matrix_layout():
    # Every construction's blocks are the layout of its matrix, beside its
    # case tag.
    a = alpha_tuple
    small = {
        "N1": ([3.0], ((0, a(1)),)),
        "N2": ([3.0, -1.0], ((0, a(2)),)),
        "N3-DirectSum": ([5.0, 2.0, -3.0], ((0, a(2)), (2, a(1)))),
        "N3-Suleimanova": ([5.0, -2.0, -3.0], ((0, a(3)),)),
        "N4-Suleimanova": ([10.0, -1.0, -2.0, -3.0], ((0, a(4)),)),
        "N4-PairedDirectSum": ([9.5, 9.0, 2.5, -0.75], ((0, a(2)), (2, a(2)))),
        "N4-Group": ([8.0, 2.0, 2.0, 0.0], ((0, GROUP_TUPLE),)),
    }
    built = [(realize(make_spectrum([10.0, -1.0, -2.0, -3.0])), None, ((0, a(4)),))]
    for case, (values, layout) in small.items():
        built.append((realize_small(make_spectrum(values)), case, layout))
    hit = explore(make_spectrum([10.0, -1.0, -2.0, -3.0]), strategy="alpha")[0]
    built.append((hit.realization, None, ((0, hit.tuple),)))
    rng = np.random.default_rng(37)
    groups = [random_suleimanova(rng, int(rng.integers(1, 5))).values for _ in range(200)]
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]]).tolist()
    built.append((alpha_direct_sum(groups, "", make_spectrum([v for g in groups for v in g])),
                  None, tuple((s, a(len(g))) for s, g in zip(starts, groups))))
    for r, case, layout in built:
        assert (r.case, r.matrix.layout) == (case, layout), r.method


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
        assert r.case == case
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
    # A matrix file records no blocks; one alpha block bit for bit is one.
    yield "alpha file", Realization(matrix=M, method="", target=sigma), "pass"
    yield "unknown", Realization(matrix=_reversed(M), method="", target=sigma), "not-applicable"


def test_certify_eigenpairs_follow_the_recorded_blocks():
    seen = []
    for name, r, eigenpairs in _constructions():
        report = certify(r)
        assert report.eigenpair_ok.value == eigenpairs, name
        assert report.verdict is Verdict.PASS, name
        seen.append(name)
    assert len(seen) == 13


def test_certify_direct_sum_eigenpairs_see_a_wrong_tail():
    r = realize_small(make_spectrum([5.0, 2.0, -3.0]))
    data = r.matrix.data.copy()
    data[2, 2] += 1.0
    wrong = Realization(matrix=DenseMatrix(data), method=r.method,
                        target=r.target, case=r.case)
    report = certify(wrong)
    assert report.structure_ok is CheckState.PASS
    assert report.eigenpair_ok is CheckState.FAIL
    assert report.verdict is Verdict.FAIL


# ---------------------------------------------------------------------------
# every certified block joins one exact identification
# ---------------------------------------------------------------------------


def _certified_blocks(monkeypatch, r, tol=None):
    """certify(r, tol) and, for each identification call it makes, the
    orders of the blocks identified.  Each call's residual must be the
    Fraction reference exactly, and the report's max_residual its float."""
    original = verify_mod._alpha_identification_residual
    calls, residuals = [], []

    def checked(x, blocks, target):
        calls.append([pt.n for _, pt in blocks])
        got = original(x, blocks, target)
        assert got == alpha_identification_reference(r.matrix.data, blocks, target)
        residuals.append(got)
        return got

    monkeypatch.setattr(verify_mod, "_alpha_identification_residual", checked)
    report = certify(r, tol)
    if residuals:
        assert report.max_residual == float_or_inf(residuals[0])
    return report, calls


def _alpha_realization(x, built):
    """The alpha matrix of x against its closed-form spectrum, stored as its
    layout when built, else (as a file given to verify) as its array."""
    M = assemble(alpha_tuple(len(x)), x)
    s, deltas, _ = closed_eigensystem(M.data[0])
    if not built:
        M = DenseMatrix(M.data)
    return Realization(matrix=M, method="", target=make_spectrum([s, *deltas]))


@pytest.mark.parametrize("n", [1, 2, 5, 40, 200])
def test_proven_layouts_take_the_row_sum_extremes(monkeypatch, n):
    rng = np.random.default_rng(n)
    r = realize_suleimanova(random_suleimanova(rng, n))
    report, calls = _certified_blocks(monkeypatch, r)
    assert calls == [[n]] and report.verdict is Verdict.PASS
    # The same matrix as a file has no layout, and its zeros split it into
    # that one block.
    report, calls = _certified_blocks(monkeypatch, replace(r, matrix=DenseMatrix(r.matrix.data)))
    assert calls == [[n]] and report.verdict is Verdict.PASS


def _exact_alpha(n):
    rng = np.random.default_rng([31, n])
    values = [Fraction(int(v), 8) for v in -rng.integers(1, 80, n - 1)]
    sigma = make_spectrum([-sum(values, Fraction(0)) + Fraction(3, 8)] + values, exact=True)
    return realize_suleimanova(sigma), [n]


def _small_order(values, case):
    r = realize_small(make_spectrum(values))
    assert r.case == case
    return r, [pt.n for _, pt in r.matrix.layout]


def _wide_groups():
    """Three groups of head 1e12 and three negatives down to about -4e-3:
    the charpoly's coefficient band fails their direct sum."""
    negs = -4e11 * 10.0 ** -np.random.default_rng(5).uniform(0, 14, size=9)
    groups = [[1e12, *map(float, negs[3 * g : 3 * g + 3])] for g in range(3)]
    sigma = make_spectrum([v for g in groups for v in g])
    return alpha_direct_sum(groups, "", sigma), [4, 4, 4]


def _many_blocks():
    rng = np.random.default_rng(37)
    groups = [random_suleimanova(rng, int(rng.integers(1, 5))).values for _ in range(200)]
    sigma = make_spectrum([v for g in groups for v in g])
    return alpha_direct_sum(groups, "", sigma), [len(g) for g in groups]


#: (realization, block orders) of every kind of alpha block certify gives
#: the closed form.
BLOCK_KINDS = {
    **{f"exact-{n}": lambda n=n: _exact_alpha(n) for n in (1, 2, 5, 40)},
    "N3-DirectSum": lambda: _small_order([5.0, 2.0, -3.0], "N3-DirectSum"),
    "N4-PairedDirectSum": lambda: _small_order([9.5, 9.0, 2.5, -0.75], "N4-PairedDirectSum"),
    "200-blocks": _many_blocks,
    "wide": _wide_groups,
    # The small block's entries lie below the band of the largest entry.
    "tiny-beside-huge": lambda: (
        alpha_direct_sum([[1e12, -1.0], [1e-3, -1e-4]], "",
                         make_spectrum([1e12, -1.0, 1e-3, -1e-4])),
        [2, 2]),
    # diag(2, 2) is bit for bit the alpha layout of [2, 0]; as a file its
    # zeros split it into two 1 x 1 blocks, which hold as those.
    "diag-as-two-blocks": lambda: (
        Realization(matrix=from_rows([[2.0, 0.0], [0.0, 2.0]]), method="",
                    target=make_spectrum([2.0, 2.0])),
        [1, 1]),
    "zeros": lambda: (_zeros_direct_sum(), [3, 3]),
    "zeros-alone": lambda: (_alpha_realization([0.0, 3.0, -0.0, 1.0, 0.5], built=True), [5]),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_KINDS))
def test_every_certified_block_matches_the_per_entry_reference(monkeypatch, kind):
    # One identification for every set of blocks that holds: the whole
    # matrix, the blocks of a direct sum, exact entries, zeros of either
    # sign.  Its residual is the reference's, value by value in Fractions.
    r, orders = BLOCK_KINDS[kind]()
    report, calls = _certified_blocks(monkeypatch, r)
    assert calls == [orders]
    assert report.eigenpair_ok is CheckState.PASS and report.verdict is Verdict.PASS


@pytest.mark.parametrize("tol", [Tolerances(), Tolerances.exact()])
@pytest.mark.parametrize("kind", sorted(BLOCK_KINDS))
def test_float_and_exact_matrices_get_the_same_certificate(kind, tol):
    # The identification reads the same values off float64 and Fraction
    # entries, so both give one verdict and one max_residual.
    r, _ = BLOCK_KINDS[kind]()
    exact = replace(r, matrix=from_rows(r.matrix.to_lists(), exact=True))
    a, b = certify(r, tol), certify(exact, tol)
    assert (a.verdict, a.max_residual) == (b.verdict, b.max_residual)
    assert a.eigenpair_ok is b.eigenpair_ok is not CheckState.NOT_APPLICABLE


def _thousandths(rng, n):
    """A float Suleimanova spectrum in thousandths, which binary floats
    cannot hold: its float first row misses the target by a rounding."""
    negs = [-int(v) / 1000 for v in rng.integers(100, 4000, n - 1)]
    return make_spectrum([round(-sum(negs) + 0.125, 3)] + negs)


def test_zero_tolerance_takes_the_exact_eigenvalues_verdict():
    # At zero tolerance the verdict is exactly whether the blocks' exact
    # eigenvalues are the target: 10,-1,-2,-3 has an exact float first row;
    # a thousandths spectrum fails by its rounding, and passes in the
    # default band.
    zero = Tolerances.exact()
    r = realize_suleimanova(make_spectrum([10.0, -1.0, -2.0, -3.0]))
    assert certify(r, zero).verdict is Verdict.PASS
    rng = np.random.default_rng(41)
    verdicts = set()
    for n in (3, 5, 8, 12, 40):
        r = realize_suleimanova(_thousandths(rng, n))
        blocks = r.matrix.layout
        mu = exact_alpha_spectrum(r.matrix.data, blocks)
        same = mu == sorted(map(Fraction, r.target.values))
        report = certify(r, zero)
        assert report.verdict is (Verdict.PASS if same else Verdict.FAIL), n
        assert report.max_residual == float_or_inf(
            alpha_identification_reference(r.matrix.data, blocks, r.target))
        assert certify(r).verdict is Verdict.PASS
        verdicts.add(report.verdict)
    assert Verdict.FAIL in verdicts


@pytest.mark.parametrize(
    "kind", ["N3-DirectSum", "N4-PairedDirectSum", "200-blocks", "wide", "tiny-beside-huge", "zeros"])
def test_verify_reads_a_direct_sum_off_its_exact_zeros(monkeypatch, kind):
    # As a file (no layout) a direct sum splits at its exact zeros into
    # alpha blocks that hold, and gets the closed form: no charpoly.
    r, _ = BLOCK_KINDS[kind]()
    report, calls = _certified_blocks(monkeypatch, replace(r, matrix=DenseMatrix(r.matrix.data)))
    assert len(calls) == 1 and len(calls[0]) > 1 and sum(calls[0]) == r.matrix.n_rows
    assert report.charpoly_ok is CheckState.NOT_APPLICABLE
    assert report.eigenpair_ok is CheckState.PASS and report.verdict is Verdict.PASS


# x has zeros at positions 0 and 2: entry (0, 2) in row 0, (2, 0) in column
# 0, (1, 1) on the diagonal and (3, 2) off it are 0; (0, 3), (3, 0), (5, 5)
# and (5, 7) are not.
EDIT_X = [0.0, 3.0, 0.0, 1.0] + [0.25 * k for k in range(1, 37)]
EDITED_ENTRIES = [(0, 2), (2, 0), (1, 1), (3, 2), (0, 3), (3, 0), (5, 5), (5, 7)]


@pytest.mark.parametrize("i, j", EDITED_ENTRIES)
@pytest.mark.parametrize("edit", ["ulp-up", "ulp-down", "sign-bit"])
def test_an_entry_off_the_bit_layout_takes_the_per_entry_formula(monkeypatch, i, j, edit):
    # An entry off the bit layout, even a zero's sign, gets no closed form:
    # the matrix is no alpha evidence, and at n = 40 no spectral check
    # runs.
    r0 = _alpha_realization(EDIT_X, built=False)
    v = float(r0.matrix.data[i, j])
    data = r0.matrix.data.copy()
    data[i, j] = {"ulp-up": math.nextafter(v, math.inf),
                  "ulp-down": math.nextafter(v, -math.inf), "sign-bit": -v}[edit]
    M = DenseMatrix(data)
    assert detect_blocks(M) == [(0, 40)] and not alpha_blocks_hold(data, [(0, 40)])
    report, calls = _certified_blocks(monkeypatch, replace(r0, matrix=M))
    assert calls == [] and report.eigenpair_ok is report.charpoly_ok is CheckState.NOT_APPLICABLE
    # Informationally its rows are permutations of the first row only where
    # the edit leaves every value as it was: a zero's sign.
    permutative = edit == "sign-bit" and v == 0.0
    assert report.structure_ok is (CheckState.PASS if permutative else CheckState.NOT_APPLICABLE)


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
# the identification near the float limit and near its band
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("values", [
    [1e200] + [-1e198] * 39,
    [1.5e308, -1e307, -1e308],
])
def test_eigenpairs_stay_finite_near_the_float_limit(values):
    r = realize_suleimanova(make_spectrum(values))
    report = certify(r)
    assert report.eigenpair_ok is CheckState.PASS
    assert np.isfinite(report.max_residual)
    shifted = make_spectrum([values[0]] + [1.25 * v for v in values[1:]])
    wrong = Realization(matrix=r.matrix, method=r.method, target=shifted)
    assert certify(wrong).eigenpair_ok is CheckState.FAIL


def _unscaled_verdict(P, target, tol):
    """The eigenpair judgement on the block as stored: a dense P V at the
    band tol.band(max(1, |x|_inf^2)), then its closed-form eigenvalues
    against the target at tol.band(target.scale()); None when a residual
    lies so near its band that rounding may decide it."""
    s, deltas, V = closed_eigensystem(P[0])
    x_inf = float(np.abs(P[0]).max())
    checks = [
        (max(np.abs(P.sum(axis=1) - s).max(), np.abs(P @ V - V * deltas).max()),
         tol.band(max(1.0, x_inf * x_inf))),
        (np.abs(np.sort([s, *deltas])[::-1] - np.asarray(target.values)).max(),
         tol.band(target.scale())),
    ]
    if any(abs(res - band) <= 1e-6 * band for res, band in checks):
        return None
    return CheckState.PASS if all(res <= band for res, band in checks) else CheckState.FAIL


@pytest.mark.parametrize("tol", [Tolerances(), Tolerances(1e-3, 1e-12)])
@pytest.mark.parametrize("x_inf", [0.3, 1.2, 1.7, 1e3, 1e150])
def test_scaled_eigenpair_verdict_matches_the_unscaled_rule(tol, x_inf):
    # The exact identification gives the verdict of the dense rule on the
    # block as stored wherever rounding cannot decide that rule: targets
    # moved from far below to far above the band give its states.  (The
    # block holds exactly, as structure requires; a moved entry would fail
    # structure instead.)
    rng = np.random.default_rng(17)
    n = CHARPOLY_FLOAT_CERTIFY_MAX_N + 1  # keeps the exact charpoly out
    x = rng.uniform(0.1, 1.0, n)
    x *= x_inf / x.max()
    P = assemble(alpha_tuple(n), x.tolist()).data
    s, deltas, _ = closed_eigensystem(P[0])
    values = sorted([s, *deltas], reverse=True)
    seen = set()
    for h in np.geomspace(1e-7, 1e2, 61) * tol.band(make_spectrum(values).scale()):
        target = make_spectrum([values[0] + h, *values[1:]])
        expected = _unscaled_verdict(P, target, tol)
        if expected is None:
            continue
        r = Realization(matrix=DenseMatrix(P), method="", target=target)
        report = certify(r, tol)
        assert report.structure_ok is CheckState.PASS
        assert report.eigenpair_ok is expected, h
        seen.add(expected)
    assert seen == {CheckState.PASS, CheckState.FAIL}


def _bits_equal(A, B):
    if A.dtype == np.float64:
        A, B = A.view(np.uint64), B.view(np.uint64)
    return bool((A == B).all())


@pytest.mark.parametrize("exact", [False, True])
def test_blocks_hold_by_slices_matches_the_index_version(exact):
    # One-entry edits of the smallest size (an ulp, 10^-30) and of size 2,
    # up and down, in column 0, on the diagonal, in the interior and off the
    # blocks, of seeded alpha blocks (one of order 33 among others), alone
    # and followed by an N4-Group block.  The index reference holds exactly
    # when the edited array is the layout built from its blocks' first
    # rows; on the alpha sums alpha_blocks_hold agrees with it.
    rng = np.random.default_rng(23)
    group = realize_small(make_spectrum([8.0, 6.0, 0.0, 0.0])).matrix.first_rows.tolist()
    if exact:
        group = [Fraction(v) for v in group]
        edits = [lambda v, d=d: v + d for d in (Fraction(1, 10**30), -Fraction(1, 10**30), 2, -2)]
    else:
        edits = [lambda v: np.nextafter(v, np.inf), lambda v: np.nextafter(v, -np.inf),
                 lambda v: v + 2, lambda v: v - 2]
    seen = set()
    for sizes in ((7,), (1, 4, 2), (3, 1), (33, 2)):
        alphas, x = [alpha_tuple(k) for k in sizes], []
        for k in sizes:
            x += [Fraction(int(v), 8) for v in rng.integers(0, 40, k)] if exact \
                else rng.uniform(0.0, 5.0, k).tolist()
        for M0 in (assemble_blocks(alphas, x), assemble_blocks(alphas + [GROUP_TUPLE], x + group)):
            blocks, A0 = M0.layout, M0.data
            pts = [pt for _, pt in blocks]
            n = len(A0)
            s = np.repeat([a for a, _ in blocks], [pt.n for pt in pts])
            split = [(a, a + pt.n) for a, pt in blocks]
            alpha = all(pt.is_alpha for pt in pts)
            alone = {(a, a) for a, pt in blocks if pt.n == 1}  # any value is its layout
            assert blocks_hold_by_index(A0, blocks)
            assert alpha_blocks_hold(A0, split) is alpha
            for i in range(n):
                for j in {0, i, (i + 1) % n, int(rng.integers(n))}:
                    for edit in edits:
                        A = A0.copy()
                        A[i, j] = edit(A[i, j])
                        want = blocks_hold_by_index(A, blocks)
                        assert want == ((i, j) in alone)
                        rebuilt = assemble_blocks(pts, A[s, np.arange(n)]).data
                        assert want == _bits_equal(A, rebuilt), (sizes, i, j)
                        if alpha:
                            assert alpha_blocks_hold(A, split) == want, (sizes, i, j)
                        seen.add(want)
    assert seen == {True, False}


def test_recorded_blocks_are_proved_unless_they_are_the_matrix_layout(monkeypatch):
    # A built matrix is its layout without a scan; the same entries as a
    # dense array are split at their zeros and those blocks checked.
    calls = []

    def counted(A, split):
        calls.append(len(split))
        return alpha_blocks_hold(A, split)

    monkeypatch.setattr(verify_mod, "alpha_blocks_hold", counted)
    r = realize_suleimanova(make_spectrum([3.0, 3.0, 3.0]))  # 3 * identity
    assert r.matrix.layout == ((0, alpha_tuple(3)),) and r.case is None
    unbuilt = replace(r, matrix=DenseMatrix(r.matrix.data))
    for realization, want in ((r, []), (unbuilt, [3])):
        calls.clear()
        report = certify(realization)
        assert (calls, report.structure_ok, report.verdict) == \
            (want, CheckState.PASS, Verdict.PASS)
