"""The package's public surface: the names ``permrealize`` exports."""

from __future__ import annotations

import permrealize

#: Every name in permrealize.__all__, sorted.  A change to the public
#: surface edits this list on purpose.
PUBLIC_NAMES = [
    "BenchEntry",
    "BenchReport",
    "Classification",
    "CompanionRealization",
    "ConditionReport",
    "DenseMatrix",
    "DimensionMismatchError",
    "DimensionOutOfRangeError",
    "DimensionTooLargeError",
    "EmptyInputError",
    "InternalCaseGapError",
    "NecessaryConditionViolationError",
    "NonFiniteEntryError",
    "NotApplicableError",
    "NotSquareError",
    "NotSuleimanovaError",
    "ParseError",
    "PermTuple",
    "PerronViolationError",
    "Realization",
    "RealizationError",
    "SearchResult",
    "Spectrum",
    "SpectrumKind",
    "Tolerances",
    "VerificationReport",
    "alpha_tuple",
    "as_realization",
    "assemble",
    "certify",
    "char_poly",
    "check_necessary",
    "classify",
    "cyclic_tuple",
    "detect_blocks",
    "explore",
    "fit_first_row",
    "from_rows",
    "is_nonnegative",
    "is_permutative",
    "make_spectrum",
    "matrix_from_csv",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_to_json",
    "objective",
    "poly_from_roots",
    "quarter_sums",
    "realize",
    "realize_companion",
    "realize_small",
    "realize_suleimanova",
    "run_bench",
    "suleimanova_first_row",
    "synthetic_spectrum",
    "transposition_tuples",
]


def test_the_public_surface_is_these_56_names_and_each_resolves():
    assert len(PUBLIC_NAMES) == 56
    assert sorted(permrealize.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(permrealize, name) is not None, name
    namespace: dict = {}
    exec("from permrealize import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
