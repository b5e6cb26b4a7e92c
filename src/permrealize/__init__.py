"""Nonnegative matrices with prescribed real spectra.

Construct explicit nonnegative realizing matrices — one permutative matrix
whenever the paper's first row is nonnegative (every Suleimanova spectrum
among them), direct sums of permutative blocks for every realizable
spectrum of order at most 4, companion matrices as a baseline —
and certify each output by characteristic-polynomial matching or by
identifying its alpha blocks' closed-form eigenvalues exactly.  A budgeted
pattern search explores
permutative realizations beyond the closed-form range (orders 5 to 8).
"""

from .bench import BenchEntry, BenchReport, run_bench, synthetic_spectrum
from .companion import CompanionRealization, as_realization, realize_companion
from .dispatch import realize
from .errors import (
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DimensionTooLargeError,
    EmptyInputError,
    InternalCaseGapError,
    NecessaryConditionViolationError,
    NonFiniteEntryError,
    NotApplicableError,
    NotSquareError,
    NotSuleimanovaError,
    ParseError,
    PerronViolationError,
    RealizationError,
)
from .explorer import (
    SearchResult,
    cyclic_tuple,
    explore,
    fit_first_row,
    objective,
    transposition_tuples,
)
from .linalg import (
    DenseMatrix,
    PermTuple,
    Tolerances,
    alpha_tuple,
    assemble,
    char_poly,
    direct_sum,
    from_rows,
    identity,
    is_nonnegative,
    is_permutative,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    poly_from_roots,
)
from .small_order import quarter_sums, realize_small
from .spectrum import (
    Classification,
    ConditionReport,
    Spectrum,
    SpectrumKind,
    check_necessary,
    classify,
    make_spectrum,
)
from .suleimanova import (
    realize_suleimanova,
    suleimanova_first_row,
)
from .verify import Realization, VerificationReport, certify, detect_blocks

__version__ = "0.1.0"

__all__ = [
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
    "direct_sum",
    "explore",
    "fit_first_row",
    "from_rows",
    "identity",
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
