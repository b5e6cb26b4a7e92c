"""Exception types raised across the package."""


class RealizationError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyInputError(RealizationError, ValueError):
    pass


class NonFiniteEntryError(RealizationError, ValueError):
    pass


class ParseError(RealizationError, ValueError):
    pass


class NotSquareError(RealizationError, ValueError):
    pass


class DimensionMismatchError(RealizationError, ValueError):
    pass


class DimensionTooLargeError(RealizationError, ValueError):
    pass


class NotApplicableError(RealizationError, ValueError):
    """The construction does not cover this spectrum; says nothing of realizability."""


class DimensionOutOfRangeError(NotApplicableError):
    pass


class NecessaryConditionViolationError(RealizationError, ValueError):
    """The spectrum fails a condition every realizable spectrum satisfies."""


class PerronViolationError(NecessaryConditionViolationError):
    """The spectral radius is not attained by a (nonnegative) member of the spectrum."""


class NotSuleimanovaError(NotApplicableError):
    pass


class InternalCaseGapError(RealizationError, RuntimeError):
    """A derived case analysis reached a state it proved impossible; a bug, not bad input."""
