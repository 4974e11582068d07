"""Exception hierarchy shared by all modules.

The precision-related errors are part of the numeric contract: any
computation whose answer would depend on digits beyond the stored
precision must raise PrecisionExhausted instead of guessing.
"""


class PadicRmtError(Exception):
    """Base class for all library errors."""


class BadConfiguration(PadicRmtError):
    """The input asks for a computation that does not apply to it (the
    command line exits 1, where other library errors exit 2)."""


class DimensionMismatch(PadicRmtError):
    """Matrix shapes are incompatible for the requested operation."""


class IndexOutOfRange(PadicRmtError):
    """A 1-based row/corner index falls outside the matrix."""


class DenominatorNotInvertible(PadicRmtError):
    """A rational entry has p in its reduced denominator after shift extraction."""


class PrecisionExhausted(PadicRmtError):
    """The answer depends on digits beyond the stored precision."""


class SingularMatrix(PadicRmtError):
    """Rank deficiency certified on exact zeros where full rank was required."""


class NotInterlacing(BadConfiguration):
    """The pair of signatures does not satisfy the interlacing relation."""


class ZeroPointWithNegativeWeight(BadConfiguration):
    """An evaluation point is 0 while some chain carries a negative exponent there."""


class RepeatedPoints(BadConfiguration):
    """The symmetrized evaluator needs pairwise distinct points."""


class KernelPole(BadConfiguration):
    """Some product a_i * b_j equals 1, so the kernel has a pole."""


class InequalityViolated(PadicRmtError):
    """An exact inequality that must hold was violated (implementation bug signal)."""


class ConstraintViolated(PadicRmtError):
    """A structural constraint (e.g. balanced signature pairs) failed exactly."""
