"""Exception hierarchy shared across the package, and the integer and count
rules of its parameter checks."""
from numbers import Integral

MAX_COUNT = 2**63 - 1  # the largest count numpy takes as an int64


def is_integer(value) -> bool:
    """An integer parameter value: any Integral except a bool, so JSON
    ``true`` is not the count 1 and ``256.0`` is not 256."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A count that reaches numpy: an integer from 1 to MAX_COUNT."""
    return is_integer(value) and 1 <= value <= MAX_COUNT


class VqeBenchError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(VqeBenchError, ValueError):
    """A numeric parameter is outside its valid domain."""


class InvalidChannelError(VqeBenchError, ValueError):
    """Channel parameters do not define a CPTP map (e.g. T2 > 2*T1)."""


class DimensionError(VqeBenchError, ValueError):
    """Operands have incompatible dimensions or qubit counts."""


class CapacityError(VqeBenchError, ValueError):
    """Problem size exceeds what the Pauli-vector simulator supports."""


class DegenerateSampleError(VqeBenchError, ValueError):
    """A statistical procedure received a sample it cannot handle
    (singular covariance, too few points, ...)."""


class CostEvaluationError(VqeBenchError, RuntimeError):
    """The cost function returned NaN; carries the offending parameter vector
    and the number of evaluations made, the NaN one included."""

    def __init__(self, theta, n_evals: int):
        self.theta = theta
        self.n_evals = n_evals
        super().__init__(f"cost function returned NaN at theta={theta!r}")
