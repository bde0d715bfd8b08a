"""Exception hierarchy shared across the package."""


class VqeBenchError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(VqeBenchError, ValueError):
    """A numeric parameter is outside its valid domain."""


class InvalidChannelError(VqeBenchError, ValueError):
    """Channel parameters do not define a CPTP map (e.g. T2 > 2*T1)."""


class DimensionError(VqeBenchError, ValueError):
    """Operands have incompatible dimensions or qubit counts."""


class CapacityError(VqeBenchError, ValueError):
    """Problem size exceeds what dense simulation supports."""


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
