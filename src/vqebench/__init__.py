"""vqebench: a benchmarking workbench for variational quantum eigensolver
optimizers under configurable noise.

Subpackages: qsim (mixed-state simulation on Pauli vectors), ensemble
(state-averaged cost), optimizers (six from-scratch minimizers), stats
(multivariate statistical battery), harness (noise catalog, run execution,
CLI).  The ensemble names below load the simulator on first use, not on
import.
"""
import importlib

from .errors import (
    CapacityError,
    CostEvaluationError,
    DegenerateSampleError,
    DimensionError,
    InvalidChannelError,
    ParameterDomainError,
    VqeBenchError,
)

__version__ = "0.1.0"

_ENSEMBLE = ("EnsembleContext", "ReferencePair", "reference_energies", "resolve_states", "sa_cost")

__all__ = [
    "CapacityError",
    "CostEvaluationError",
    "DegenerateSampleError",
    "DimensionError",
    "EnsembleContext",
    "InvalidChannelError",
    "ParameterDomainError",
    "ReferencePair",
    "VqeBenchError",
    "__version__",
    "reference_energies",
    "resolve_states",
    "sa_cost",
]


def __getattr__(name):
    if name not in _ENSEMBLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".ensemble", __name__), name)
