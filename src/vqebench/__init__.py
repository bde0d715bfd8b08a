"""vqebench: a benchmarking workbench for variational quantum eigensolver
optimizers under configurable noise.

Subpackages: qsim (mixed-state simulation on Pauli vectors), ensemble
(state-averaged cost), optimizers (six from-scratch minimizers), stats
(multivariate statistical battery), harness (noise catalog, run execution,
CLI).  Every package but optimizers exports its names by `_exports`: a
name loads its module on first use, so importing the package loads none
of its modules.
"""
import importlib


def _exports(package: str, names_of: dict[str, tuple[str, ...]]):
    """The `__getattr__` (PEP 562) and `__all__` of `package`, from a map of
    each of its modules to the names it exports."""
    module_of = {name: module for module, names in names_of.items() for name in names}

    def __getattr__(name):
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f".{module_of[name]}", package), name)

    return __getattr__, sorted(module_of)


__version__ = "0.1.0"

__getattr__, __all__ = _exports(__name__, {
    "ensemble": (
        "EnsembleContext",
        "ReferencePair",
        "reference_energies",
        "resolve_states",
        "sa_cost",
    ),
    "errors": (
        "CapacityError",
        "CostEvaluationError",
        "DegenerateSampleError",
        "DimensionError",
        "InvalidChannelError",
        "ParameterDomainError",
        "VqeBenchError",
    ),
})
__all__.append("__version__")
