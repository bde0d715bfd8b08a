"""Six seeded minimizers behind one dispatch function."""
from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError
from .direct import cobyla_minimize, nelder_mead_minimize, powell_minimize
from .gradient import bfgs_minimize, finite_difference_gradient, slsqp_minimize
from .result import OPTIMIZER_KINDS, IsomaParams, OptimizerSpec, OptResult
from .session import CostSession, StackCost
from .soma import isoma_minimize

_DISPATCH = {
    "bfgs": bfgs_minimize,
    "slsqp": slsqp_minimize,
    "nelder_mead": nelder_mead_minimize,
    "powell": powell_minimize,
    "cobyla": cobyla_minimize,
    "isoma": isoma_minimize,
}


def minimize(cost, theta0, spec: OptimizerSpec, rng: np.random.Generator | None = None) -> OptResult:
    """Run the algorithm named by spec.kind as algo(session, theta0, spec,
    rng) -> converged on one CostSession that counts the evaluations.  cost
    is a function of one point or a StackCost; with a StackCost, points an
    algorithm knows before it needs their values (a gradient's 2*dim, an
    initial simplex or population, a Nelder-Mead shrink, a migrant's jumps)
    are evaluated as one stack, with the same result.  Each algorithm stops
    by its own loop (maxiter; iSOMA at max_fes), and a NaN cost raises
    CostEvaluationError.  Deterministic given (theta0, spec, rng seed)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1 or theta0.size < 1:
        raise ParameterDomainError("theta0 must be a non-empty 1-D vector")
    if rng is None:
        rng = np.random.default_rng(0)
    session = CostSession(cost)
    return session.result(_DISPATCH[spec.kind](session, theta0, spec, rng))


__all__ = [
    "OPTIMIZER_KINDS",
    "IsomaParams",
    "OptResult",
    "OptimizerSpec",
    "StackCost",
    "finite_difference_gradient",
    "minimize",
]
