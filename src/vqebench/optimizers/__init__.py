"""Six seeded, budgeted minimizers behind one dispatch function."""
from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError
from .direct import cobyla_minimize, nelder_mead_minimize, powell_minimize
from .gradient import bfgs_minimize, finite_difference_gradient, slsqp_minimize
from .result import OPTIMIZER_KINDS, IsomaParams, OptimizerSpec, OptResult
from .session import BudgetExhausted, CostSession, eval_budget
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
    rng) -> converged on the one CostSession that counts and caps evaluations
    (eval_budget); hitting the cap gives converged=False and a NaN cost raises
    CostEvaluationError.  Deterministic given (theta0, spec, rng seed)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1 or theta0.size < 1:
        raise ParameterDomainError("theta0 must be a non-empty 1-D vector")
    if rng is None:
        rng = np.random.default_rng(0)
    session = CostSession(cost, max_evals=eval_budget(spec.kind, theta0.size, spec))
    try:
        converged = _DISPATCH[spec.kind](session, theta0, spec, rng)
    except BudgetExhausted:
        converged = False
    return session.result(converged)


__all__ = [
    "OPTIMIZER_KINDS",
    "IsomaParams",
    "OptResult",
    "OptimizerSpec",
    "bfgs_minimize",
    "cobyla_minimize",
    "eval_budget",
    "finite_difference_gradient",
    "isoma_minimize",
    "minimize",
    "nelder_mead_minimize",
    "powell_minimize",
    "slsqp_minimize",
]
