"""Six seeded minimizers behind one dispatch function."""
from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError
from .direct import cobyla_minimize, nelder_mead_minimize, powell_minimize
from .gradient import bfgs_minimize, slsqp_minimize
from .result import OPTIMIZER_KINDS, SPEC_FIELDS, IsomaParams, OptimizerSpec, OptResult
from .session import CostSession
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
    """Drive the algorithm named by spec.kind, an ask/tell generator
    algo(theta0, spec, rng) that yields (m, p) stacks of points, is sent
    their values and returns converged, on one CostSession.  cost maps an
    (m, p) stack to its m values in row order; points an algorithm knows
    before it needs their values (a gradient's 2*dim, an initial simplex or
    population, a Nelder-Mead shrink, a migrant's jumps) reach it as one
    stack, and every other point as a stack of one.  A cost that returns
    another number of values raises DimensionError, and a NaN value
    CostEvaluationError.  Each algorithm stops by its own loop (maxiter;
    iSOMA at max_fes).  Deterministic given (theta0, spec, rng seed)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1 or theta0.size < 1:
        raise ParameterDomainError("theta0 must be a non-empty 1-D vector")
    if rng is None:
        rng = np.random.default_rng(0)
    session = CostSession(cost)
    converged = session.run(_DISPATCH[spec.kind](theta0, spec, rng))
    return OptResult(session.best_theta, session.n_evals, converged, session.trace)


__all__ = [
    "OPTIMIZER_KINDS",
    "SPEC_FIELDS",
    "IsomaParams",
    "OptResult",
    "OptimizerSpec",
    "minimize",
]
