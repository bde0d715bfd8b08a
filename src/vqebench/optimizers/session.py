"""Evaluation bookkeeping shared by all minimizers."""
from __future__ import annotations

import math

import numpy as np

from ..errors import CostEvaluationError
from .result import OptimizerSpec, OptResult

# evaluation caps that eval_budget counts
MAX_BACKTRACKS = 30  # line-search halvings per BFGS/SQP iteration
LINE_EVAL_CAP = 80  # evaluations per Powell line minimization
TR_MAX_RAY = 6  # evaluations per trust-region ray


def eval_budget(kind: str, dim: int, spec: OptimizerSpec) -> int:
    """Documented hard evaluation cap for each algorithm."""
    if kind in ("bfgs", "slsqp"):
        # initial f + grad, then per iteration: backtracks + new gradient
        return 1 + 2 * dim + spec.maxiter * (MAX_BACKTRACKS + 1 + 2 * dim)
    if kind == "nelder_mead":
        return (dim + 1) + spec.maxiter * (dim + 2)
    if kind == "powell":
        # per cycle: dim+1 line minimizations, each capped, plus one probe
        return 1 + spec.maxiter * ((dim + 1) * LINE_EVAL_CAP + 1)
    if kind == "cobyla":
        return (dim + 1) + spec.maxiter * (2 * TR_MAX_RAY + 1)
    if kind == "isoma":
        return spec.isoma.max_fes
    raise ValueError(kind)


class BudgetExhausted(Exception):
    """Internal signal: the evaluation cap was hit; return best-so-far."""


class CostSession:
    """Wraps a cost function with counting, tracing, NaN detection and an
    optional hard evaluation cap."""

    def __init__(self, cost, max_evals: int | None = None):
        self._cost = cost
        self.max_evals = max_evals
        self.n_evals = 0
        self.trace: list[tuple[int, float]] = []
        self.best_theta: np.ndarray | None = None
        self.best_f = math.inf

    def __call__(self, theta) -> float:
        if self.max_evals is not None and self.n_evals >= self.max_evals:
            raise BudgetExhausted
        theta = np.asarray(theta, dtype=float)
        value = float(self._cost(theta))
        if math.isnan(value):
            raise CostEvaluationError(theta.copy())
        self.n_evals += 1
        self.trace.append((self.n_evals, value))
        if value < self.best_f:
            self.best_f = value
            self.best_theta = theta.copy()
        return value

    @property
    def exhausted(self) -> bool:
        return self.max_evals is not None and self.n_evals >= self.max_evals

    def result(self, converged: bool) -> OptResult:
        """The best point seen so far, as the minimizer's result."""
        return OptResult(
            theta_best=self.best_theta,
            f_best=self.best_f,
            n_evals=self.n_evals,
            converged=converged,
            trace=self.trace,
        )
