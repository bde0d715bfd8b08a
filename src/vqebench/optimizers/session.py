"""Evaluation bookkeeping shared by all minimizers."""
from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ..errors import CostEvaluationError
from .result import OptResult


class StackCost(NamedTuple):
    """A cost that evaluates an (m, p) stack of points in one call and
    returns their m values in row order.  The values, and the draws from
    any random stream, must be those of m calls on one row each, in order."""

    evaluate: Callable[[np.ndarray], np.ndarray]


def _one_at_a_time(cost) -> Callable[[np.ndarray], Iterator[float]]:
    """A cost of one point, as a StackCost's evaluate: one call per row,
    made only when the session asks for that row's value."""
    return lambda thetas: (cost(theta) for theta in thetas)


class CostSession:
    """Wraps a cost with counting, tracing, NaN detection and the best
    point so far.  It never stops a run: each algorithm stops by its own
    loop.

    The cost is a StackCost, or a function of one point, which the session
    calls once per row.  Every evaluation, of one point or of a stack, goes
    through `many`, which books the rows in order as if they had been
    evaluated one at a time: at the first NaN row it raises
    CostEvaluationError, with that row counted in the error's n_evals, and
    calls a function of one point on no later row."""

    def __init__(self, cost):
        self._evaluate = cost.evaluate if isinstance(cost, StackCost) else _one_at_a_time(cost)
        self.n_evals = 0
        self.trace: list[tuple[int, float]] = []
        self.best_theta: np.ndarray | None = None
        self.best_f = math.inf

    def __call__(self, theta) -> float:
        return self.many([theta])[0]

    def many(self, thetas) -> list[float]:
        """The values of a sequence of points, evaluated as one stack."""
        thetas = np.array(thetas, dtype=float)
        values = []
        for theta, value in zip(thetas, self._evaluate(thetas)):
            value = float(value)
            if math.isnan(value):
                raise CostEvaluationError(theta.copy(), self.n_evals + 1)
            self.n_evals += 1
            self.trace.append((self.n_evals, value))
            if value < self.best_f:
                self.best_f = value
                self.best_theta = theta.copy()
            values.append(value)
        return values

    def result(self, converged: bool) -> OptResult:
        """The best point seen so far, as the minimizer's result."""
        return OptResult(
            theta_best=self.best_theta,
            f_best=self.best_f,
            n_evals=self.n_evals,
            converged=converged,
            trace=self.trace,
        )
