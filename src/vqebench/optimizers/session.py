"""Evaluation bookkeeping shared by all minimizers."""
from __future__ import annotations

import math

import numpy as np

from ..errors import CostEvaluationError, DimensionError


class CostSession:
    """Wraps a cost with counting, tracing, NaN detection and the best
    point so far.  It never stops a run: each algorithm stops by its own
    loop.

    The cost evaluates an (m, p) stack of points in one call and returns
    their m values in row order.  The values, and the draws from any random
    stream, must be those of m calls on one row each, in order.  `many` is
    the one place the cost is called.  It books the rows in order as if
    they had been evaluated one at a time: at the first NaN row it raises
    CostEvaluationError, with that row counted in the error's n_evals."""

    def __init__(self, cost):
        self._cost = cost
        self.n_evals = 0
        self.trace: list[tuple[int, float]] = []
        self.best_theta: np.ndarray | None = None
        self.best_f = math.inf

    def run(self, steps):
        """Drive an ask/tell generator to its end: send it the values of each
        (m, p) stack it yields, from `many`, and return what it returns."""
        try:
            points = next(steps)
            while True:
                points = steps.send(self.many(points))
        except StopIteration as stop:
            return stop.value

    def many(self, thetas) -> list[float]:
        """The values of a sequence of points, evaluated as one stack."""
        thetas = np.array(thetas, dtype=float)
        values = np.asarray(self._cost(thetas), dtype=float)
        if values.shape != (len(thetas),):
            raise DimensionError(
                f"cost returned {values.size} values for a stack of {len(thetas)} points"
            )
        values = values.tolist()
        for theta, value in zip(thetas, values):
            if math.isnan(value):
                raise CostEvaluationError(theta.copy(), self.n_evals + 1)
            self.n_evals += 1
            self.trace.append((self.n_evals, value))
            if value < self.best_f:
                self.best_f = value
                self.best_theta = theta.copy()
        return values
