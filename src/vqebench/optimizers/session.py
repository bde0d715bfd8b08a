"""Evaluation bookkeeping shared by all minimizers."""
from __future__ import annotations

import math

import numpy as np

from ..errors import CostEvaluationError
from .result import OptResult


class CostSession:
    """Wraps a cost function with counting, tracing, NaN detection and the
    best point so far.  It never stops a run: each algorithm stops by its
    own loop."""

    def __init__(self, cost):
        self._cost = cost
        self.n_evals = 0
        self.trace: list[tuple[int, float]] = []
        self.best_theta: np.ndarray | None = None
        self.best_f = math.inf

    def __call__(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        value = float(self._cost(theta))
        if math.isnan(value):
            raise CostEvaluationError(theta.copy(), self.n_evals + 1)
        self.n_evals += 1
        self.trace.append((self.n_evals, value))
        if value < self.best_f:
            self.best_f = value
            self.best_theta = theta.copy()
        return value

    def result(self, converged: bool) -> OptResult:
        """The best point seen so far, as the minimizer's result."""
        return OptResult(
            theta_best=self.best_theta,
            f_best=self.best_f,
            n_evals=self.n_evals,
            converged=converged,
            trace=self.trace,
        )
