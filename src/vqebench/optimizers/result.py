"""Optimizer configuration and result types."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from ..errors import ParameterDomainError

OPTIMIZER_KINDS = ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla", "isoma")


@dataclass(frozen=True)
class IsomaParams:
    n_jump: int = 10
    step: float = 0.11
    pop_size: int = 25
    max_migration: int = 30
    max_fes: int = 750
    var_min: float = -2.0 * math.pi
    var_max: float = 2.0 * math.pi
    m: int = 15
    n: int = 5
    k: int = 10
    prt: float = 0.3  # probability that a coordinate takes part in a jump

    def __post_init__(self):
        counts = (self.n_jump, self.pop_size, self.max_migration, self.max_fes, self.m, self.n, self.k)
        if not all(isinstance(c, Integral) for c in counts):
            raise ParameterDomainError("iSOMA counts must be integers")
        if self.var_min >= self.var_max:
            raise ParameterDomainError("var_min must be below var_max")
        if not self.m <= self.pop_size:
            raise ParameterDomainError("m must not exceed pop_size")
        if not self.n <= self.m:
            raise ParameterDomainError("n must not exceed m")
        if not self.k <= self.pop_size:
            raise ParameterDomainError("k must not exceed pop_size")
        if min(self.n_jump, self.pop_size, self.max_migration, self.max_fes) < 1:
            raise ParameterDomainError("iSOMA counts must be positive")
        if not 0.0 < self.prt <= 1.0:
            raise ParameterDomainError("prt must lie in (0, 1]")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str
    maxiter: int = 500
    ftol: float = 1e-8
    gradient_step: float = 1e-6
    isoma: IsomaParams = field(default_factory=IsomaParams)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ParameterDomainError(f"unknown optimizer kind {self.kind!r}")
        if not isinstance(self.maxiter, Integral) or self.maxiter < 1:
            raise ParameterDomainError("maxiter must be an integer >= 1")
        if self.ftol <= 0:
            raise ParameterDomainError("ftol must be positive")
        if self.gradient_step <= 0:
            raise ParameterDomainError("gradient step must be positive")


@dataclass
class OptResult:
    theta_best: np.ndarray
    f_best: float
    n_evals: int
    converged: bool
    trace: list[tuple[int, float]]
