"""Optimizer configuration and result types."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterDomainError, is_count

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
        for count in ("n_jump", "pop_size", "max_migration", "max_fes", "m", "n", "k"):
            if not is_count(getattr(self, count)):
                raise ParameterDomainError(f"iSOMA {count} must be an integer from 1 to 2**63 - 1")
        if not -math.inf < self.var_min < self.var_max < math.inf:
            raise ParameterDomainError("var_min and var_max must be finite, var_min below var_max")
        if not math.isfinite(self.step):
            raise ParameterDomainError(f"iSOMA step must be finite, got {self.step!r}")
        if not self.m <= self.pop_size:
            raise ParameterDomainError("m must not exceed pop_size")
        if not self.n <= self.m:
            raise ParameterDomainError("n must not exceed m")
        if not self.k <= self.pop_size:
            raise ParameterDomainError("k must not exceed pop_size")
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
        if not is_count(self.maxiter):
            raise ParameterDomainError("maxiter must be an integer from 1 to 2**63 - 1")
        if not 0 < self.ftol < math.inf:
            raise ParameterDomainError(f"ftol must be positive and finite, got {self.ftol!r}")
        if not 0 < self.gradient_step < math.inf:
            raise ParameterDomainError(
                f"gradient step must be positive and finite, got {self.gradient_step!r}"
            )


@dataclass
class OptResult:
    theta_best: np.ndarray
    f_best: float
    n_evals: int
    converged: bool
    trace: list[tuple[int, float]]
