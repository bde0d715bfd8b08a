"""Optimizer configuration and result types."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterDomainError, is_count

#: The OptimizerSpec fields each kind's algorithm reads, besides its kind.
SPEC_FIELDS = {
    "bfgs": ("maxiter", "ftol", "gradient_step"),
    "slsqp": ("maxiter", "ftol", "gradient_step"),
    "nelder_mead": ("maxiter",),
    "powell": ("maxiter",),
    "cobyla": ("maxiter",),
    "isoma": ("isoma",),
}
OPTIMIZER_KINDS = tuple(SPEC_FIELDS)


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
        if not (self.var_min < self.var_max and math.isfinite(self.var_max - self.var_min)):
            raise ParameterDomainError("iSOMA needs var_min < var_max and a finite var_max - var_min")
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
    gradient_step: float | None = None  # unset: gradient.GRADIENT_STEP, widened under shots
    isoma: IsomaParams = field(default_factory=IsomaParams)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ParameterDomainError(f"unknown optimizer kind {self.kind!r}")
        if not is_count(self.maxiter):
            raise ParameterDomainError("maxiter must be an integer from 1 to 2**63 - 1")
        if not 0 < self.ftol < math.inf:
            raise ParameterDomainError(f"ftol must be positive and finite, got {self.ftol!r}")
        if self.gradient_step is not None and not 0 < self.gradient_step < math.inf:
            raise ParameterDomainError(
                f"gradient step must be positive and finite, got {self.gradient_step!r}"
            )


@dataclass
class OptResult:
    theta_best: np.ndarray
    n_evals: int
    converged: bool
    trace: list[tuple[int, float]]
