"""Population-based global minimizer with leader-directed migrations."""
from __future__ import annotations

import numpy as np

from .result import OptimizerSpec
from .session import BudgetExhausted


def isoma_minimize(session, theta0, spec: OptimizerSpec, rng: np.random.Generator) -> bool:
    """Self-organizing migration: random subsets of the population send their
    best members jumping toward a sampled leader, with per-coordinate
    perturbation masks resampled at every jump and greedy acceptance.

    theta0 only fixes the dimensionality; the initial population is uniform
    in [var_min, var_max]^dim.  max_fes is the planned stop, not a budget
    overrun, so a run that spends it still reports converged.
    """
    params = spec.isoma
    dim = theta0.size
    try:
        population = rng.uniform(params.var_min, params.var_max, size=(params.pop_size, dim))
        fitness = np.array([session(x) for x in population])
        for _ in range(params.max_migration):
            chosen = rng.choice(params.pop_size, size=params.m, replace=False)
            migrants = chosen[np.argsort(fitness[chosen], kind="stable")[: params.n]]
            for j in migrants:
                leader_pool = rng.choice(params.pop_size, size=params.k, replace=False)
                leader = leader_pool[int(np.argmin(fitness[leader_pool]))]
                if leader == j:
                    continue
                start = population[j].copy()
                target = population[leader]
                best_x, best_f = start, fitness[j]
                for jump in range(1, params.n_jump + 1):
                    mask = (rng.random(dim) < params.prt).astype(float)
                    if not mask.any():
                        mask[rng.integers(dim)] = 1.0
                    candidate = start + jump * params.step * (target - start) * mask
                    candidate = np.clip(candidate, params.var_min, params.var_max)
                    f_cand = session(candidate)
                    if f_cand < best_f:
                        best_x, best_f = candidate, f_cand
                population[j] = best_x
                fitness[j] = best_f
    except BudgetExhausted:
        pass
    return True
