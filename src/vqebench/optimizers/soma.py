"""Population-based global minimizer with leader-directed migrations."""
from __future__ import annotations

import numpy as np

from .result import OptimizerSpec


class _MaxFesSpent(Exception):
    """Internal signal: iSOMA has made its max_fes evaluations."""


def isoma_minimize(session, theta0, spec: OptimizerSpec, rng: np.random.Generator) -> bool:
    """Self-organizing migration: random subsets of the population send their
    best members jumping toward a sampled leader, with per-coordinate
    perturbation masks resampled at every jump and greedy acceptance.

    theta0 only fixes the dimensionality; the initial population is uniform
    in [var_min, var_max]^dim.  The run stops after max_fes evaluations, even
    inside the initial population, or after max_migration migrations.  Either
    is the planned stop, so the run reports converged.
    """
    params = spec.isoma

    def evaluate(points) -> list[float]:
        """The points' values as one stack, cut at max_fes."""
        left = params.max_fes - session.n_evals
        values = session.many(points[:left]) if left else []
        if len(points) > left:
            raise _MaxFesSpent
        return values

    dim = theta0.size
    try:
        population = rng.uniform(params.var_min, params.var_max, size=(params.pop_size, dim))
        fitness = np.array(evaluate(population))
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
                # masks for the jumps max_fes allows and for the first one past
                # it, which draws its mask before the run stops
                n_jumps = min(params.n_jump, params.max_fes - session.n_evals + 1)
                masks = np.array([_jump_mask(rng, dim, params.prt) for _ in range(n_jumps)])
                jumps = np.arange(1, n_jumps + 1)[:, None]
                candidates = start + jumps * params.step * (target - start) * masks
                candidates = np.clip(candidates, params.var_min, params.var_max)
                best_x, best_f = start, fitness[j]
                for candidate, f_cand in zip(candidates, evaluate(candidates)):
                    if f_cand < best_f:
                        best_x, best_f = candidate, f_cand
                population[j] = best_x
                fitness[j] = best_f
    except _MaxFesSpent:
        pass
    return True


def _jump_mask(rng: np.random.Generator, dim: int, prt: float) -> np.ndarray:
    """Which coordinates take part in one jump: each with probability prt,
    and one drawn at random if none did."""
    mask = (rng.random(dim) < prt).astype(float)
    if not mask.any():
        mask[rng.integers(dim)] = 1.0
    return mask
