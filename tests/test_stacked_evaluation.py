"""Stacked evaluation against one point at a time.

The runner hands the optimizers a StackCost, and every batch of points an
optimizer knows before it needs their values goes to sa_cost as one stack.
The reference here is the loops as they were before stacking, on a plain
function of one point, so sa_cost evolves and measures one parameter vector
per call.  Results, traces and the end states of both random streams must be
equal, not close.
"""
import math

import numpy as np
import pytest

from vqebench import optimizers
from vqebench.ensemble import EnsembleContext, sa_cost
from vqebench.errors import CostEvaluationError
from vqebench.harness import lookup_family
from vqebench.harness.runner import _effective_optimizer
from vqebench.optimizers import IsomaParams, OptimizerSpec, StackCost, gradient, minimize
from vqebench.optimizers.session import CostSession

#: The benchmark's and the golden grid's capped budgets.
CAPPED = [
    OptimizerSpec("bfgs", maxiter=6),
    OptimizerSpec("slsqp", maxiter=6),
    OptimizerSpec("nelder_mead", maxiter=30),
    OptimizerSpec("powell", maxiter=1),
    OptimizerSpec("cobyla", maxiter=20),
    OptimizerSpec("isoma", isoma=IsomaParams(max_fes=75)),
]
FAMILIES = ["ideal", "SN-256", "DEPOL-5%", "TR-T1=50ns"]


def _gradient_one_at_a_time(cost, theta, h=1e-6):
    """Central differences, +h then -h per coordinate, one call each."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (cost(theta + step) - cost(theta - step)) / (2.0 * h)
    return grad


class _Spent(Exception):
    pass


def _isoma_one_at_a_time(session, theta0, spec, rng):
    """iSOMA evaluating one point per call, each jump's mask drawn just
    before its candidate is evaluated, stopped by the call past max_fes."""
    params = spec.isoma

    def evaluate(x):
        if session.n_evals >= params.max_fes:
            raise _Spent
        return session(x)

    dim = theta0.size
    try:
        population = rng.uniform(params.var_min, params.var_max, size=(params.pop_size, dim))
        fitness = np.array([evaluate(x) for x in population])
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
                    f_cand = evaluate(candidate)
                    if f_cand < best_f:
                        best_x, best_f = candidate, f_cand
                population[j] = best_x
                fitness[j] = best_f
    except _Spent:
        pass
    return True


def _context(toy_hamiltonian, toy_circuit, family):
    return EnsembleContext(toy_hamiltonian, toy_circuit, 0, 1, lookup_family(family).estimator)


def _run(ctx, spec, seed, stacked):
    """One run as the runner makes it; returns the result, the stack sizes
    sa_cost saw, and the end states of the shot and optimizer streams."""
    shot_rng, opt_rng = np.random.default_rng(seed), np.random.default_rng(seed + 100)
    theta0 = np.random.default_rng(seed + 200).uniform(-math.pi, math.pi, ctx.ansatz.n_params)
    sizes = []

    def evaluate(thetas):
        sizes.append(len(thetas))
        return sa_cost(thetas, ctx, shot_rng)

    def one(theta):
        sizes.append(1)
        return sa_cost(theta, ctx, shot_rng)

    result = minimize(StackCost(evaluate) if stacked else one, theta0, spec, opt_rng)
    return result, sizes, shot_rng.bit_generator.state, opt_rng.bit_generator.state


def _compare(monkeypatch, ctx, spec, seed):
    """The stacked run and the one-at-a-time reference run, checked equal;
    returns the stacked run's stack sizes."""
    with monkeypatch.context() as m:
        m.setattr(gradient, "finite_difference_gradient", _gradient_one_at_a_time)
        m.setitem(optimizers._DISPATCH, "isoma", _isoma_one_at_a_time)
        want, want_sizes, want_shots, want_opt = _run(ctx, spec, seed, stacked=False)
    got, sizes, shots, opt = _run(ctx, spec, seed, stacked=True)
    assert np.array_equal(got.theta_best, want.theta_best)
    assert got.f_best == want.f_best
    assert got.n_evals == want.n_evals == sum(sizes) == len(want_sizes)
    assert got.converged == want.converged
    assert got.trace == want.trace
    assert shots == want_shots
    assert opt == want_opt
    return sizes


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("spec", CAPPED, ids=lambda s: s.kind)
def test_stacked_run_equals_one_point_at_a_time(
    monkeypatch, toy_hamiltonian, toy_circuit, family, spec
):
    ctx = _context(toy_hamiltonian, toy_circuit, family)
    spec = _effective_optimizer(spec, lookup_family(family))
    for seed in (0, 1):
        sizes = _compare(monkeypatch, ctx, spec, seed)
        # every method but Powell stacks some of its evaluations
        assert (max(sizes) > 1) == (spec.kind != "powell")


@pytest.mark.parametrize("max_fes", [10, 26, 30, 80])
def test_isoma_stops_at_max_fes_as_one_point_at_a_time(
    monkeypatch, toy_hamiltonian, toy_circuit, max_fes
):
    # inside the population (10), after one jump (26), inside a migrant's jumps
    # (30), and after a few migrants (80)
    ctx = _context(toy_hamiltonian, toy_circuit, "SN-256")
    spec = OptimizerSpec("isoma", isoma=IsomaParams(pop_size=25, max_fes=max_fes))
    for seed in (0, 1):
        sizes = _compare(monkeypatch, ctx, spec, seed)
        assert sum(sizes) == max_fes
        assert sizes[0] == min(25, max_fes)


class _Poisoned:
    """sa_cost on the exact toy cost, NaN at one evaluation; counts the rows
    it was asked for."""

    def __init__(self, ctx, nan_at):
        self.ctx, self.nan_at, self.rows = ctx, nan_at, 0

    def evaluate(self, thetas):
        values = sa_cost(thetas, self.ctx)
        first = self.rows
        self.rows += len(thetas)
        if first < self.nan_at <= self.rows:
            values[self.nan_at - first - 1] = math.nan
        return values

    def __call__(self, theta):
        return self.evaluate(np.asarray(theta)[None])[0]


@pytest.mark.parametrize("row", [0, 2, 5])
def test_nan_row_of_a_stack_stops_as_one_point_at_a_time(toy_ctx, row):
    # the gradient's stack of 6 rows follows one evaluation at theta0
    theta0 = np.array([0.4, -1.2, 2.0])
    nan_at = 2 + row
    outcomes = []
    for stacked in (True, False):
        cost = _Poisoned(toy_ctx, nan_at)
        session = CostSession(StackCost(cost.evaluate) if stacked else cost)
        session(theta0)
        with pytest.raises(CostEvaluationError) as err:
            if stacked:
                gradient.finite_difference_gradient(session, theta0)
            else:
                _gradient_one_at_a_time(session, theta0)
        assert err.value.n_evals == nan_at
        assert session.n_evals == nan_at - 1
        outcomes.append(
            (cost.rows, err.value.theta, session.trace, session.best_f, session.best_theta)
        )
    (stack_rows, *got), (plain_rows, *want) = outcomes
    assert stack_rows == 7  # the whole stack was evaluated at once
    assert plain_rows == nan_at  # a function of one point is called on no later row
    assert np.array_equal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert np.array_equal(got[3], want[3])


def test_plain_cost_gradient_raises_on_nan():
    # the public form wraps a function of one point in a session of its own
    grad = gradient.finite_difference_gradient(lambda x: x @ x, np.ones(2), 0.5)
    assert grad.tolist() == [2.0, 2.0]
    with pytest.raises(CostEvaluationError):
        gradient.finite_difference_gradient(lambda x: math.nan, np.ones(2))
