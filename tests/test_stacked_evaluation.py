"""Stacked evaluation against one point at a time.

The runner hands the optimizers a cost of a stack of points, and every batch
of points an optimizer knows before it needs their values goes to sa_cost as
one stack.  The reference here is the loops as they were before stacking, on
a cost that evaluates its stack one sa_cost call per row, in order, so
sa_cost evolves and measures a stack of one per call.  Results, traces and
the end states of both random streams must be equal, not close.
"""
import math

import numpy as np
import pytest

from vqebench import optimizers
from vqebench.ensemble import EnsembleContext, sa_cost
from vqebench.errors import CostEvaluationError
from vqebench.harness import lookup_family
from vqebench.harness.runner import _effective_optimizer
from vqebench.optimizers import IsomaParams, OptimizerSpec, OptResult, gradient, minimize
from vqebench.optimizers.session import CostSession

#: The benchmark's and the golden grid's capped budgets, and two iSOMA
#: budgets that end with the initial population (25) and inside it.
CAPPED = [
    OptimizerSpec("bfgs", maxiter=6),
    OptimizerSpec("slsqp", maxiter=6),
    OptimizerSpec("nelder_mead", maxiter=30),
    OptimizerSpec("powell", maxiter=1),
    OptimizerSpec("cobyla", maxiter=20),
    OptimizerSpec("isoma", isoma=IsomaParams(max_fes=75)),
    OptimizerSpec("isoma", isoma=IsomaParams(max_fes=25)),
    OptimizerSpec("isoma", isoma=IsomaParams(max_fes=10)),
]
FAMILIES = ["ideal", "SN-256", "DEPOL-5%", "TR-T1=50ns"]


def _gradient_one_at_a_time(theta, h=1e-6):
    """Central differences, +h then -h per coordinate, one point each."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        [f_plus] = yield (theta + step)[None]
        [f_minus] = yield (theta - step)[None]
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _isoma_one_at_a_time(theta0, spec, rng):
    """iSOMA asking for one point at a time, each jump's mask drawn just
    before its candidate is asked for, stopped once max_fes evaluations are
    spent."""
    params = spec.isoma
    dim = theta0.size
    population = rng.uniform(params.var_min, params.var_max, size=(params.pop_size, dim))
    fitness = []
    for x in population:
        [f] = yield x[None]
        fitness.append(f)
        if len(fitness) == params.max_fes:
            return True
    fitness = np.array(fitness)
    spent = params.pop_size
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
                [f_cand] = yield candidate[None]
                spent += 1
                if f_cand < best_f:
                    best_x, best_f = candidate, f_cand
                if spent == params.max_fes:
                    return True
            population[j] = best_x
            fitness[j] = best_f
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

    def one_row_at_a_time(thetas):
        sizes.extend([1] * len(thetas))
        return [sa_cost(theta[None], ctx, shot_rng)[0] for theta in thetas]

    result = minimize(evaluate if stacked else one_row_at_a_time, theta0, spec, opt_rng)
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
    assert got.n_evals == want.n_evals == sum(sizes) == len(want_sizes)
    assert got.converged == want.converged
    assert got.trace == want.trace
    assert shots == want_shots
    assert opt == want_opt
    return sizes


def _spec_id(spec):
    """The kind, and an iSOMA budget that ends within the population."""
    if spec.kind == "isoma" and spec.isoma.max_fes <= spec.isoma.pop_size:
        return f"isoma-{spec.isoma.max_fes}"
    return spec.kind


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("spec", CAPPED, ids=_spec_id)
def test_stacked_run_equals_one_point_at_a_time(
    monkeypatch, toy_hamiltonian, toy_circuit, family, spec
):
    ctx = _context(toy_hamiltonian, toy_circuit, family)
    spec = _effective_optimizer(spec, lookup_family(family))
    for seed in (0, 1):
        sizes = _compare(monkeypatch, ctx, spec, seed)
        # every method but Powell stacks some of its evaluations
        assert (max(sizes) > 1) == (spec.kind != "powell")


@pytest.mark.parametrize("max_fes", [10, 25, 26, 30, 35, 80])
def test_isoma_stops_at_max_fes_as_one_point_at_a_time(
    monkeypatch, toy_hamiltonian, toy_circuit, max_fes
):
    # inside the population (10), exactly the population (25), after one jump
    # (26), inside a migrant's jumps (30), exactly one migrant's n_jump jumps
    # past the population (35), and after a few migrants (80)
    ctx = _context(toy_hamiltonian, toy_circuit, "SN-256")
    spec = OptimizerSpec("isoma", isoma=IsomaParams(pop_size=25, max_fes=max_fes))
    for seed in (0, 1):
        sizes = _compare(monkeypatch, ctx, spec, seed)
        assert sum(sizes) == max_fes
        assert sizes[0] == min(25, max_fes)
        assert min(sizes) >= 1


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


@pytest.mark.parametrize("row", [0, 2, 5])
def test_nan_row_of_a_stack_stops_as_one_point_at_a_time(toy_ctx, row):
    # the gradient's stack of 6 rows follows one evaluation at theta0
    theta0 = np.array([0.4, -1.2, 2.0])
    nan_at = 2 + row
    outcomes = []
    for gradient_at in (gradient.finite_difference_gradient, _gradient_one_at_a_time):
        cost = _Poisoned(toy_ctx, nan_at)
        session = CostSession(cost.evaluate)
        session.many(theta0[None])
        with pytest.raises(CostEvaluationError) as err:
            session.run(gradient_at(theta0))
        assert err.value.n_evals == nan_at
        assert session.n_evals == nan_at - 1
        outcomes.append(
            (cost.rows, err.value.theta, session.trace, session.best_f, session.best_theta)
        )
    (stack_rows, *got), (plain_rows, *want) = outcomes
    assert stack_rows == 7  # the whole stack was evaluated at once
    assert plain_rows == nan_at  # one point at a time evaluates no later row
    assert np.array_equal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert np.array_equal(got[3], want[3])


def test_plain_cost_gradient_raises_on_nan():
    # the gradient on a session of its own, over a plain stack cost
    def gradient_of(cost, h=1e-6):
        return CostSession(cost).run(gradient.finite_difference_gradient(np.ones(2), h))

    assert gradient_of(lambda x: np.sum(x * x, axis=1), 0.5).tolist() == [2.0, 2.0]
    with pytest.raises(CostEvaluationError):
        gradient_of(lambda x: np.full(len(x), math.nan))


def _interleaved(ctx, specs):
    """Runs with seeds 0, 1, ... driven round-robin, one stack per run per
    round, each on its own session and random streams; returns each run's
    result and the end states of its shot and optimizer streams."""
    sessions, steps, rngs = [], [], []
    for seed, spec in enumerate(specs):
        shot_rng, opt_rng = np.random.default_rng(seed), np.random.default_rng(seed + 100)
        theta0 = np.random.default_rng(seed + 200).uniform(-math.pi, math.pi, ctx.ansatz.n_params)
        sessions.append(CostSession(lambda thetas, rng=shot_rng: sa_cost(thetas, ctx, rng)))
        steps.append(optimizers._DISPATCH[spec.kind](theta0, spec, opt_rng))
        rngs.append((shot_rng, opt_rng))
    pending = dict.fromkeys(range(len(specs)))  # run -> the values to send it next
    done = {}
    while pending:
        for i, values in list(pending.items()):
            try:
                points = steps[i].send(values)
            except StopIteration as stop:
                del pending[i]
                session = sessions[i]
                result = OptResult(session.best_theta, session.n_evals, stop.value, session.trace)
                done[i] = (result, *(r.bit_generator.state for r in rngs[i]))
                continue
            assert isinstance(points, np.ndarray) and points.dtype == np.float64
            assert points.ndim == 2 and len(points) >= 1
            pending[i] = sessions[i].many(points)
    return [done[i] for i in range(len(specs))]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kinds", [slice(0, None, 2), slice(1, None, 2)], ids=["even", "odd"])
def test_interleaved_runs_equal_solo_runs(toy_hamiltonian, toy_circuit, family, kinds):
    # runs share nothing but the context: a runner may advance them in any order
    ctx = _context(toy_hamiltonian, toy_circuit, family)
    specs = [_effective_optimizer(spec, lookup_family(family)) for spec in CAPPED[kinds]]
    for seed, (spec, (got, shots, opt)) in enumerate(zip(specs, _interleaved(ctx, specs))):
        want, _, want_shots, want_opt = _run(ctx, spec, seed, stacked=True)
        assert np.array_equal(got.theta_best, want.theta_best)
        assert got.n_evals == want.n_evals
        assert got.converged == want.converged
        assert got.trace == want.trace
        assert shots == want_shots
        assert opt == want_opt
