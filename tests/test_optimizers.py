from dataclasses import replace

import numpy as np
import pytest

from vqebench.errors import CostEvaluationError, DimensionError, ParameterDomainError
from vqebench.optimizers import (
    OPTIMIZER_KINDS,
    SPEC_FIELDS,
    IsomaParams,
    OptimizerSpec,
    minimize,
)
from vqebench.optimizers.direct import (
    BRACKET_MAX_STEPS,
    BRENT_MAX_ITER,
    TR_MAX_RAY,
    _line_minimize,
)
from vqebench.optimizers.gradient import MAX_BACKTRACKS, finite_difference_gradient
from vqebench.optimizers.session import CostSession

LOCAL_KINDS = ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla")
#: The most evaluations one Powell line minimization can make.
LINE_BOUND = 2 + BRACKET_MAX_STEPS + BRENT_MAX_ITER

# Every cost maps an (m, p) stack of points to their m values.


def sphere(x):
    return np.sum(x**2, axis=1)


def rosenbrock(x):
    return 100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2 + (1.0 - x[:, 0]) ** 2


def rastrigin(x):
    return 10.0 * x.shape[1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=1)


def value_at(cost, theta) -> float:
    """A cost's value at one point."""
    return float(cost(np.asarray(theta, dtype=float)[None])[0])


# --- spec and gradient -----------------------------------------------------

def gradient(cost, theta, h):
    """The central-difference gradient of a stack cost at theta."""
    return CostSession(cost).run(finite_difference_gradient(theta, h))


def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="adam")
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="bfgs", maxiter=0)
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="bfgs", ftol=0.0)
    with pytest.raises(ParameterDomainError):
        IsomaParams(m=30)
    with pytest.raises(ParameterDomainError):
        IsomaParams(var_min=-1e308, var_max=1e308)  # finite bounds, infinite span


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_spec_fields_are_the_fields_a_kind_reads(kind):
    """Changing a field outside SPEC_FIELDS[kind] leaves the run as it was;
    changing one inside changes it."""
    base = OptimizerSpec(kind, maxiter=20, isoma=IsomaParams(max_fes=60))
    other = {
        "maxiter": 3,
        "ftol": 0.5,
        "gradient_step": 0.3,
        "isoma": IsomaParams(pop_size=5, m=5, n=2, k=3, max_fes=20),
    }

    def trace(spec):
        return minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(5)).trace

    unread = {name: value for name, value in other.items() if name not in SPEC_FIELDS[kind]}
    assert trace(replace(base, **unread)) == trace(base)
    for name in SPEC_FIELDS[kind]:
        assert trace(replace(base, **{name: other[name]})) != trace(base), name


def test_gradient_linear_exact():
    g = gradient(lambda x: 2.0 * x[:, 0] - 3.0 * x[:, 1], np.zeros(2), h=0.1)
    assert np.allclose(g, [2.0, -3.0], atol=1e-10)


def test_gradient_constant_zero():
    g = gradient(lambda x: np.full(len(x), 4.2), np.ones(3), h=1e-3)
    assert np.allclose(g, 0.0)


def test_gradient_quadratic_second_order():
    f = lambda x: x[:, 0] ** 4
    x = np.array([1.3])
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(abs(gradient(f, x, h=h)[0] - 4 * 1.3**3))
    # halving h should shrink the error by about 4x (central differences)
    assert errs[1] < errs[0] / 3.0


def test_gradient_matches_analytic_polynomial():
    f = lambda x: x[:, 0] ** 3 + 2.0 * x[:, 0] * x[:, 1] + x[:, 1] ** 2
    x = np.array([0.7, -0.4])
    expected = np.array([3 * 0.7**2 + 2 * (-0.4), 2 * 0.7 + 2 * (-0.4)])
    g = gradient(f, x, h=1e-6)
    assert np.allclose(g, expected, rtol=1e-6, atol=1e-6)


# --- benchmark functions ---------------------------------------------------

@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_local_methods_on_sphere(kind):
    spec = OptimizerSpec(kind=kind)
    result = minimize(sphere, np.ones(3), spec, np.random.default_rng(0))
    assert value_at(sphere, result.theta_best) < 1e-6
    if kind == "bfgs":
        assert value_at(sphere, result.theta_best) < 1e-12
        assert result.n_evals < 100


@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_local_methods_on_rosenbrock(kind):
    spec = OptimizerSpec(kind=kind)
    result = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(0))
    target = 1e-4 if kind == "cobyla" else 1e-6
    assert value_at(rosenbrock, result.theta_best) < target
    assert np.allclose(result.theta_best, [1.0, 1.0], atol=0.05)


def test_isoma_on_rastrigin():
    spec = OptimizerSpec(kind="isoma")
    rng = np.random.default_rng(0)
    result = minimize(rastrigin, np.zeros(3), spec, rng)
    assert result.n_evals <= spec.isoma.max_fes
    # improvement over the best of an equally sized random sample
    sample_rng = np.random.default_rng(999)
    baseline = min(
        rastrigin(sample_rng.uniform(-2 * np.pi, 2 * np.pi, (1, 3)))[0] for _ in range(25)
    )
    assert value_at(rastrigin, result.theta_best) < baseline


def test_isoma_on_sphere_loose():
    result = minimize(
        sphere, np.zeros(3), OptimizerSpec(kind="isoma"), np.random.default_rng(1)
    )
    assert value_at(sphere, result.theta_best) < 1e-2


# --- shared contracts ------------------------------------------------------

@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_determinism(kind):
    spec = OptimizerSpec(kind=kind, maxiter=40)
    a = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(5))
    b = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(5))
    assert np.array_equal(a.theta_best, b.theta_best)
    assert a.trace == b.trace


def loop_bound(kind: str, dim: int, spec: OptimizerSpec) -> int:
    """The most evaluations each algorithm's own loops allow."""
    if kind in ("bfgs", "slsqp"):
        # initial f + grad, then per iteration: backtracks + new gradient
        return 1 + 2 * dim + spec.maxiter * (MAX_BACKTRACKS + 1 + 2 * dim)
    if kind == "nelder_mead":
        return (dim + 1) + spec.maxiter * (dim + 2)
    if kind == "powell":
        # per cycle: dim+1 line minimizations, plus one probe
        return 1 + spec.maxiter * ((dim + 1) * LINE_BOUND + 1)
    if kind == "cobyla":
        return (dim + 1) + spec.maxiter * (2 * TR_MAX_RAY + 1)
    return spec.isoma.max_fes


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_budget_respected(kind):
    spec = OptimizerSpec(kind=kind, maxiter=25)
    result = minimize(rastrigin, np.full(3, 1.5), spec, np.random.default_rng(2))
    assert 1 <= result.n_evals <= loop_bound(kind, 3, spec)


@pytest.mark.parametrize("max_fes", [10, 25, 26, 200])  # 10 stops inside the population of 25
def test_isoma_spends_exactly_max_fes(max_fes):
    spec = OptimizerSpec(kind="isoma", isoma=IsomaParams(pop_size=25, max_fes=max_fes))
    result = minimize(rastrigin, np.zeros(2), spec, np.random.default_rng(4))
    assert result.n_evals == len(result.trace) == max_fes
    assert result.converged


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_monotone_incumbent(kind):
    spec = OptimizerSpec(kind=kind, maxiter=30)
    result = minimize(rosenbrock, np.array([0.5, -0.5]), spec, np.random.default_rng(3))
    best = np.inf
    mins = []
    for _, f in result.trace:
        best = min(best, f)
        mins.append(best)
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert value_at(rosenbrock, result.theta_best) == pytest.approx(mins[-1])


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_nan_cost_aborts_with_theta(kind):
    def bad(x):
        return np.full(len(x), np.nan)

    with pytest.raises(CostEvaluationError) as err:
        minimize(bad, np.ones(2), OptimizerSpec(kind=kind), np.random.default_rng(0))
    assert err.value.theta.shape == (2,)


def test_bfgs_stationary_start():
    result = minimize(
        sphere, np.zeros(3), OptimizerSpec(kind="bfgs"), np.random.default_rng(0)
    )
    assert result.converged
    assert value_at(sphere, result.theta_best) == 0.0
    assert result.n_evals < 10


def test_bfgs_inverse_hessian_secant_property():
    a = np.diag([1.0, 4.0, 9.0])

    def quad(x):
        return 0.5 * np.einsum("mi,ij,mj->m", x, a, x)

    result = minimize(
        quad, np.array([2.0, -1.0, 1.0]), OptimizerSpec(kind="bfgs"), np.random.default_rng(0)
    )
    assert value_at(quad, result.theta_best) < 1e-12
    assert np.linalg.norm(a @ result.theta_best) < 1e-4


def test_bfgs_noisy_quadratic():
    noise_rng = np.random.default_rng(11)

    def noisy(x):
        return sphere(x) + 1e-3 * noise_rng.normal(size=len(x))

    result = minimize(
        noisy, np.ones(2), OptimizerSpec(kind="bfgs", gradient_step=5e-2),
        np.random.default_rng(0),
    )
    # the noise-free value at the reported point
    assert value_at(sphere, result.theta_best) < 1e-2


def test_powell_axis_permutation_invariance():
    def quad(x):
        return (x[:, 0] - 1.0) ** 2 + 2.0 * (x[:, 1] + 0.5) ** 2

    def quad_perm(x):
        return quad(x[:, ::-1])

    r1 = minimize(quad, np.zeros(2), OptimizerSpec(kind="powell"), np.random.default_rng(0))
    r2 = minimize(quad_perm, np.zeros(2), OptimizerSpec(kind="powell"), np.random.default_rng(0))
    assert np.allclose(r1.theta_best, r2.theta_best[::-1], atol=1e-6)


def test_powell_separable_quadratic_one_cycle():
    def quad(x):
        return np.sum((x - np.array([1.0, -2.0])) ** 2, axis=1)

    result = minimize(quad, np.zeros(2), OptimizerSpec(kind="powell"), np.random.default_rng(0))
    assert value_at(quad, result.theta_best) < 1e-10


def test_nelder_mead_1d_convex_no_stagnation():
    result = minimize(
        lambda x: (x[:, 0] - 3.0) ** 2,
        np.array([0.0]),
        OptimizerSpec(kind="nelder_mead"),
        np.random.default_rng(0),
    )
    assert result.converged
    # the f-spread criterion can stop on a simplex symmetric about the
    # minimum; convergence without a shrink loop is the contract here
    assert abs(result.theta_best[0] - 3.0) < 0.1


def test_cobyla_linear_descends_gradient():
    def linear(x):
        return x[:, 0] + 2.0 * x[:, 1]

    result = minimize(
        linear, np.zeros(2), OptimizerSpec(kind="cobyla", maxiter=5), np.random.default_rng(0)
    )
    assert value_at(linear, result.theta_best) < 0.0
    d = result.theta_best / np.linalg.norm(result.theta_best)
    g_hat = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert float(d @ -g_hat) > 0.99


def test_minimize_validates_theta0():
    with pytest.raises(ParameterDomainError):
        minimize(sphere, np.zeros((2, 2)), OptimizerSpec(kind="bfgs"))


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_wrong_number_of_values_is_a_dimension_error(kind, extra):
    def wrong(x):
        return np.zeros(len(x) + extra)

    with pytest.raises(DimensionError, match=r"returned (\d+) values for a stack of (\d+)"):
        minimize(wrong, np.ones(2), OptimizerSpec(kind=kind), np.random.default_rng(0))


def test_session_names_both_counts():
    session = CostSession(lambda x: np.zeros(len(x) - 1))
    with pytest.raises(DimensionError, match="returned 2 values for a stack of 3 points"):
        session.many(np.zeros((3, 2)))
    assert session.n_evals == 0 and session.trace == []


def _line_evaluations(cost, x, direction):
    """The evaluations one Powell line minimization makes on cost."""
    session = CostSession(cost)
    [f_x] = session.many(x[None])
    session.run(_line_minimize(x, direction, f_x))
    return session.n_evals - 1


def test_line_minimization_stays_within_its_bound():
    # a cost that keeps falling along the line: the bracket uses all its
    # steps, and Brent then walks to the far end of the bracket
    falling = _line_evaluations(lambda x: -x[:, 0], np.zeros(2), np.array([1.0, 0.0]))
    assert 2 + BRACKET_MAX_STEPS < falling <= LINE_BOUND
    counts = []
    rng = np.random.default_rng(0)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        centre, scales = rng.normal(size=dim), rng.uniform(0.1, 10.0, dim)
        waves = rng.uniform(0.0, 5.0)

        def cost(x):
            d = x - centre
            return np.sum(scales * d**2, axis=1) + waves * np.sum(np.cos(3.0 * d), axis=1)

        x, direction = rng.normal(size=(2, dim))
        counts.append(_line_evaluations(cost, x, direction / np.linalg.norm(direction)))
    assert max(counts) <= LINE_BOUND


def test_one_kind_list():
    from vqebench.optimizers import _DISPATCH

    assert OPTIMIZER_KINDS == tuple(SPEC_FIELDS) == tuple(_DISPATCH)
