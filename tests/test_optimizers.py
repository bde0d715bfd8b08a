import numpy as np
import pytest

from vqebench.errors import CostEvaluationError, ParameterDomainError
from vqebench.optimizers import (
    OPTIMIZER_KINDS,
    IsomaParams,
    OptimizerSpec,
    finite_difference_gradient,
    minimize,
)
from vqebench.optimizers.direct import LINE_EVAL_CAP, TR_MAX_RAY
from vqebench.optimizers.gradient import MAX_BACKTRACKS

LOCAL_KINDS = ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla")


def sphere(x):
    return float(np.dot(x, x))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rastrigin(x):
    return float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x)))


# --- spec and gradient -----------------------------------------------------

def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="adam")
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="bfgs", maxiter=0)
    with pytest.raises(ParameterDomainError):
        OptimizerSpec(kind="bfgs", ftol=0.0)
    with pytest.raises(ParameterDomainError):
        IsomaParams(m=30)


def test_gradient_linear_exact():
    g = finite_difference_gradient(lambda x: 2.0 * x[0] - 3.0 * x[1], np.zeros(2), h=0.1)
    assert np.allclose(g, [2.0, -3.0], atol=1e-10)


def test_gradient_constant_zero():
    g = finite_difference_gradient(lambda x: 4.2, np.ones(3), h=1e-3)
    assert np.allclose(g, 0.0)


def test_gradient_quadratic_second_order():
    f = lambda x: float(x[0] ** 4)
    x = np.array([1.3])
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(abs(finite_difference_gradient(f, x, h=h)[0] - 4 * 1.3**3))
    # halving h should shrink the error by about 4x (central differences)
    assert errs[1] < errs[0] / 3.0


def test_gradient_matches_analytic_polynomial():
    f = lambda x: float(x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2)
    x = np.array([0.7, -0.4])
    expected = np.array([3 * 0.7**2 + 2 * (-0.4), 2 * 0.7 + 2 * (-0.4)])
    g = finite_difference_gradient(f, x, h=1e-6)
    assert np.allclose(g, expected, rtol=1e-6, atol=1e-6)


# --- benchmark functions ---------------------------------------------------

@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_local_methods_on_sphere(kind):
    spec = OptimizerSpec(kind=kind)
    result = minimize(sphere, np.ones(3), spec, np.random.default_rng(0))
    assert result.f_best < 1e-6
    if kind == "bfgs":
        assert result.f_best < 1e-12
        assert result.n_evals < 100


@pytest.mark.parametrize("kind", LOCAL_KINDS)
def test_local_methods_on_rosenbrock(kind):
    spec = OptimizerSpec(kind=kind)
    result = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(0))
    target = 1e-4 if kind == "cobyla" else 1e-6
    assert result.f_best < target
    assert np.allclose(result.theta_best, [1.0, 1.0], atol=0.05)


def test_isoma_on_rastrigin():
    spec = OptimizerSpec(kind="isoma")
    rng = np.random.default_rng(0)
    result = minimize(rastrigin, np.zeros(3), spec, rng)
    assert result.n_evals <= spec.isoma.max_fes
    # improvement over the best of an equally sized random sample
    sample_rng = np.random.default_rng(999)
    baseline = min(
        rastrigin(sample_rng.uniform(-2 * np.pi, 2 * np.pi, 3)) for _ in range(25)
    )
    assert result.f_best < baseline


def test_isoma_on_sphere_loose():
    result = minimize(
        sphere, np.zeros(3), OptimizerSpec(kind="isoma"), np.random.default_rng(1)
    )
    assert result.f_best < 1e-2


# --- shared contracts ------------------------------------------------------

@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_determinism(kind):
    spec = OptimizerSpec(kind=kind, maxiter=40)
    a = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(5))
    b = minimize(rosenbrock, np.array([-1.2, 1.0]), spec, np.random.default_rng(5))
    assert a.f_best == b.f_best
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
        # per cycle: dim+1 line minimizations, each capped, plus one probe
        return 1 + spec.maxiter * ((dim + 1) * LINE_EVAL_CAP + 1)
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
    assert result.f_best == pytest.approx(mins[-1])


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_nan_cost_aborts_with_theta(kind):
    def bad(x):
        return float("nan")

    with pytest.raises(CostEvaluationError) as err:
        minimize(bad, np.ones(2), OptimizerSpec(kind=kind), np.random.default_rng(0))
    assert err.value.theta.shape == (2,)


def test_bfgs_stationary_start():
    result = minimize(
        sphere, np.zeros(3), OptimizerSpec(kind="bfgs"), np.random.default_rng(0)
    )
    assert result.converged
    assert result.f_best == 0.0
    assert result.n_evals < 10


def test_bfgs_inverse_hessian_secant_property():
    a = np.diag([1.0, 4.0, 9.0])

    def quad(x):
        return float(0.5 * x @ a @ x)

    result = minimize(
        quad, np.array([2.0, -1.0, 1.0]), OptimizerSpec(kind="bfgs"), np.random.default_rng(0)
    )
    assert result.f_best < 1e-12
    assert np.linalg.norm(a @ result.theta_best) < 1e-4


def test_bfgs_noisy_quadratic():
    noise_rng = np.random.default_rng(11)

    def noisy(x):
        return sphere(x) + 1e-3 * noise_rng.normal()

    result = minimize(
        noisy, np.ones(2), OptimizerSpec(kind="bfgs", gradient_step=5e-2),
        np.random.default_rng(0),
    )
    assert result.f_best < 1e-2


def test_powell_axis_permutation_invariance():
    def quad(x):
        return float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2)

    def quad_perm(x):
        return quad(x[::-1])

    r1 = minimize(quad, np.zeros(2), OptimizerSpec(kind="powell"), np.random.default_rng(0))
    r2 = minimize(quad_perm, np.zeros(2), OptimizerSpec(kind="powell"), np.random.default_rng(0))
    assert np.allclose(r1.theta_best, r2.theta_best[::-1], atol=1e-6)


def test_powell_separable_quadratic_one_cycle():
    result = minimize(
        lambda x: float(np.sum((x - np.array([1.0, -2.0])) ** 2)),
        np.zeros(2),
        OptimizerSpec(kind="powell"),
        np.random.default_rng(0),
    )
    assert result.f_best < 1e-10


def test_nelder_mead_1d_convex_no_stagnation():
    result = minimize(
        lambda x: float((x[0] - 3.0) ** 2),
        np.array([0.0]),
        OptimizerSpec(kind="nelder_mead"),
        np.random.default_rng(0),
    )
    assert result.converged
    # the f-spread criterion can stop on a simplex symmetric about the
    # minimum; convergence without a shrink loop is the contract here
    assert abs(result.theta_best[0] - 3.0) < 0.1


def test_cobyla_linear_descends_gradient():
    result = minimize(
        lambda x: float(x[0] + 2.0 * x[1]),
        np.zeros(2),
        OptimizerSpec(kind="cobyla", maxiter=5),
        np.random.default_rng(0),
    )
    assert result.f_best < 0.0
    d = result.theta_best / np.linalg.norm(result.theta_best)
    g_hat = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert float(d @ -g_hat) > 0.99


def test_minimize_validates_theta0():
    with pytest.raises(ParameterDomainError):
        minimize(sphere, np.zeros((2, 2)), OptimizerSpec(kind="bfgs"))
