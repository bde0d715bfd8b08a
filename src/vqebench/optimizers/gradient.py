"""Gradient-based minimizers: BFGS and an unconstrained SQP variant."""
from __future__ import annotations

import numpy as np

from .result import OptimizerSpec
from .session import CostSession

MAX_BACKTRACKS = 30  # line-search halvings per BFGS/SQP iteration
GRAD_NORM_TOL = 1e-8
ARMIJO_C1 = 1e-4


def finite_difference_gradient(cost, theta, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient from 2*dim cost evaluations, made as one
    stack ordered +h, -h per coordinate.  cost is a CostSession, or a cost
    the gradient wraps in one; a NaN value raises CostEvaluationError."""
    session = cost if isinstance(cost, CostSession) else CostSession(cost)
    theta = np.asarray(theta, dtype=float)
    steps = h * np.eye(theta.size)
    points = np.stack([theta + steps, theta - steps], axis=1).reshape(-1, theta.size)
    values = np.array(session.many(points)).reshape(-1, 2)
    return (values[:, 0] - values[:, 1]) / (2.0 * h)


def _line_search(session, x, f, g, direction):
    """Backtracking search for the Armijo sufficient-decrease condition only
    (no curvature condition).

    Returns (x_new, f_new) or None after MAX_BACKTRACKS halvings.
    """
    slope = float(g @ direction)
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_new = x + alpha * direction
        f_new = session(x_new)
        if f_new <= f + ARMIJO_C1 * alpha * slope:
            return x_new, f_new
        alpha *= 0.5
    return None


def _quasi_newton(session, theta0, spec: OptimizerSpec, step, update) -> bool:
    """Quasi-Newton loop shared by BFGS and SQP: step(model, g) gives the
    (model, search direction), update(model, s, y) the model after a step;
    the model starts as the identity."""
    h = spec.gradient_step
    model = np.eye(theta0.size)
    f = session(theta0)
    g = finite_difference_gradient(session, theta0, h)
    x = theta0.copy()
    if np.linalg.norm(g) < GRAD_NORM_TOL:
        return True
    for _ in range(spec.maxiter):
        model, direction = step(model, g)
        found = _line_search(session, x, f, g, direction)
        if found is None:
            return False
        x_new, f_new = found
        g_new = finite_difference_gradient(session, x_new, h)
        model = update(model, x_new - x, g_new - g)
        f_change = abs(f_new - f)
        x, f, g = x_new, f_new, g_new
        if f_change <= spec.ftol * max(1.0, abs(f_new)) or np.linalg.norm(g) < GRAD_NORM_TOL:
            return True
    return False


def _bfgs_step(h_inv, g):
    direction = -h_inv @ g
    if float(g @ direction) >= 0.0:
        direction = -g  # reset on loss of descent
    return h_inv, direction


def _bfgs_update(h_inv, s, y):
    sy = float(s @ y)
    if sy > 1e-12:
        rho = 1.0 / sy
        left = np.eye(s.size) - rho * np.outer(s, y)
        h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
    return h_inv


def _sqp_step(b_mat, g):
    try:
        direction = np.linalg.solve(b_mat, -g)
    except np.linalg.LinAlgError:
        b_mat = np.eye(g.size)
        direction = -g
    if float(g @ direction) >= 0.0:
        b_mat = np.eye(g.size)
        direction = -g
    return b_mat, direction


def _sqp_update(b_mat, s, y):
    bs = b_mat @ s
    sbs = float(s @ bs)
    sy = float(s @ y)
    # Powell damping keeps the quadratic model positive definite
    if sbs > 0 and sy < 0.2 * sbs:
        phi = 0.8 * sbs / (sbs - sy)
        y = phi * y + (1.0 - phi) * bs
        sy = float(s @ y)
    if sbs > 1e-16 and sy > 1e-16:
        b_mat = b_mat - np.outer(bs, bs) / sbs + np.outer(y, y) / sy
    return b_mat


def bfgs_minimize(session, theta0, spec: OptimizerSpec, rng=None) -> bool:
    """Quasi-Newton minimization with inverse-Hessian updates and a
    backtracking Armijo line search; gradients by central differences."""
    return _quasi_newton(session, theta0, spec, _bfgs_step, _bfgs_update)


def slsqp_minimize(session, theta0, spec: OptimizerSpec, rng=None) -> bool:
    """Unconstrained SQP: a damped quasi-Newton quadratic model solved
    exactly each iteration, with a line search on the objective."""
    return _quasi_newton(session, theta0, spec, _sqp_step, _sqp_update)
