"""Gradient-based minimizers: BFGS and an unconstrained SQP variant."""
from __future__ import annotations

import numpy as np

from .result import OptResult, OptimizerSpec
from .session import MAX_BACKTRACKS, BudgetExhausted, CostSession, eval_budget

GRAD_NORM_TOL = 1e-8
ARMIJO_C1 = 1e-4


def finite_difference_gradient(cost, theta, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient; 2*dim cost evaluations."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (cost(theta + step) - cost(theta - step)) / (2.0 * h)
    return grad


def _line_search(session, x, f, g, direction):
    """Backtracking search for the Armijo sufficient-decrease condition only
    (no curvature condition).

    Returns (alpha, x_new, f_new) or None after MAX_BACKTRACKS halvings.
    """
    slope = float(g @ direction)
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_new = x + alpha * direction
        f_new = session(x_new)
        if f_new <= f + ARMIJO_C1 * alpha * slope:
            return alpha, x_new, f_new
        alpha *= 0.5
    return None


def bfgs_minimize(cost, theta0, spec: OptimizerSpec, rng=None) -> OptResult:
    """Quasi-Newton minimization with inverse-Hessian updates and a
    backtracking Armijo line search; gradients by central differences."""
    theta0 = np.asarray(theta0, dtype=float)
    dim = theta0.size
    session = CostSession(cost, max_evals=eval_budget("bfgs", dim, spec))
    h = spec.gradient_step
    h_inv = np.eye(dim)
    try:
        f = session(theta0)
        g = finite_difference_gradient(session, theta0, h)
        x = theta0.copy()
        if np.linalg.norm(g) < GRAD_NORM_TOL:
            return session.result(True)
        for _ in range(spec.maxiter):
            direction = -h_inv @ g
            if float(g @ direction) >= 0.0:
                direction = -g  # reset on loss of descent
            step = _line_search(session, x, f, g, direction)
            if step is None:
                return session.result(False)
            _, x_new, f_new = step
            g_new = finite_difference_gradient(session, x_new, h)
            s = x_new - x
            y = g_new - g
            sy = float(s @ y)
            if sy > 1e-12:
                rho = 1.0 / sy
                i_mat = np.eye(dim)
                left = i_mat - rho * np.outer(s, y)
                h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
            f_change = abs(f_new - f)
            x, f, g = x_new, f_new, g_new
            if f_change <= spec.ftol * max(1.0, abs(f_new)):
                return session.result(True)
            if np.linalg.norm(g) < GRAD_NORM_TOL:
                return session.result(True)
        return session.result(False)
    except BudgetExhausted:
        return session.result(False)


def slsqp_minimize(cost, theta0, spec: OptimizerSpec, rng=None) -> OptResult:
    """Unconstrained SQP: a damped quasi-Newton quadratic model solved
    exactly each iteration, with a line search on the objective."""
    theta0 = np.asarray(theta0, dtype=float)
    dim = theta0.size
    session = CostSession(cost, max_evals=eval_budget("slsqp", dim, spec))
    h = spec.gradient_step
    b_mat = np.eye(dim)
    try:
        f = session(theta0)
        g = finite_difference_gradient(session, theta0, h)
        x = theta0.copy()
        if np.linalg.norm(g) < GRAD_NORM_TOL:
            return session.result(True)
        for _ in range(spec.maxiter):
            try:
                direction = np.linalg.solve(b_mat, -g)
            except np.linalg.LinAlgError:
                b_mat = np.eye(dim)
                direction = -g
            if float(g @ direction) >= 0.0:
                b_mat = np.eye(dim)
                direction = -g
            step = _line_search(session, x, f, g, direction)
            if step is None:
                return session.result(False)
            _, x_new, f_new = step
            g_new = finite_difference_gradient(session, x_new, h)
            s = x_new - x
            y = g_new - g
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
            f_change = abs(f_new - f)
            x, f, g = x_new, f_new, g_new
            if f_change <= spec.ftol * max(1.0, abs(f_new)):
                return session.result(True)
            if np.linalg.norm(g) < GRAD_NORM_TOL:
                return session.result(True)
        return session.result(False)
    except BudgetExhausted:
        return session.result(False)
