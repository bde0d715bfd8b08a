"""Derivative-free minimizers: Nelder-Mead, Powell, and a linear-model
trust-region method."""
from __future__ import annotations

import math

import numpy as np

from .result import OptimizerSpec

# Nelder-Mead coefficients
REFLECT, EXPAND, CONTRACT, SHRINK = 1.0, 2.0, 0.5, 0.5
SIMPLEX_SPREAD_TOL = 1e-10
INITIAL_SIMPLEX_SCALE = 0.05

# Powell line minimization
BRACKET_GROW = 1.618033988749895
BRACKET_MAX_STEPS = 20
BRENT_MAX_ITER = 50
POWELL_IMPROVEMENT_TOL = 1e-10
LINE_EVAL_CAP = 80  # a line minimization makes fewer evaluations than this

# trust-region schedule for the linear-model method
TR_RHO_BEG = 0.5
TR_RHO_END = 1e-8
TR_MAX_RAY = 6  # evaluations per trust-region ray


def nelder_mead_minimize(session, theta0, spec: OptimizerSpec, rng=None) -> bool:
    """Downhill simplex with standard reflect/expand/contract/shrink moves."""
    dim = theta0.size
    simplex = [theta0.copy()]
    for i in range(dim):
        point = theta0.copy()
        point[i] += INITIAL_SIMPLEX_SCALE * max(1.0, abs(theta0[i]))
        simplex.append(point)
    values = session.many(simplex)
    for _ in range(spec.maxiter):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < SIMPLEX_SPREAD_TOL:
            return True
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + REFLECT * (centroid - worst)
        f_r = session(reflected)
        if f_r < values[0]:
            expanded = centroid + EXPAND * (centroid - worst)
            f_e = session(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:  # outside contraction
                contracted = centroid + CONTRACT * (reflected - centroid)
            else:  # inside contraction
                contracted = centroid - CONTRACT * (centroid - worst)
            f_c = session(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:  # shrink toward the best vertex
                simplex[1:] = [simplex[0] + SHRINK * (p - simplex[0]) for p in simplex[1:]]
                values[1:] = session.many(simplex[1:])
    return False


def _bracket(fn, f0):
    """Expand from alpha=0 until a triple (a, b, c) brackets a minimum."""
    xa, fa = 0.0, f0
    xb = 1.0
    fb = fn(xb)
    if fb > fa:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + BRACKET_GROW * (xb - xa)
    fc = fn(xc)
    steps = 0
    while fc < fb and steps < BRACKET_MAX_STEPS:
        xa, xb, xc = xb, xc, xc + BRACKET_GROW * (xc - xb)
        fa, fb = fb, fc
        fc = fn(xc)
        steps += 1
    return (xa, xb, xc), (fa, fb, fc)


def _brent(fn, triple, f_triple, tol=1e-10):
    """Brent's parabolic/golden-section minimization inside a bracket."""
    xa, xb, xc = triple
    lo, hi = min(xa, xc), max(xa, xc)
    golden = 0.3819660112501051
    x = w = v = xb
    fx = fw = fv = f_triple[1]
    d = e = 0.0
    for _ in range(BRENT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        tol1 = tol * abs(x) + 1e-12
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (hi - lo):
            break
        use_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                e, d = d, p / q
                use_golden = False
        if use_golden:
            e = (hi if x < mid else lo) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def _line_minimize(session, x, direction, f_x):
    """Minimize along x + alpha*direction with a capped evaluation budget."""
    evals_used = 0

    def fn(alpha):
        nonlocal evals_used
        if evals_used >= LINE_EVAL_CAP - 1:
            raise _LineCapReached
        evals_used += 1
        return session(x + alpha * direction)

    try:
        triple, f_triple = _bracket(fn, f_x)
        alpha, f_new = _brent(fn, triple, f_triple)
    except _LineCapReached:
        # fall back to the best point of the whole run so far
        return session.best_theta.copy(), session.best_f
    if f_new >= f_x:
        return x, f_x
    return x + alpha * direction, f_new


class _LineCapReached(Exception):
    pass


def powell_minimize(session, theta0, spec: OptimizerSpec, rng=None) -> bool:
    """Powell's direction-set method with Brent line minimizations and
    direction replacement after each cycle."""
    dim = theta0.size
    directions = [np.eye(dim)[i].copy() for i in range(dim)]
    x = theta0.copy()
    f = session(x)
    for _ in range(spec.maxiter):
        x_old, f_old = x.copy(), f
        biggest_drop, drop_idx = 0.0, 0
        for i, direction in enumerate(directions):
            x_new, f_new = _line_minimize(session, x, direction, f)
            if f - f_new > biggest_drop:
                biggest_drop, drop_idx = f - f_new, i
            x, f = x_new, f_new
        if f_old - f < POWELL_IMPROVEMENT_TOL:
            return True
        extrapolated = 2.0 * x - x_old
        f_ext = session(extrapolated)
        if f_ext < f_old:
            # Powell's criterion for replacing the dominant direction
            t = (
                2.0 * (f_old - 2.0 * f + f_ext) * (f_old - f - biggest_drop) ** 2
                - biggest_drop * (f_old - f_ext) ** 2
            )
            if t < 0.0:
                new_dir = x - x_old
                norm = np.linalg.norm(new_dir)
                if norm > 0.0:
                    new_dir = new_dir / norm
                    x, f = _line_minimize(session, x, new_dir, f)
                    directions[drop_idx] = directions[-1]
                    directions[-1] = new_dir
    return False


def cobyla_minimize(session, theta0, spec: OptimizerSpec, rng=None) -> bool:
    """Trust-region method over a linear interpolation model on an n+1 point
    simplex; the radius shrinks from 0.5 down to 1e-8 (no constraints).

    Per iteration at most 2*TR_MAX_RAY + 1 evaluations: an expanding ray
    along the model step, a fallback ray along the direction of recent
    progress, and a geometry refresh or radius shrink on failure.
    """
    dim = theta0.size
    rho = TR_RHO_BEG
    refresh_axis = 0
    points = [theta0.copy()]
    for i in range(dim):
        p = theta0.copy()
        p[i] += rho
        points.append(p)
    values = session.many(points)
    prev_best = theta0.copy()
    for _ in range(spec.maxiter):
        if rho <= TR_RHO_END:
            return True
        best = int(np.argmin(values))
        x_best, f_best = points[best].copy(), values[best]
        mat = np.array([p - x_best for p in points])
        rhs = np.array(values) - f_best
        grad, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        gnorm = float(np.linalg.norm(grad))
        moved = False
        if gnorm >= 1e-15:
            candidates = [-grad / gnorm]
            momentum = x_best - prev_best
            mnorm = float(np.linalg.norm(momentum))
            if mnorm > 1e-14:
                candidates.append(momentum / mnorm)
            for direction in candidates:
                hit = _tr_ray(session, x_best, f_best, direction, rho)
                if hit is not None:
                    x_new, f_new, reach = hit
                    worst = int(np.argmax(values))
                    points[worst], values[worst] = x_new, f_new
                    if reach > rho:
                        rho = min(reach, TR_RHO_BEG)
                    prev_best = x_best
                    moved = True
                    break
        if not moved:
            rho, refresh_axis = _tr_refresh_or_shrink(
                session, points, values, rho, refresh_axis, dim
            )
    return False


def _tr_ray(session, x_best, f_best, direction, rho):
    """Step rho along direction, doubling while the value keeps dropping.

    Returns (point, value, step length) of the best improving point, or None.
    """
    alpha = rho
    hit = None
    prev_f = f_best
    for _ in range(TR_MAX_RAY):
        x_new = x_best + alpha * direction
        f_new = session(x_new)
        if f_new < (hit[1] if hit else f_best):
            hit = (x_new, f_new, alpha)
        if f_new >= prev_f:
            break
        prev_f = f_new
        alpha *= 2.0
    return hit


def _tr_refresh_or_shrink(session, points, values, rho, refresh_axis, dim):
    """On a failed step: repair stale simplex geometry if any vertex sits
    outside 2*rho of the incumbent, otherwise halve the radius and pull the
    farthest vertex in."""
    best = int(np.argmin(values))
    x_best = points[best]
    dists = [np.linalg.norm(p - x_best) for p in points]
    far = int(np.argmax(dists))
    if dists[far] <= 2.0 * rho:
        rho *= 0.5
    p = x_best.copy()
    p[refresh_axis] += rho
    points[far] = p
    values[far] = session(p)
    return rho, (refresh_axis + 1) % dim
