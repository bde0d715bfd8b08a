"""The five local optimizers against scipy's, at scipy's own defaults.

vqebench implements its six optimizers itself.  From the same seeded θ₀,
uniform in [−π, π], each of the five local ones and its counterpart in
`scipy.optimize.minimize` must reach the same exact e_sa within 1e-6 on the
exact toy cost, noiseless and under 5% depolarizing noise.  Each test
prints the median ratio of evaluations, vqebench over scipy: vqebench stops
much later than scipy's defaults (ftol 1e-8, GRAD_NORM_TOL 1e-8,
TR_RHO_END 1e-8, POWELL_IMPROVEMENT_TOL 1e-10), so the ratio is a report,
not a bound.

`TR-T1=50ns` is left out: its landscape has a plateau on which scipy's SLSQP,
at its default ftol of 1e-6, stops up to 5.9e-3 above vqebench's slsqp, and
on which vqebench's cobyla can spend its whole budget and end 7e-6 above
scipy's.  Neither says whether the two implementations agree.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from vqebench.ensemble import EnsembleContext, sa_cost
from vqebench.harness import lookup_family
from vqebench.optimizers import OptimizerSpec, minimize
from vqebench.qsim import EstimatorSpec

SCIPY_METHODS = {
    "bfgs": "BFGS",
    "slsqp": "SLSQP",
    "nelder_mead": "Nelder-Mead",
    "powell": "Powell",
    "cobyla": "COBYLA",
}
SEEDS = (0, 1, 2)
TOLERANCE = 1e-6


@pytest.mark.parametrize("kind", SCIPY_METHODS)
@pytest.mark.parametrize("family", ["ideal", "DEPOL-5%"])
def test_final_e_sa_matches_scipy(capsys, toy_hamiltonian, toy_circuit, family, kind):
    # the family's noise, measured exactly
    estimator = EstimatorSpec(None, lookup_family(family).estimator.noise)
    ctx = EnsembleContext(toy_hamiltonian, toy_circuit, 0, 1, estimator)
    ratios = []
    for seed in SEEDS:
        theta0 = np.random.default_rng(seed).uniform(-math.pi, math.pi, ctx.ansatz.n_params)
        rng = np.random.default_rng(seed)
        ours = minimize(lambda thetas: sa_cost(thetas, ctx), theta0, OptimizerSpec(kind), rng)
        theirs = scipy_minimize(
            lambda theta: sa_cost(theta[None], ctx)[0], theta0, method=SCIPY_METHODS[kind]
        )
        e_sa = sa_cost(ours.theta_best[None], ctx)[0]
        assert abs(e_sa - theirs.fun) < TOLERANCE, f"seed {seed}: {e_sa} against {theirs.fun}"
        ratios.append(ours.n_evals / theirs.nfev)
    ratio = np.median(ratios)
    with capsys.disabled():
        print(f"REFERENCE {family} {kind}: evaluations vqebench/scipy, median {ratio:.2f}")
