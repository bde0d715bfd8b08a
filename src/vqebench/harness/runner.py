"""Run execution: seeded independent runs over the (family, optimizer, seed)
grid, streamed to the runs CSV as they finish."""
from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..ensemble import EnsembleContext, resolve_states, sa_cost
from ..errors import CostEvaluationError, ParameterDomainError
from ..optimizers import OptimizerSpec, StackCost, minimize
from ..qsim import load_circuit, load_hamiltonian
from .catalog import FamilySpec
from .config import ExperimentConfig, Theta0Policy
from .records import RunRecord, row_writer

#: Enlarged central-difference step used under shot-based estimation.
NOISY_GRADIENT_STEP = 5e-2
_DEFAULT_GRADIENT_STEP = OptimizerSpec("bfgs").gradient_step


def derive_run_seed(family: str, optimizer: str, seed: int) -> int:
    """Stable 64-bit seed from the run's identity, so every cell draws an
    independent random stream regardless of execution order."""
    key = f"{family}\x1f{optimizer}\x1f{int(seed)}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class _RunTask:
    family: FamilySpec
    optimizer: OptimizerSpec
    seed: int
    ctx: EnsembleContext
    theta0_policy: Theta0Policy


def _effective_optimizer(spec: OptimizerSpec, family: FamilySpec) -> OptimizerSpec:
    """Under shot-based estimation, widen the finite-difference step unless
    the config overrode the default."""
    if family.estimator.mode == "shots" and spec.gradient_step == _DEFAULT_GRADIENT_STEP:
        return replace(spec, gradient_step=NOISY_GRADIENT_STEP)
    return spec


def execute_run(task: _RunTask) -> RunRecord:
    ctx = task.ctx
    run_seed = derive_run_seed(task.family.name, task.optimizer.kind, task.seed)
    shot_ss, opt_ss, theta_ss = np.random.SeedSequence(run_seed).spawn(3)
    shot_rng = np.random.default_rng(shot_ss)
    theta0 = task.theta0_policy.draw(ctx.ansatz.n_params, np.random.default_rng(theta_ss))
    spec = _effective_optimizer(task.optimizer, task.family)

    def cost(thetas):  # sa_cost is looked up here at every evaluation
        return sa_cost(thetas, ctx, shot_rng)

    start = time.perf_counter()
    try:
        result = minimize(StackCost(cost), theta0, spec, np.random.default_rng(opt_ss))
    except CostEvaluationError as exc:
        e_ground = e_excited = math.nan
        n_evals, converged = exc.n_evals, False
    else:
        e_ground, e_excited = resolve_states(result.theta_best, ctx)
        n_evals, converged = result.n_evals, result.converged
    wall = (time.perf_counter() - start) * 1000.0
    identity = (task.family.name, task.optimizer.kind, task.seed)
    return RunRecord(*identity, e_ground, e_excited, e_ground + e_excited, n_evals, converged, wall)


def _tasks(cfg: ExperimentConfig) -> list[_RunTask]:
    """The grid's runs in order.  The problem files are read once, and the
    ansatz's parameters and every family's context are checked before any
    run starts."""
    hamiltonian = load_hamiltonian(cfg.hamiltonian_path)
    ansatz = load_circuit(cfg.circuit_path)
    if ansatz.n_params == 0:
        raise ParameterDomainError(f"ansatz {cfg.circuit_path} has no t<k> parameter")
    contexts = [
        EnsembleContext(hamiltonian, ansatz, cfg.phi_a, cfg.phi_b, family.estimator)
        for family in cfg.families
    ]
    return [
        _RunTask(family, optimizer, seed, ctx, cfg.theta0_policy)
        for family, ctx in zip(cfg.families, contexts)
        for optimizer in cfg.optimizers
        for seed in cfg.seeds
    ]


def run_experiment(
    cfg: ExperimentConfig, out_path=None, jobs: int = 1, progress=None
) -> list[RunRecord]:
    """Run the whole grid.  Results are identical for any jobs value: each
    run draws from its own seeded stream and records are emitted in grid
    order.  If out_path is given, records stream to the CSV as they finish;
    a problem that fails to load leaves out_path untouched."""
    tasks = _tasks(cfg)
    records = []
    sinks = [records.append]
    with contextlib.ExitStack() as stack:
        if out_path is not None:
            handle = stack.enter_context(open(out_path, "w", newline="", encoding="utf-8"))
            sinks.append(row_writer(handle))
        if progress is not None:
            sinks.append(progress)
        runs = map(execute_run, tasks)
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # its import costs every command

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            runs = pool.map(execute_run, tasks)
        for record in runs:
            for sink in sinks:
                sink(record)
    return records
