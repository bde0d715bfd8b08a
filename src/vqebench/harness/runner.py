"""Run execution: seeded independent runs over the (family, optimizer, seed)
grid, CSV persistence, and per-cell summaries."""
from __future__ import annotations

import csv
import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..ensemble import EnsembleContext, resolve_states, sa_cost
from ..errors import CostEvaluationError, ParameterDomainError
from ..optimizers import OptimizerSpec, minimize
from ..qsim import load_circuit, load_hamiltonian
from .catalog import FamilySpec
from .config import ExperimentConfig, Theta0Policy

CSV_HEADER = (
    "family",
    "optimizer",
    "seed",
    "e_ground",
    "e_excited",
    "e_sa",
    "n_evals",
    "converged",
    "wall_time_ms",
)

#: Enlarged central-difference step used under shot-based estimation.
NOISY_GRADIENT_STEP = 5e-2
_DEFAULT_GRADIENT_STEP = OptimizerSpec("bfgs").gradient_step


@dataclass(frozen=True)
class RunRecord:
    family: str
    optimizer: str
    seed: int
    e_ground: float
    e_excited: float
    e_sa: float
    n_evals: int
    converged: bool
    wall_time_ms: float

    def __post_init__(self):
        if self.n_evals < 1:
            raise ParameterDomainError("n_evals must be >= 1")
        if (
            math.isfinite(self.e_ground)
            and math.isfinite(self.e_excited)
            and self.e_ground > self.e_excited
        ):
            raise ParameterDomainError("e_ground must not exceed e_excited")


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
    hamiltonian_path: str
    circuit_path: str
    phi_a: int
    phi_b: int
    theta0_policy: Theta0Policy


def _effective_optimizer(spec: OptimizerSpec, family: FamilySpec) -> OptimizerSpec:
    """Under shot-based estimation, widen the finite-difference step unless
    the config overrode the default."""
    if family.estimator.mode == "shots" and spec.gradient_step == _DEFAULT_GRADIENT_STEP:
        return replace(spec, gradient_step=NOISY_GRADIENT_STEP)
    return spec


def execute_run(task: _RunTask) -> RunRecord:
    hamiltonian = load_hamiltonian(task.hamiltonian_path)
    ansatz = load_circuit(task.circuit_path)
    ctx = EnsembleContext(
        hamiltonian=hamiltonian,
        ansatz=ansatz,
        phi_a=task.phi_a,
        phi_b=task.phi_b,
        estimator=task.family.estimator,
    )
    run_seed = derive_run_seed(task.family.name, task.optimizer.kind, task.seed)
    shot_ss, opt_ss, theta_ss = np.random.SeedSequence(run_seed).spawn(3)
    shot_rng = np.random.default_rng(shot_ss)
    theta0 = task.theta0_policy.draw(ansatz.n_params, np.random.default_rng(theta_ss))
    spec = _effective_optimizer(task.optimizer, task.family)

    def cost(theta):
        return sa_cost(theta, ctx, shot_rng)

    start = time.perf_counter()
    try:
        result = minimize(cost, theta0, spec, np.random.default_rng(opt_ss))
    except CostEvaluationError as exc:
        e_ground = e_excited = math.nan
        n_evals, converged = exc.n_evals, False
    else:
        e_ground, e_excited = resolve_states(result.theta_best, ctx)
        n_evals, converged = result.n_evals, result.converged
    wall = (time.perf_counter() - start) * 1000.0
    return RunRecord(
        family=task.family.name,
        optimizer=task.optimizer.kind,
        seed=task.seed,
        e_ground=e_ground,
        e_excited=e_excited,
        e_sa=e_ground + e_excited,
        n_evals=n_evals,
        converged=converged,
        wall_time_ms=wall,
    )


def _tasks(cfg: ExperimentConfig) -> list[_RunTask]:
    return [
        _RunTask(
            family=family,
            optimizer=optimizer,
            seed=seed,
            hamiltonian_path=cfg.hamiltonian_path,
            circuit_path=cfg.circuit_path,
            phi_a=cfg.phi_a,
            phi_b=cfg.phi_b,
            theta0_policy=cfg.theta0_policy,
        )
        for family in cfg.families
        for optimizer in cfg.optimizers
        for seed in cfg.seeds
    ]


def run_experiment(
    cfg: ExperimentConfig,
    out_path=None,
    jobs: int = 1,
    progress=None,
) -> list[RunRecord]:
    """Run the whole grid.  Results are identical for any jobs value: each
    run draws from its own seeded stream and records are emitted in grid
    order.  If out_path is given, records stream to the CSV as they finish."""
    tasks = _tasks(cfg)
    writer = None
    handle = None
    if out_path is not None:
        handle = open(out_path, "w", newline="")
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
    records = []

    def consume(produced):
        for record in produced:
            records.append(record)
            if writer is not None:
                writer.writerow(_record_row(record))
                handle.flush()
            if progress is not None:
                progress(record)

    try:
        if jobs <= 1:
            consume(map(execute_run, tasks))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                consume(pool.map(execute_run, tasks))
    finally:
        if handle is not None:
            handle.close()
    return records


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _record_row(r: RunRecord) -> list[str]:
    return [
        r.family,
        r.optimizer,
        str(r.seed),
        _fmt(r.e_ground),
        _fmt(r.e_excited),
        _fmt(r.e_sa),
        str(r.n_evals),
        "true" if r.converged else "false",
        _fmt(r.wall_time_ms),
    ]


def write_records(records, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(_record_row(record))


def read_records(path) -> list[RunRecord]:
    path = Path(path)
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParameterDomainError(f"cannot read runs file {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ParameterDomainError(f"{path} does not start with the runs CSV header")
    records = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            raise ParameterDomainError(f"malformed row {number} in {path}: {row!r}")
        try:
            records.append(
                RunRecord(
                    family=row[0],
                    optimizer=row[1],
                    seed=int(row[2]),
                    e_ground=float(row[3]),
                    e_excited=float(row[4]),
                    e_sa=float(row[5]),
                    n_evals=int(row[6]),
                    converged=row[7] == "true",
                    wall_time_ms=float(row[8]),
                )
            )
        except ValueError as exc:
            raise ParameterDomainError(f"bad row {number} in {path}: {row!r}: {exc}") from None
    return records


@dataclass(frozen=True)
class CellSummary:
    mu_final: float
    sigma_final: float
    mu_evals: float
    sigma_evals: float
    n: int
    single: bool  # sigma undefined for one record; reported as 0


def summarize(records) -> dict[tuple[str, str], CellSummary]:
    """Per-(family, optimizer) mean and sample standard deviation (n-1
    denominator) of the final energy and evaluation count."""
    cells: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        cells.setdefault((record.family, record.optimizer), []).append(record)
    out = {}
    for key, recs in cells.items():
        e_sa = np.array([r.e_sa for r in recs])
        evals = np.array([float(r.n_evals) for r in recs])
        single = len(recs) == 1
        out[key] = CellSummary(
            mu_final=float(e_sa.mean()),
            sigma_final=0.0 if single else float(e_sa.std(ddof=1)),
            mu_evals=float(evals.mean()),
            sigma_evals=0.0 if single else float(evals.std(ddof=1)),
            n=len(recs),
            single=single,
        )
    return out
