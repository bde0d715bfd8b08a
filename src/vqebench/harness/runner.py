"""Run execution: seeded independent runs over the (family, optimizer, seed)
grid and CSV persistence."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..ensemble import EnsembleContext, resolve_states, sa_cost
from ..errors import CostEvaluationError, ParameterDomainError
from ..optimizers import OptimizerSpec, StackCost, minimize
from ..qsim import load_circuit, load_hamiltonian
from .catalog import FamilySpec
from .config import ExperimentConfig, Theta0Policy

#: Enlarged central-difference step used under shot-based estimation.
NOISY_GRADIENT_STEP = 5e-2
_DEFAULT_GRADIENT_STEP = OptimizerSpec("bfgs").gradient_step


@dataclass(frozen=True)
class RunRecord:
    """One row of the runs CSV; its fields, in order, are the CSV columns."""

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


def _flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")
    return cell == "true"


#: (format, parse) of a cell by field type; 17 significant digits round-trip a float.
_CELL = {
    "str": (str, str),
    "int": (str, int),
    "float": (lambda x: format(x, ".17g"), float),
    "bool": (lambda b: "true" if b else "false", _flag),
}
_COLUMNS = tuple((f.name, *_CELL[f.type]) for f in fields(RunRecord))
CSV_HEADER = tuple(name for name, _, _ in _COLUMNS)


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
    """The grid's runs in order.  The problem files are read once, and every
    family's context is built, and so checked, before any run starts."""
    hamiltonian = load_hamiltonian(cfg.hamiltonian_path)
    ansatz = load_circuit(cfg.circuit_path)
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


def _row_writer(handle):
    """Write the runs-CSV header to handle; return a writer of one flushed row."""
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)

    def write(record: RunRecord) -> None:
        writer.writerow(_record_row(record))
        handle.flush()

    return write


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
            sinks.append(_row_writer(stack.enter_context(open(out_path, "w", newline=""))))
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


def _record_row(r: RunRecord) -> list[str]:
    return [fmt(getattr(r, name)) for name, fmt, _ in _COLUMNS]


def write_records(records, path) -> None:
    with open(path, "w", newline="") as handle:
        write = _row_writer(handle)
        for record in records:
            write(record)


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
            records.append(RunRecord(*(parse(cell) for (_, _, parse), cell in zip(_COLUMNS, row))))
        except ValueError as exc:
            raise ParameterDomainError(f"bad row {number} in {path}: {row!r}: {exc}") from None
    return records
