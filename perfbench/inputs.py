"""Workload definitions and the seeded inputs the program is given.

Everything the program sees is generated here from the workload seed: the
experiment config of a grid workload (its ``seeds`` list) and the synthetic
runs CSV of ``analyze-battery``.  The same seed gives byte-identical files.
"""
from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

OPTIMIZERS = ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla", "isoma")

#: The 21 catalog family names, in catalog order.  ``vqebench catalog`` must
#: print exactly these.
CATALOG = (
    "ideal",
    "SN-256", "SN-512", "SN-1024", "SN-6144",
    "DP-1%", "DP-5%", "DP-10%", "DP-20%",
    "DEPOL-1%", "DEPOL-5%", "DEPOL-10%", "DEPOL-20%",
    "T2=70us", "T2=80us", "T2=180us", "T2=380us",
    "TR-T1=50ns", "TR-T1=100ns", "TR-T1=200ns", "TR-T1=300ns",
)

#: Optimizer budgets of the grid workloads.  The default budgets cost about
#: 30 s per seed on grid-noisy, which does not fit a run even once; with
#: these caps a grid pass takes 5-10 s and repeats within a run.  They change
#: how many evaluations a run makes, not what one evaluation costs, and most
#: runs end on the cap, so the evaluation count barely depends on the seed.
GRID_OPTIMIZERS = (
    {"kind": "bfgs", "maxiter": 6},
    {"kind": "slsqp", "maxiter": 6},
    {"kind": "nelder_mead", "maxiter": 30},
    {"kind": "powell", "maxiter": 1},
    {"kind": "cobyla", "maxiter": 20},
    {"kind": "isoma", "isoma": {"max_fes": 75}},
)

#: Report files ``vqebench analyze`` writes per optimizer once at least two
#: families have three or more points, and those it writes in any case.
ANALYZE_FILES_FULL = (
    "mardia.json", "box_m.json", "levene.json", "brown_forsythe.json",
    "permanova.json", "permdisp.json", "permanova_pairwise.csv",
    "permdisp_pairwise.csv", "ellipses.csv",
)
ANALYZE_FILES_SKIPPED = (
    "mardia.json", "box_m.json", "levene.json", "brown_forsythe.json", "ellipses.csv",
)
RANK_FILES = (
    "cell_metrics.csv", "optimizer_metrics.csv", "wilcoxon_pairs.csv",
    "rank_heatmap.csv", "rank_summary.json",
)

#: analyze-battery's optimizer blocks: (optimizer, points per family).  With
#: ten points a family pair has C(20, 10) = 184756 label assignments, more
#: than ``BATTERY_N_PERM``, so its tests take the Monte-Carlo path; with four
#: points a pair has C(8, 4) = 70 <= ``BATTERY_N_PERM`` and is enumerated.
BATTERY_BLOCKS = (("nelder_mead", 10), ("bfgs", 4))
BATTERY_N_PERM = 99


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[str, ...] = ()  # empty: no ``run`` stage
    theta0: str | None = None  # None: the config default (zeros)
    grid_seeds: int = 0
    n_perm: int | None = None  # None: the CLI default
    analyze_files: tuple[str, ...] = ANALYZE_FILES_FULL
    # Grid reports carry "too few points" errors by design (fewer than three
    # seeds per cell); the battery's reports must carry none.
    errors_allowed: bool = False

    @property
    def is_grid(self) -> bool:
        return bool(self.families)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-noisy",
            why="one family per channel type: Kraus channels and noisy shot "
            "readout dominate, every run is distinct, analyze is small",
            families=("DP-5%", "DEPOL-5%", "T2=70us", "TR-T1=50ns"),
            theta0="uniform",
            grid_seeds=1,
            analyze_files=ANALYZE_FILES_SKIPPED,
            errors_allowed=True,
        ),
        Workload(
            name="grid-light",
            why="no channels: gate path, shot estimator and optimizer overhead "
            "dominate; on ideal 5 of 6 optimizers repeat the same run per seed",
            families=("ideal", "SN-256", "SN-6144"),
            grid_seeds=2,
            analyze_files=ANALYZE_FILES_SKIPPED,
            errors_allowed=True,
        ),
        Workload(
            name="analyze-battery",
            why="synthetic runs over all 21 families: the stats layer does the "
            "work, on both the Monte-Carlo and the exhaustive permutation path",
            n_perm=BATTERY_N_PERM,
        ),
    )
}


def grid_seeds(seed: int, count: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(10_000), count))


def grid_config(workload: Workload, seed: int) -> dict:
    """The experiment config of a grid workload; toy files sit beside it."""
    config = {
        "hamiltonian_path": "toy2q.ham",
        "circuit_path": "toy2q.circ",
        "phi_a": 0,
        "phi_b": 1,
        "families": list(workload.families),
        "optimizers": [dict(o) for o in GRID_OPTIMIZERS],
        "seeds": grid_seeds(seed, workload.grid_seeds),
    }
    if workload.theta0 is not None:
        config["theta0_policy"] = workload.theta0
    return config


def _fmt(x: float) -> str:
    return format(x, ".17g")


def synthetic_runs_csv(seed: int) -> str:
    """Runs CSV text for analyze-battery: every catalog family in each
    optimizer block, as Gaussian clusters of (e_ground, e_excited) points
    with a per-family centre and spread."""
    rng = random.Random(seed)
    centres = {
        fam: (-2.45 + rng.uniform(-0.4, 0.4), -0.45 + rng.uniform(-0.4, 0.4),
              rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05))
        for fam in CATALOG
    }
    lines = ["family,optimizer,seed,e_ground,e_excited,e_sa,n_evals,converged,wall_time_ms"]
    for optimizer, points in BATTERY_BLOCKS:
        for fam in CATALOG:
            g0, x0, sg, sx = centres[fam]
            for s in range(points):
                g = g0 + rng.gauss(0.0, sg)
                x = x0 + rng.gauss(0.0, sx)
                lines.append(",".join((
                    fam, optimizer, str(s), _fmt(g), _fmt(x), _fmt(g + x),
                    str(rng.randint(50, 1500)), "true",
                    _fmt(rng.uniform(50.0, 5000.0)),
                )))
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> Path:
    """Write the workload's input into out_dir and return its path: the
    config (with copies of the toy problem files) or the runs CSV."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.is_grid:
        for name in ("toy2q.ham", "toy2q.circ"):
            shutil.copyfile(data_dir / name, out_dir / name)
        path = out_dir / "config.json"
        path.write_text(json.dumps(grid_config(workload, seed), indent=1) + "\n")
    else:
        path = out_dir / "runs.csv"
        path.write_text(synthetic_runs_csv(seed))
    return path


def expected_runs(workload: Workload, seed: int) -> set[tuple[str, str, int]]:
    """(family, optimizer, seed) of every row ``vqebench run`` must write."""
    return {
        (fam, opt, s)
        for fam in workload.families
        for opt in OPTIMIZERS
        for s in grid_seeds(seed, workload.grid_seeds)
    }


def optimizers_of(workload: Workload) -> tuple[str, ...]:
    return OPTIMIZERS if workload.is_grid else tuple(o for o, _ in BATTERY_BLOCKS)
