"""Pinned run outputs: the golden runs CSV re-run through run_experiment.

Exact-estimator rows must match to 1e-12 in every energy; shot rows must
match as strings, so the random stream is pinned bit for bit.  n_evals and
converged must always match; wall_time_ms is ignored.

Regenerate the CSV only for a declared change to the run outputs:

    PYTHONPATH=src python tests/test_golden_runs.py
"""
import csv
from pathlib import Path

import pytest

from vqebench.harness import (
    config_from_dict,
    lookup_family,
    run_experiment,
    toy_problem_paths,
    write_records,
)
from vqebench.harness.runner import CSV_HEADER, _record_row

GOLDEN = Path(__file__).parent / "data" / "golden_runs.csv"

#: Budgets capped so most runs end on the cap (the benchmark's grid caps).
CAPPED_OPTIMIZERS = [
    {"kind": "bfgs", "maxiter": 6},
    {"kind": "slsqp", "maxiter": 6},
    {"kind": "nelder_mead", "maxiter": 30},
    {"kind": "powell", "maxiter": 1},
    {"kind": "cobyla", "maxiter": 20},
    {"kind": "isoma", "isoma": {"max_fes": 75}},
]
DEFAULT_OPTIMIZERS = ["bfgs", "slsqp", "nelder_mead", "powell", "cobyla", "isoma"]
FLOAT_COLUMNS = ("e_ground", "e_excited", "e_sa")


def _grids():
    ham, circ = toy_problem_paths()
    base = {"hamiltonian_path": ham, "circuit_path": circ, "theta0_policy": "uniform"}
    capped = {
        "families": ["ideal", "SN-256", "DEPOL-5%", "TR-T1=50ns"],
        "optimizers": CAPPED_OPTIMIZERS,
        "seeds": [0, 1],
    }
    # default budgets, so converged exits are pinned as well as cap exits
    default = {"families": ["ideal"], "optimizers": DEFAULT_OPTIMIZERS, "seeds": [0]}
    return [config_from_dict({**base, **grid}) for grid in (capped, default)]


def golden_records():
    """Records of a fresh run of the golden grids, in file order."""
    return [record for cfg in _grids() for record in run_experiment(cfg)]


def golden_rows():
    """Rows of a fresh run of the golden grids, as the runs CSV writes them."""
    return [_record_row(r) for r in golden_records()]


def _as_dicts(rows):
    return [dict(zip(CSV_HEADER, row)) for row in rows]


def test_golden_runs_unchanged():
    with open(GOLDEN, newline="") as handle:
        pinned = list(csv.reader(handle))
    assert tuple(pinned[0]) == CSV_HEADER
    expected = _as_dicts(pinned[1:])
    actual = _as_dicts(golden_rows())
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        key = (want["family"], want["optimizer"], want["seed"])
        assert (got["family"], got["optimizer"], got["seed"]) == key
        assert (got["n_evals"], got["converged"]) == (want["n_evals"], want["converged"]), key
        if lookup_family(want["family"]).estimator.mode == "exact":
            for col in FLOAT_COLUMNS:
                assert float(got[col]) == pytest.approx(float(want[col]), rel=0, abs=1e-12), (key, col)
        else:
            assert [got[c] for c in FLOAT_COLUMNS] == [want[c] for c in FLOAT_COLUMNS], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write_records(golden_records(), GOLDEN)
