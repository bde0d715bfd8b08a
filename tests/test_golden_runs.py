"""Pinned run outputs: the golden runs CSV re-run through run_experiment.

Exact-estimator rows must match to 1e-12 in every energy; shot rows must
match as strings, so the random stream is pinned bit for bit.  n_evals and
converged must always match; wall_time_ms is ignored.

Regenerate the CSV only for a declared change to the run outputs:

    PYTHONPATH=src python tests/test_golden_runs.py

It prints, per family, the rows that moved, the largest change of the three
energies and any change of n_evals or converged, then rewrites the CSV.
"""
import csv
from dataclasses import replace
from pathlib import Path

import pytest

from vqebench.harness import (
    config_from_dict,
    lookup_family,
    read_records,
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


def _key(record):
    return record.family, record.optimizer, record.seed


def rebaseline_report(pinned, fresh) -> list[str]:
    """For records of the same grid in the same order, one line per family:
    the rows whose energies moved, the largest |change| of the three
    energies, and each change of n_evals or converged."""
    pinned, fresh = (_as_dicts(map(_record_row, records)) for records in (pinned, fresh))
    lines = []
    for family in dict.fromkeys(r["family"] for r in pinned):
        pairs = [(w, g) for w, g in zip(pinned, fresh) if w["family"] == family]
        moved = [(w, g) for w, g in pairs if any(w[c] != g[c] for c in FLOAT_COLUMNS)]
        delta = max(
            (abs(float(g[c]) - float(w[c])) for w, g in moved for c in FLOAT_COLUMNS), default=0.0
        )
        changed = [
            f"{w['optimizer']}/{w['seed']} {c} {w[c]} -> {g[c]}"
            for w, g in pairs
            for c in ("n_evals", "converged")
            if w[c] != g[c]
        ]
        lines.append(
            f"{family}: {len(moved)} of {len(pairs)} rows moved, max |delta energy| {delta:.3g}; "
            + (", ".join(changed) or "n_evals and converged unchanged")
        )
    return lines


if __name__ == "__main__":
    records = golden_records()
    pinned = read_records(GOLDEN) if GOLDEN.exists() else []
    if list(map(_key, pinned)) == list(map(_key, records)):
        print("\n".join(rebaseline_report(pinned, records)))
        # wall_time_ms is not pinned: keeping the old values leaves unmoved rows byte-identical
        records = [replace(r, wall_time_ms=p.wall_time_ms) for r, p in zip(records, pinned)]
    else:
        print("the grid's rows are not the pinned CSV's rows; writing them afresh")
    GOLDEN.parent.mkdir(exist_ok=True)
    write_records(records, GOLDEN)
