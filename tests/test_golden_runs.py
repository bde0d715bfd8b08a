"""Pinned run outputs: the golden runs CSV re-run through run_experiment.

Exact-estimator rows must match to 1e-12 in every energy; shot rows must
match as strings, so the random stream is pinned bit for bit.  n_evals and
converged must always match; wall_time_ms is ignored.

Regenerate the CSV only for a declared change to the run outputs:

    PYTHONPATH=src python tests/test_golden_runs.py

It prints, per family, the rows that moved, the largest change of the three
energies and any change of n_evals or converged, and lists each row whose
energy moved by more than 1e-12; then it rewrites the CSV.
"""
import csv
from dataclasses import replace
from pathlib import Path

import pytest

from vqebench.errors import ParameterDomainError
from vqebench.harness import (
    config_from_dict,
    lookup_family,
    read_records,
    run_experiment,
    toy_problem_paths,
    write_records,
)
from vqebench.harness.records import _COLUMNS, CSV_HEADER, RunRecord, _record_row

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


def pinned_records():
    """The golden CSV's records, parsed cell by cell with the runs CSV's
    column parsers.  Its two grids share the runs ideal/<kind>/0, which
    read_records rejects as repeated."""
    with open(GOLDEN, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == CSV_HEADER
    return [RunRecord(*(parse(cell) for (_, _, parse), cell in zip(_COLUMNS, row))) for row in rows[1:]]


def _as_dicts(rows):
    return [dict(zip(CSV_HEADER, row)) for row in rows]


def test_pinned_records_read_the_shipped_file():
    keys = [
        (family.name, optimizer.kind, seed)
        for cfg in _grids()
        for family in cfg.families
        for optimizer in cfg.optimizers
        for seed in cfg.seeds
    ]
    pinned = pinned_records()
    assert list(map(_key, pinned)) == keys
    assert len(set(keys)) < len(keys)
    with pytest.raises(ParameterDomainError, match="repeat run"):
        read_records(GOLDEN)
    with open(GOLDEN, newline="") as handle:
        assert list(map(_record_row, pinned)) == list(csv.reader(handle))[1:]


def test_golden_runs_unchanged():
    expected = _as_dicts(map(_record_row, pinned_records()))
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


#: A row whose energy moved by more than this is listed with its changes.
LISTED_DELTA = 1e-12


def rebaseline_report(pinned, fresh) -> list[str]:
    """For records of the same grid in the same order, one line per family:
    the rows whose energies moved, the largest |change| of the three
    energies, and each change of n_evals or converged.  Under it, one line
    per row of that family whose energy moved by more than LISTED_DELTA:
    its 1-based row in the CSV, and the change of each energy."""
    pinned, fresh = (_as_dicts(map(_record_row, records)) for records in (pinned, fresh))
    rows = list(enumerate(zip(pinned, fresh), start=1))
    lines = []
    for family in dict.fromkeys(r["family"] for r in pinned):
        pairs = [(i, w, g) for i, (w, g) in rows if w["family"] == family]
        deltas = {i: [float(g[c]) - float(w[c]) for c in FLOAT_COLUMNS] for i, w, g in pairs}
        moved = [i for i, w, g in pairs if any(w[c] != g[c] for c in FLOAT_COLUMNS)]
        delta = max((abs(x) for i in moved for x in deltas[i]), default=0.0)
        changed = [
            f"{w['optimizer']}/{w['seed']} {c} {w[c]} -> {g[c]}"
            for _, w, g in pairs
            for c in ("n_evals", "converged")
            if w[c] != g[c]
        ]
        lines.append(
            f"{family}: {len(moved)} of {len(pairs)} rows moved, max |delta energy| {delta:.3g}; "
            + (", ".join(changed) or "n_evals and converged unchanged")
        )
        lines.extend(
            f"  row {i} {w['optimizer']}/{w['seed']}: "
            + ", ".join(f"{c} {x:+.3g}" for c, x in zip(FLOAT_COLUMNS, deltas[i]))
            for i, w, _ in pairs
            if i in moved and not all(abs(x) <= LISTED_DELTA for x in deltas[i])
        )
    return lines


def test_rebaseline_report_lists_moved_rows():
    def record(family, optimizer, e_ground, n_evals=40):
        return RunRecord(family, optimizer, 0, e_ground, 1.0, e_ground + 1.0, n_evals, True, 5.0)

    pinned = [
        record("ideal", "bfgs", -2.0),
        record("ideal", "powell", -1.5, n_evals=108),
        record("ideal", "cobyla", -1.25),
        record("SN-256", "bfgs", -1.0),
    ]
    fresh = [
        record("ideal", "bfgs", -2.0 + 3e-9),
        record("ideal", "powell", -1.5, n_evals=114),
        record("ideal", "cobyla", -1.25 - 2**-52),  # moved, but by less than 1e-12
        record("SN-256", "bfgs", -1.0),
    ]
    assert rebaseline_report(pinned, fresh) == [
        "ideal: 2 of 3 rows moved, max |delta energy| 3e-09; powell/0 n_evals 108 -> 114",
        "  row 1 bfgs/0: e_ground +3e-09, e_excited +0, e_sa +3e-09",
        "SN-256: 0 of 1 rows moved, max |delta energy| 0; n_evals and converged unchanged",
    ]


if __name__ == "__main__":
    records = golden_records()
    pinned = pinned_records() if GOLDEN.exists() else []
    if list(map(_key, pinned)) == list(map(_key, records)):
        print("\n".join(rebaseline_report(pinned, records)))
        # wall_time_ms is not pinned: keeping the old values leaves unmoved rows byte-identical
        records = [replace(r, wall_time_ms=p.wall_time_ms) for r, p in zip(records, pinned)]
    else:
        print("the grid's rows are not the pinned CSV's rows; writing them afresh")
    GOLDEN.parent.mkdir(exist_ok=True)
    write_records(records, GOLDEN)
