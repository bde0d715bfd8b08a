"""The runs CSV: one `RunRecord` per row, written and read as UTF-8.

This module imports only `vqebench.errors`, so `analyze` and `rank` read
runs without loading the simulator or the optimizers.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ParameterDomainError


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


def _record_row(r: RunRecord) -> list[str]:
    return [fmt(getattr(r, name)) for name, fmt, _ in _COLUMNS]


def row_writer(handle):
    """Write the runs-CSV header to handle; return a writer of one flushed row."""
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)

    def write(record: RunRecord) -> None:
        writer.writerow(_record_row(record))
        handle.flush()

    return write


def write_records(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write = row_writer(handle)
        for record in records:
            write(record)


def read_records(path) -> list[RunRecord]:
    """The file's records.  A run, a (family, optimizer, seed), that two rows
    hold is an error: the battery would count its points twice."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParameterDomainError(f"cannot read runs file {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ParameterDomainError(f"{path} does not start with the runs CSV header")
    rows_of_run: dict[tuple, int] = {}
    records = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            raise ParameterDomainError(f"malformed row {number} in {path}: {row!r}")
        try:
            record = RunRecord(*(parse(cell) for (_, _, parse), cell in zip(_COLUMNS, row)))
        except ValueError as exc:
            raise ParameterDomainError(f"bad row {number} in {path}: {row!r}: {exc}") from None
        run = (record.family, record.optimizer, record.seed)
        first = rows_of_run.setdefault(run, number)
        if first != number:
            raise ParameterDomainError(f"rows {first} and {number} in {path} repeat run {run!r}")
        records.append(record)
    return records
