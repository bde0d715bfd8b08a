"""Output checks and fingerprints.

Each check returns ``(attempted, failed, problems)``: the operations it
judged, how many of them failed, and a message per problem found.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from inputs import RANK_FILES

IDEAL_TOLERANCE = 1e-9


def check_runs(csv_path: Path | None, expected: set, e_sa_exact: float) -> tuple[int, int, list[str]]:
    """One operation per expected (family, optimizer, seed) run, plus one per
    row that should not be there.  A run fails if its row is missing, has a
    NaN energy, has e_ground > e_excited, or is an ``ideal`` row below the
    exact E0+E1 (the variational bound).  A csv_path of None means ``run``
    exited nonzero, which fails every run."""
    if csv_path is None:
        return len(expected), len(expected), ["run: stage exited nonzero"]
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    bad = set()
    extra = 0
    seen = set()
    for row in rows:
        try:
            key = (row["family"], row["optimizer"], int(row["seed"]))
            e_ground, e_excited, e_sa = (float(row[k]) for k in ("e_ground", "e_excited", "e_sa"))
        except (KeyError, TypeError, ValueError):
            problems.append(f"malformed row {row!r}")
            extra += 1
            continue
        if key not in expected or key in seen:
            problems.append(f"unexpected row {key}")
            extra += 1
            continue
        seen.add(key)
        if any(math.isnan(v) for v in (e_ground, e_excited, e_sa)):
            problems.append(f"NaN energy in {key}")
        elif e_ground > e_excited:
            problems.append(f"e_ground > e_excited in {key}")
        elif key[0] == "ideal" and e_sa < e_sa_exact - IDEAL_TOLERANCE:
            problems.append(f"ideal run {key}: e_sa {e_sa!r} below exact {e_sa_exact!r}")
        else:
            continue
        bad.add(key)
    missing = expected - seen
    problems.extend(f"missing run {key}" for key in sorted(missing))
    return len(expected) + extra, len(bad) + len(missing) + extra, problems


def _json_problems(payload, errors_allowed: bool, where: str) -> list[str]:
    problems = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "error" and not errors_allowed:
                    problems.append(f"{where}: error at {path or '/'}: {value}")
                elif key == "errors" and value and not errors_allowed:
                    problems.append(f"{where}: errors at {path or '/'}: {value}")
                elif key == "p" and isinstance(value, (int, float)) and not 0.0 <= value <= 1.0:
                    problems.append(f"{where}: p-value {value!r} outside [0, 1] at {path}")
                walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}")

    walk(payload, "")
    return problems


def _pairwise_problems(path: Path, where: str) -> list[str]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    problems = []
    for row in rows[1:]:
        for cell in row[1:]:
            value = float(cell)
            if not math.isnan(value) and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: p-value {value!r} outside [0, 1]")
    return problems


def check_report_file(path: Path, errors_allowed: bool) -> list[str]:
    """Problems of one report file: missing, an unexpected ``error``, or a
    p-value outside [0, 1]."""
    where = str(path)
    if not path.is_file():
        return [f"{where}: missing"]
    try:
        if path.suffix == ".json":
            return _json_problems(json.loads(path.read_text()), errors_allowed, where)
        if path.name.endswith("_pairwise.csv") or path.name == "wilcoxon_pairs.csv":
            return _pairwise_problems(path, where)
    except (OSError, ValueError) as exc:
        return [f"{where}: unreadable: {exc}"]
    return []


def check_reports(
    analyze_dir: Path | None,
    rank_dir: Path | None,
    optimizers,
    analyze_files,
    errors_allowed: bool,
) -> tuple[int, int, list[str]]:
    """One operation per expected report file of ``analyze`` (per optimizer)
    and of ``rank``.  A directory of None means that stage exited nonzero,
    which fails each of its operations.  ``errors_allowed`` applies to the
    analyze reports only; a rank report never carries an error."""
    expected = [
        (analyze_dir, f"{opt}/{name}", errors_allowed)
        for opt in optimizers
        for name in analyze_files
    ] + [(rank_dir, name, False) for name in RANK_FILES]
    failed = 0
    problems = []
    for directory, name, allowed in expected:
        found = (
            [f"{name}: stage exited nonzero"]
            if directory is None
            else check_report_file(directory / name, allowed)
        )
        failed += bool(found)
        problems.extend(found)
    return len(expected), failed, problems


def fingerprint(runs_csv: Path, report_dirs) -> str:
    """sha256 over the runs CSV without its ``wall_time_ms`` column, then
    every report file in sorted relative-path order."""
    digest = hashlib.sha256()
    with open(runs_csv, newline="") as handle:
        for row in csv.reader(handle):
            digest.update(",".join(row[:-1]).encode() + b"\n")
    for directory in report_dirs:
        for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()
