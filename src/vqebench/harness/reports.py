"""Plot-ready analysis outputs built from run records: per-optimizer
statistical batteries and cross-optimizer rankings."""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from ..errors import DegenerateSampleError, ParameterDomainError, VqeBenchError
from ..stats import (
    CellMetrics,
    OptimizerMetrics,
    Sample2D,
    bootstrap_ellipse,
    box_m_test,
    distance_metrics,
    friedman_test,
    holm_wilcoxon_matrix,
    levene_like_test,
    mardia_test,
    pairwise_posthoc,
    permanova,
    permdisp,
    rankdata,
    tied_rank_groups,
)

_MIN_GROUP = 3  # points per family needed for the multivariate battery

_log = logging.getLogger(__name__)


def _finite(records) -> list:
    """The records whose two energies are finite."""
    return [r for r in records if math.isfinite(r.e_ground) and math.isfinite(r.e_excited)]


def _outcome(test, *args, **kw) -> dict:
    """The test's result as a dict, or the error it raised."""
    try:
        return test(*args, **kw).to_dict()
    except VqeBenchError as exc:
        return {"error": str(exc)}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows, float_format: str = ".17g") -> None:
    """Write the rows under the header; float cells in float_format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, float_format) if isinstance(v, float) else v for v in row])


def _write_matrix_csv(path: Path, labels, matrix) -> None:
    _write_csv(path, ["", *labels], ([label, *row] for label, row in zip(labels, matrix)), ".6g")


def analyze_optimizer(records, out_dir, n_perm: int = 9999, seed: int = 0) -> None:
    """Run the full battery for one optimizer's records and write the report
    files into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells: dict[str, list] = {}
    for r in _finite(records):
        cells.setdefault(r.family, []).append((r.e_ground, r.e_excited))
    samples = {
        f: Sample2D(np.array(cells[f]), family=f)
        for f in sorted(cells)
        if len(cells[f]) >= _MIN_GROUP
    }
    families = list(samples)

    mardia_out: dict[str, dict] = {}
    mardia_err = {f: f"only {len(c)} finite points" for f, c in cells.items() if f not in samples}
    for fam, sample in samples.items():
        try:
            skew, kurt = mardia_test(sample)
            mardia_out[fam] = {"skew": skew.to_dict(), "kurt": kurt.to_dict()}
        except VqeBenchError as exc:
            mardia_err[fam] = str(exc)
    _write_json(out_dir / "mardia.json", {"families": mardia_out, "errors": mardia_err})

    box = _outcome(box_m_test, list(samples.values()))
    _write_json(out_dir / "box_m.json", {"groups": families, **box})

    points = [s.points for s in samples.values()]
    scores = {
        "e_ground": [p[:, 0] for p in points],
        "e_excited": [p[:, 1] for p in points],
        "e_sa": [p.sum(axis=1) for p in points],
    }
    for name, center in (("levene.json", "mean"), ("brown_forsythe.json", "median")):
        per_score = {k: _outcome(levene_like_test, g, center=center) for k, g in scores.items()}
        _write_json(out_dir / name, {"groups": families, **per_score})

    if len(families) >= 2:
        stacked = np.vstack(points)
        labels = [f for f, s in samples.items() for _ in range(s.n)]
        for name, test_fn in (("permanova", permanova), ("permdisp", permdisp)):
            rng = np.random.default_rng(seed)
            omnibus = _outcome(test_fn, stacked, labels, n_perm=n_perm, rng=rng)
            _write_json(out_dir / f"{name}.json", {"groups": families, **omnibus})
            rng = np.random.default_rng(seed)
            try:
                pm = pairwise_posthoc(stacked, labels, test=name, n_perm=n_perm, rng=rng)
            except VqeBenchError as exc:
                _write_json(out_dir / f"{name}_pairwise_error.json", {"error": str(exc)})
            else:
                _write_matrix_csv(out_dir / f"{name}_pairwise.csv", pm.labels, pm.p_adjusted)

    ellipses = []
    for fam, sample in samples.items():
        try:
            ell = bootstrap_ellipse(sample, rng=np.random.default_rng(seed))
        except VqeBenchError as exc:
            optimizer = ", ".join(sorted({r.optimizer for r in records}))
            _log.warning("%s: no ellipse for family %s: %s", optimizer, fam, exc)
            continue
        s = ell.sigma
        ellipses.append([fam, *ell.mu, s[0, 0], s[0, 1], s[1, 1], ell.d95_sq])
    _write_csv(
        out_dir / "ellipses.csv",
        ["family", "mu_x", "mu_y", "s_xx", "s_xy", "s_yy", "d95_sq"],
        ellipses,
    )


def analyze_runs(records, out_dir, n_perm: int = 9999, seed: int = 0) -> list[str]:
    """Per-optimizer battery; returns the optimizer names analyzed."""
    out_dir = Path(out_dir)
    optimizers = sorted({r.optimizer for r in records})
    if not optimizers:
        raise DegenerateSampleError("runs file contains no records")
    for opt in optimizers:
        subset = [r for r in records if r.optimizer == opt]
        analyze_optimizer(subset, out_dir / opt, n_perm=n_perm, seed=seed)
    return optimizers


def rank_runs(records, reference, out_dir, alpha: float = 0.05) -> dict:
    """Distance metrics against the reference pair, Friedman/Kendall over the
    per-family mean distances, pairwise Wilcoxon with Holm correction, and a
    tied-rank heatmap.  Returns the summary payload also written to disk;
    fewer than two optimizers raise before anything is written."""
    cell_metrics, optimizer_metrics = distance_metrics(
        [(r.family, r.optimizer, r.e_ground, r.e_excited) for r in _finite(records)],
        reference,
    )
    optimizers = sorted(optimizer_metrics)
    if len(optimizers) < 2:
        raise ParameterDomainError("ranking needs at least two optimizers")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out_dir / "cell_metrics.csv",
        ["optimizer", "family", *(f.name for f in fields(CellMetrics))],
        ([opt, fam, *astuple(m)] for (opt, fam), m in sorted(cell_metrics.items())),
    )
    _write_csv(
        out_dir / "optimizer_metrics.csv",
        ["optimizer", *(f.name for f in fields(OptimizerMetrics))],
        ([opt, *astuple(optimizer_metrics[opt])] for opt in optimizers),
    )

    families = sorted(
        {fam for _, fam in cell_metrics if all((opt, fam) in cell_metrics for opt in optimizers)}
    )
    summary = {
        "optimizers": optimizers,
        "families": families,
        "metrics": {opt: asdict(optimizer_metrics[opt]) for opt in optimizers},
    }

    if len(families) >= 2:
        values = np.array(
            [[cell_metrics[(opt, fam)].mean_distance for opt in optimizers] for fam in families]
        )
        summary["friedman"] = friedman_test(values).to_dict()

        _write_matrix_csv(out_dir / "wilcoxon_pairs.csv", optimizers, holm_wilcoxon_matrix(values))

        places = tied_rank_groups(values, alpha=alpha)
        summary["tied_places"] = {opt: int(p) for opt, p in zip(optimizers, places)}
        heatmap = [[fam, *rankdata(row)] for fam, row in zip(families, values)]
        heatmap.append(["overall", *(int(p) for p in places)])
        _write_csv(out_dir / "rank_heatmap.csv", ["family", *optimizers], heatmap, ".1f")

    _write_json(out_dir / "rank_summary.json", summary)
    return summary
