"""Plot-ready analysis outputs built from run records: per-optimizer
statistical batteries and cross-optimizer rankings."""
from __future__ import annotations

import csv
import json
import logging
import math
from pathlib import Path

import numpy as np

from ..errors import DegenerateSampleError, ParameterDomainError, VqeBenchError
from ..stats import (
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


def _finite_cells(records):
    """family -> (n, 2) array of finite (e_ground, e_excited) points."""
    cells: dict[str, list] = {}
    for r in records:
        if math.isfinite(r.e_ground) and math.isfinite(r.e_excited):
            cells.setdefault(r.family, []).append([r.e_ground, r.e_excited])
    return {fam: np.array(pts) for fam, pts in cells.items()}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_matrix_csv(path: Path, labels, matrix) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + list(labels))
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [format(v, ".6g") for v in row])


def analyze_optimizer(records, out_dir, n_perm: int = 9999, seed: int = 0) -> None:
    """Run the full battery for one optimizer's records and write the report
    files into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = _finite_cells(records)
    usable = {f: pts for f, pts in cells.items() if pts.shape[0] >= _MIN_GROUP}
    skipped = {
        f: f"only {cells[f].shape[0]} finite points" for f in cells if f not in usable
    }
    families = sorted(usable)

    mardia_out: dict[str, dict] = {}
    mardia_err: dict[str, str] = dict(skipped)
    for fam in families:
        try:
            skew, kurt = mardia_test(Sample2D(usable[fam], family=fam))
            mardia_out[fam] = {"skew": skew.to_dict(), "kurt": kurt.to_dict()}
        except VqeBenchError as exc:
            mardia_err[fam] = str(exc)
    _write_json(out_dir / "mardia.json", {"families": mardia_out, "errors": mardia_err})

    try:
        box = box_m_test([Sample2D(usable[f], family=f) for f in families])
        payload = {"groups": families, **box.to_dict()}
    except VqeBenchError as exc:
        payload = {"groups": families, "error": str(exc)}
    _write_json(out_dir / "box_m.json", payload)

    scores = {
        "e_ground": [usable[f][:, 0] for f in families],
        "e_excited": [usable[f][:, 1] for f in families],
        "e_sa": [usable[f].sum(axis=1) for f in families],
    }
    for name, center in (("levene.json", "mean"), ("brown_forsythe.json", "median")):
        per_score = {}
        for label, groups in scores.items():
            try:
                per_score[label] = levene_like_test(groups, center=center).to_dict()
            except VqeBenchError as exc:
                per_score[label] = {"error": str(exc)}
        _write_json(out_dir / name, {"groups": families, **per_score})

    if len(families) >= 2:
        points = np.vstack([usable[f] for f in families])
        labels = [f for f in families for _ in range(usable[f].shape[0])]
        for name, test_fn, test_key in (
            ("permanova", permanova, "permanova"),
            ("permdisp", permdisp, "permdisp"),
        ):
            rng = np.random.default_rng(seed)
            try:
                res = test_fn(points, labels, n_perm=n_perm, rng=rng)
                payload = {"groups": families, **res.to_dict()}
            except VqeBenchError as exc:
                payload = {"groups": families, "error": str(exc)}
            _write_json(out_dir / f"{name}.json", payload)
            rng = np.random.default_rng(seed)
            try:
                pm = pairwise_posthoc(
                    points, labels, test=test_key, adjust="bh", n_perm=n_perm, rng=rng
                )
                _write_matrix_csv(
                    out_dir / f"{name}_pairwise.csv", pm.labels, pm.p_adjusted
                )
            except VqeBenchError as exc:
                _write_json(out_dir / f"{name}_pairwise_error.json", {"error": str(exc)})

    with open(out_dir / "ellipses.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["family", "mu_x", "mu_y", "s_xx", "s_xy", "s_yy", "d95_sq"])
        for fam in families:
            try:
                ell = bootstrap_ellipse(
                    Sample2D(usable[fam], family=fam), rng=np.random.default_rng(seed)
                )
            except VqeBenchError as exc:
                optimizer = ", ".join(sorted({r.optimizer for r in records}))
                _log.warning("%s: no ellipse for family %s: %s", optimizer, fam, exc)
                continue
            writer.writerow(
                [fam]
                + [
                    format(v, ".17g")
                    for v in (
                        ell.mu[0],
                        ell.mu[1],
                        ell.sigma[0, 0],
                        ell.sigma[0, 1],
                        ell.sigma[1, 1],
                        ell.d95_sq,
                    )
                ]
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
    tied-rank heatmap.  Returns the summary payload also written to disk."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    finite = [
        (r.family, r.optimizer, r.e_ground, r.e_excited)
        for r in records
        if math.isfinite(r.e_ground) and math.isfinite(r.e_excited)
    ]
    cell_metrics, optimizer_metrics = distance_metrics(finite, reference)

    with open(out_dir / "cell_metrics.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["optimizer", "family", "centroid_distance", "mean_distance", "rms_distance", "n_points"]
        )
        for (opt, fam), m in sorted(cell_metrics.items()):
            writer.writerow(
                [opt, fam]
                + [format(v, ".17g") for v in (m.centroid_distance, m.mean_distance, m.rms_distance)]
                + [m.n_points]
            )
    with open(out_dir / "optimizer_metrics.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["optimizer", "mean_distance", "rms_distance", "avg_place", "sd_place", "wins", "n_points"]
        )
        for opt in sorted(optimizer_metrics):
            m = optimizer_metrics[opt]
            writer.writerow(
                [opt]
                + [
                    format(v, ".17g")
                    for v in (m.mean_distance, m.rms_distance, m.avg_place, m.sd_place)
                ]
                + [m.wins, m.n_points]
            )

    optimizers = sorted(optimizer_metrics)
    families = sorted(
        {
            fam
            for fam in {f for _, f in cell_metrics}
            if all((opt, fam) in cell_metrics for opt in optimizers)
        }
    )
    summary = {
        "optimizers": optimizers,
        "families": families,
        "metrics": {
            opt: {
                "mean_distance": optimizer_metrics[opt].mean_distance,
                "rms_distance": optimizer_metrics[opt].rms_distance,
                "avg_place": optimizer_metrics[opt].avg_place,
                "sd_place": optimizer_metrics[opt].sd_place,
                "wins": optimizer_metrics[opt].wins,
                "n_points": optimizer_metrics[opt].n_points,
            }
            for opt in optimizers
        },
    }

    if len(families) >= 2 and len(optimizers) >= 2:
        values = np.array(
            [
                [cell_metrics[(opt, fam)].mean_distance for opt in optimizers]
                for fam in families
            ]
        )
        fried = friedman_test(values)
        summary["friedman"] = fried.to_dict()

        holm = holm_wilcoxon_matrix(values)
        _write_matrix_csv(out_dir / "wilcoxon_pairs.csv", optimizers, holm)

        places = tied_rank_groups(values, alpha=alpha)
        summary["tied_places"] = {opt: int(p) for opt, p in zip(optimizers, places)}

        with open(out_dir / "rank_heatmap.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["family"] + optimizers)
            for fam, row in zip(families, values):
                writer.writerow([fam] + [format(v, ".1f") for v in rankdata(row)])
            writer.writerow(["overall"] + [str(int(p)) for p in places])
    elif len(optimizers) < 2:
        raise ParameterDomainError("ranking needs at least two optimizers")

    _write_json(out_dir / "rank_summary.json", summary)
    return summary
