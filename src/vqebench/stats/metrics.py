"""Distance-to-reference summaries per optimizer and per family."""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from ..errors import DegenerateSampleError
from .ranks import rankdata


@dataclass
class CellMetrics:
    centroid_distance: float
    mean_distance: float
    rms_distance: float
    n_points: int


@dataclass
class OptimizerMetrics:
    mean_distance: float
    rms_distance: float
    avg_place: float
    sd_place: float
    wins: int
    n_points: int


@np.errstate(over="ignore")  # an overflow is raised below, as a non-finite summary
def distance_metrics(records, reference) -> tuple[dict, dict]:
    """Summaries of (e_ground, e_excited) clusters against a reference pair.

    records: iterable of (family, optimizer, e_ground, e_excited).
    reference: (e0_ref, e1_ref).
    Returns (per-cell metrics keyed by (optimizer, family), per-optimizer
    metrics).  Places come from ranking the per-family mean distances.  A
    distance summary that overflows to inf raises DegenerateSampleError.
    """
    ref = np.asarray(reference, dtype=float)
    cells: dict[tuple[str, str], list[np.ndarray]] = {}
    for family, optimizer, e_g, e_e in records:
        cells.setdefault((str(optimizer), str(family)), []).append(
            np.array([float(e_g), float(e_e)])
        )
    if not cells:
        raise DegenerateSampleError("no records")
    cell_metrics: dict[tuple[str, str], CellMetrics] = {}
    distances: dict[tuple[str, str], np.ndarray] = {}
    for key, pts in cells.items():
        pts = np.array(pts)
        dists = distances[key] = np.linalg.norm(pts - ref, axis=1)
        cell_metrics[key] = CellMetrics(
            centroid_distance=float(np.linalg.norm(pts.mean(axis=0) - ref)),
            mean_distance=float(dists.mean()),
            rms_distance=float(np.sqrt(np.mean(dists**2))),
            n_points=pts.shape[0],
        )

    optimizers = sorted({opt for opt, _ in cell_metrics})
    families = sorted({fam for _, fam in cell_metrics})
    # places per family from mean distance, averaged over families each
    # optimizer participates in
    places: dict[str, list[float]] = {opt: [] for opt in optimizers}
    wins: dict[str, int] = {opt: 0 for opt in optimizers}
    for fam in families:
        present = [opt for opt in optimizers if (opt, fam) in cell_metrics]
        if len(present) < 2:
            continue
        means = np.array([cell_metrics[(opt, fam)].mean_distance for opt in present])
        ranks = rankdata(means)
        best = means.min()
        for opt, rank, mean in zip(present, ranks, means):
            places[opt].append(float(rank))
            if mean == best:
                wins[opt] += 1

    optimizer_metrics: dict[str, OptimizerMetrics] = {}
    for opt in optimizers:
        per_point = np.concatenate([d for key, d in distances.items() if key[0] == opt])
        pl = np.array(places[opt]) if places[opt] else np.array([1.0])
        optimizer_metrics[opt] = OptimizerMetrics(
            mean_distance=float(per_point.mean()),
            rms_distance=float(np.sqrt(np.mean(per_point**2))),
            avg_place=float(pl.mean()),
            sd_place=float(pl.std(ddof=1)) if pl.size > 1 else 0.0,
            wins=wins[opt],
            n_points=int(per_point.size),
        )
    for name, metrics in [*cell_metrics.items(), *optimizer_metrics.items()]:
        if not np.isfinite(astuple(metrics)).all():
            raise DegenerateSampleError(f"distances of {name} to the reference are not finite")
    return cell_metrics, optimizer_metrics
