"""Rank-based comparisons: Friedman/Kendall, Wilcoxon signed-rank,
p-value adjustments, and tied rank groups."""
from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError
from .normality import _median, chi2_sf, norm_sf
from .types import TestResult

EXACT_WILCOXON_LIMIT = 25


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of equal values in a sorted array;
    NaNs, sorted last, form one run (as in ``np.unique``)."""
    differs = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    starts = np.flatnonzero(np.r_[True, differs])
    return starts, np.r_[starts[1:], ordered.size]


def rankdata(values) -> np.ndarray:
    """Ranks 1..n of the flattened values, ties sharing their average rank;
    any NaN makes every rank NaN (scipy.stats.rankdata's defaults)."""
    values = np.asarray(values, dtype=float).ravel()
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts, ends = _runs(ordered)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def friedman_test(values: np.ndarray) -> TestResult:
    """Friedman chi-square across blocks with Kendall's W as effect size.

    values has one row per block and one column per method; ranks are taken
    within blocks with average tie ranks.  chi2 = n*(k-1)*W, df = k-1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 2 or np.isnan(values).any():
        raise ParameterDomainError("need an n x k matrix with n, k >= 2 and no NaN")
    n, k = values.shape
    ranks = np.apply_along_axis(rankdata, 1, values)
    col_sums = ranks.sum(axis=0)
    s = float(np.sum((col_sums - n * (k + 1) / 2.0) ** 2))
    w = 12.0 * s / (n**2 * (k**3 - k))
    chi2 = n * (k - 1) * w
    p = chi2_sf(chi2, k - 1)
    return TestResult(statistic=float(chi2), df=k - 1, p=p, extras={"W": float(w)})


def wilcoxon_signed_rank(a, b) -> TestResult:
    """Paired Wilcoxon signed-rank test; zero differences are dropped.

    W is the smaller signed-rank sum.  Exact two-sided p by enumerating the
    null distribution for n <= 25, normal approximation with tie correction
    otherwise.  extras carry the median paired difference.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterDomainError("a and b must be equal-length vectors")
    diffs = a - b
    if np.isnan(diffs).any():
        raise ParameterDomainError("paired differences must not be NaN")
    median_diff = _median(diffs)
    nonzero = diffs[diffs != 0.0]
    n = nonzero.size
    if n == 0:
        return TestResult(
            statistic=0.0, df=0, p=1.0, extras={"median_diff": median_diff, "degenerate": True}
        )
    ranks = rankdata(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_WILCOXON_LIMIT:
        p = _exact_signed_rank_p(ranks, w)
        method = "exact"
    else:
        mu = n * (n + 1) / 4.0
        tie_term = _tie_correction(ranks)
        sigma = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0)
        z = (w - mu) / sigma
        p = min(1.0, 2.0 * norm_sf(-z))
        method = "normal"
    return TestResult(
        statistic=w,
        df=n,
        p=p,
        extras={"median_diff": median_diff, "method": method, "degenerate": False},
    )


def _tie_correction(ranks: np.ndarray) -> float:
    starts, ends = _runs(np.sort(ranks))
    counts = (ends - starts).astype(float)
    return float(np.sum(counts**3 - counts))


def _exact_signed_rank_p(ranks: np.ndarray, w: float) -> float:
    """P(W+ <= w) doubled, from the exact null distribution over sign flips.

    Ranks are doubled so average tie ranks become integers.
    """
    doubled = np.round(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    threshold = int(np.floor(2.0 * w + 1e-9))
    cdf = counts[: threshold + 1].sum() / counts.sum()
    return float(min(1.0, 2.0 * cdf))


def p_adjust(p_values, method: str) -> np.ndarray:
    """Holm (step-down) or Benjamini-Hochberg (step-up) adjustment,
    returned in the input order and capped at 1."""
    p_values = np.asarray(p_values, dtype=float)
    if not np.all((p_values >= 0) & (p_values <= 1)):  # NaN included
        raise ParameterDomainError("p-values must lie in [0, 1]")
    m = p_values.size
    order = np.argsort(p_values, kind="stable")
    ordered = p_values[order]
    if method == "holm":
        running = np.maximum.accumulate((m - np.arange(m)) * ordered)
    elif method == "bh":
        running = np.minimum.accumulate((m / np.arange(1, m + 1) * ordered)[::-1])[::-1]
    else:
        raise ParameterDomainError(f"unknown adjustment method {method!r}")
    adjusted = np.empty(m)
    adjusted[order] = np.minimum(running, 1.0)
    return adjusted


def pair_matrices(k: int, p_of_pair, adjust) -> list[np.ndarray]:
    """The raw and the adjusted p-values of every pair i < j of k groups, as
    two symmetric k x k matrices with a NaN diagonal.  p_of_pair(i, j) is
    called in row-major pair order, and adjust maps the raw p-values, in
    that order, to the adjusted ones."""
    upper = np.triu_indices(k, k=1)
    raw = np.array([p_of_pair(i, j) for i, j in zip(*upper)], dtype=float)
    matrices = []
    for values in (raw, adjust(raw)):
        matrix = np.full((k, k), np.nan)
        matrix[upper] = matrix[upper[::-1]] = values
        matrices.append(matrix)
    return matrices


def holm_wilcoxon_matrix(values: np.ndarray) -> np.ndarray:
    """Holm-adjusted p-values of the Wilcoxon signed-rank test between every
    pair of columns, as a symmetric k x k matrix with a NaN diagonal."""
    _, adjusted = pair_matrices(
        values.shape[1],
        lambda i, j: wilcoxon_signed_rank(values[:, i], values[:, j]).p,
        lambda raw: p_adjust(raw, method="holm"),
    )
    return adjusted


def tied_rank_groups(means: np.ndarray, differs: np.ndarray) -> np.ndarray:
    """Assign each method a place (1 = best) from its mean and a k x k mask of
    the pairs that differ significantly.  In order of mean, a method joins
    the current group unless it differs from any member, and then opens the
    next one; the place after a shared group skips the group's size."""
    places = np.ones(len(means), dtype=int)
    group: list[int] = []
    next_place = 1
    for idx in np.argsort(means, kind="stable"):
        if any(differs[idx, member] for member in group):
            next_place += len(group)
            group = []
        group.append(idx)
        places[idx] = next_place
    return places
