"""Rank-based comparisons: Friedman/Kendall, Wilcoxon signed-rank,
p-value adjustments, and tied rank groups."""
from __future__ import annotations

import numpy as np

from ..errors import ParameterDomainError
from .normality import chi2_sf, norm_sf
from .types import TestResult

EXACT_WILCOXON_LIMIT = 25


def rankdata(values) -> np.ndarray:
    """Ranks 1..n of the flattened values, ties sharing their average rank;
    any NaN makes every rank NaN (scipy.stats.rankdata's defaults)."""
    values = np.asarray(values, dtype=float).ravel()
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def friedman_test(values: np.ndarray) -> TestResult:
    """Friedman chi-square across blocks with Kendall's W as effect size.

    values has one row per block and one column per method; ranks are taken
    within blocks with average tie ranks.  chi2 = n*(k-1)*W, df = k-1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 2:
        raise ParameterDomainError("need an n x k matrix with n, k >= 2")
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
    median_diff = float(np.median(diffs))
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
    _, counts = np.unique(ranks, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


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


def holm_wilcoxon_matrix(values: np.ndarray) -> np.ndarray:
    """Holm-adjusted p-values of the Wilcoxon signed-rank test between every
    pair of columns, as a symmetric k x k matrix with a NaN diagonal."""
    k = values.shape[1]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    raw = [wilcoxon_signed_rank(values[:, i], values[:, j]).p for i, j in pairs]
    adjusted = np.full((k, k), np.nan)
    for (i, j), p in zip(pairs, p_adjust(np.array(raw), method="holm")):
        adjusted[i, j] = adjusted[j, i] = p
    return adjusted


def tied_rank_groups(per_category_values: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Assign each method a place (1 = best); methods that do not differ
    significantly share a place.

    Gate with the Friedman test; if significant, pairwise Wilcoxon with Holm
    correction decides which methods differ.  Groups are ordered by mean
    value; the place after a shared group skips the group's size.
    """
    values = np.asarray(per_category_values, dtype=float)
    n, k = values.shape
    places = np.ones(k, dtype=int)
    gate = friedman_test(values)
    if gate.p >= alpha:
        return places
    differs = holm_wilcoxon_matrix(values) < alpha
    order = np.argsort(values.mean(axis=0), kind="stable")
    group: list[int] = []
    next_place = 1
    for idx in order:
        if group and any(differs[idx, member] for member in group):
            next_place += len(group)
            group = []
        group.append(idx)
        places[idx] = next_place
    return places
