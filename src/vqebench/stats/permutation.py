"""Permutation tests on Euclidean distances: PERMANOVA and PERMDISP.

Both are one-way F tests on shared sums of squares.  For Euclidean distances
the PERMANOVA pseudo-F from the distance matrix equals the ANOVA F of the
centroid sums of squares (within: squared distances of points to their group
centroid; between: group sizes times squared distances of group centroids to
the grand centroid; Anderson 2001), so no distance matrix is built.  PERMDISP
is the ANOVA F of the distances to the group centroids (Anderson 2006).

p-values use the (1 + count) / (1 + n_perm) estimator under random
permutations; when every distinct label assignment can be enumerated within
the permutation budget, the exact exhaustive p-value is reported instead.

Labellings are scored in blocks of rows through one ``sums_of_squares``
call.  Random labellings are drawn independently: one ``rng.permuted`` call
shuffles each row of a block of label copies, drawing the numbers of one
``rng.permutation(codes)`` per labelling.  Exhaustive blocks are slices of
one read-only table of every labelling, built once per tuple of group sizes.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from ..errors import ParameterDomainError
from .normality import f_ratio, sums_of_squares
from .ranks import p_adjust
from .types import PairwiseMatrix, TestResult

__all__ = ["permanova", "permdisp", "pairwise_posthoc"]

_BLOCK = 256  # labellings scored per sums_of_squares call


def _n_assignments(codes: np.ndarray) -> int:
    counts = np.bincount(codes)
    total = factorial(codes.size)
    for c in counts:
        total //= factorial(int(c))
    return total


def _assignments(counts):
    """Every distinct labelling with the given group sizes: group 0 takes
    each combination of all positions, group 1 each combination of the
    positions still free, and so on."""
    labels = np.empty(int(sum(counts)), dtype=int)

    def fill(free, g):
        if g == len(counts):
            yield labels.copy()
            return
        for chosen in combinations(free, int(counts[g])):
            labels[list(chosen)] = g
            yield from fill([i for i in free if i not in chosen], g + 1)

    return fill(list(range(labels.size)), 0)


@lru_cache(maxsize=16)
def _assignment_table(counts: tuple[int, ...]) -> np.ndarray:
    """Every labelling with these group sizes as the rows of one read-only
    (C, n) array, in ``_assignments`` order; built once per size tuple.  The
    codes take the smallest integer type that holds them, so the table is C·n
    bytes: C is at most the permutation budget."""
    code = np.min_scalar_type(len(counts) - 1)
    table = np.fromiter(_assignments(counts), dtype=np.dtype((code, sum(counts))))
    table.flags.writeable = False
    return table


def _f_stat(values, codes, k):
    return f_ratio(*sums_of_squares(values, codes, k), (k - 1, codes.shape[-1] - k))


def _permutation_p(values, codes, f_obs, n_perm, rng):
    """Exact p over all assignments if enumerable within budget, else MC."""
    k = int(codes.max()) + 1
    exact = _n_assignments(codes) <= n_perm
    if exact:
        table = _assignment_table(tuple(np.bincount(codes).tolist()))
        blocks = (table[start : start + _BLOCK] for start in range(0, len(table), _BLOCK))
    else:
        blocks = (
            rng.permuted(np.tile(codes, (min(_BLOCK, n_perm - start), 1)), axis=1)
            for start in range(0, n_perm, _BLOCK)
        )
    count = total = 0
    for block in blocks:
        total += len(block)
        count += int(np.count_nonzero(_f_stat(values, block, k) >= f_obs - 1e-12))
    if exact:
        return count / total, total, True
    return (1 + count) / (1 + n_perm), n_perm, False


def _prologue(points, labels, rng):
    """The points as floats, the distinct labels in order of first
    appearance, each label's code 0..k-1, and the rng (seed 0 if none)."""
    labels = list(labels)
    uniq = sorted(set(labels), key=labels.index)
    if len(uniq) < 2:
        raise ParameterDomainError("need at least two groups")
    codes = np.array([uniq.index(l) for l in labels])
    rng = np.random.default_rng(0) if rng is None else rng
    return np.asarray(points, dtype=float), uniq, codes, rng


def _f_test(values, codes, sums, n_perm, rng, **extras) -> TestResult:
    """One-way F of the values across the coded groups, from their observed
    sums of squares, with its permutation p-value."""
    if np.any(np.bincount(codes) < 2):
        raise ParameterDomainError("every group needs at least two observations")
    k = int(codes.max()) + 1
    f_obs = f_ratio(*sums, (k - 1, codes.size - k))
    p, n_used, exact = _permutation_p(values, codes, f_obs, n_perm, rng)
    return TestResult(
        statistic=float(f_obs),
        df=(k - 1, codes.size - k),
        p=float(p),
        extras={**extras, "n_perm": n_used, "exact": exact},
    )


def permanova(points, labels, n_perm: int = 10000, rng=None) -> TestResult:
    """Pseudo-F test of equal group centroids under Euclidean distance, with
    permutation of group labels."""
    points, uniq, codes, rng = _prologue(points, labels, rng)
    ss_between, ss_within = sums = sums_of_squares(points, codes, len(uniq))
    ss_total = ss_between + ss_within
    r2 = 0.0 if ss_total <= 0.0 else ss_between / ss_total
    return _f_test(points, codes, sums, n_perm, rng, r2=float(r2))


def permdisp(points, labels, n_perm: int = 10000, rng=None) -> TestResult:
    """Homogeneity of multivariate dispersions: ANOVA on distances to group
    centroids, with permutation of the distance labels."""
    points, uniq, codes, rng = _prologue(points, labels, rng)
    dists = np.empty(points.shape[0])
    for g in range(len(uniq)):
        idx = np.flatnonzero(codes == g)
        dists[idx] = np.linalg.norm(points[idx] - points[idx].mean(axis=0), axis=1)
    return _f_test(dists, codes, sums_of_squares(dists, codes, len(uniq)), n_perm, rng)


def pairwise_posthoc(
    points, labels, test: str = "permanova", n_perm: int = 10000, rng=None
) -> PairwiseMatrix:
    """Two-group tests for every unordered pair of labels, all drawing from
    one rng in row-major pair order, with a joint Benjamini-Hochberg
    adjustment across the pairs.  A pair whose test cannot run is NaN."""
    if test not in ("permanova", "permdisp"):
        raise ParameterDomainError(f"unknown pairwise test {test!r}")
    points, uniq, codes, rng = _prologue(points, labels, rng)
    test_fn = permanova if test == "permanova" else permdisp
    k = len(uniq)
    upper = np.triu_indices(k, k=1)
    raw = np.full(upper[0].size, np.nan)
    for n, (i, j) in enumerate(zip(*upper)):
        mask = (codes == i) | (codes == j)
        try:
            raw[n] = test_fn(points[mask], codes[mask], n_perm=n_perm, rng=rng).p
        except ParameterDomainError:
            pass
    adjusted = np.full(raw.size, np.nan)
    valid = np.isfinite(raw)
    adjusted[valid] = p_adjust(raw[valid], method="bh")
    p_raw = np.full((k, k), np.nan)
    p_adjusted = np.full((k, k), np.nan)
    p_raw[upper] = p_raw[upper[::-1]] = raw
    p_adjusted[upper] = p_adjusted[upper[::-1]] = adjusted
    return PairwiseMatrix(
        labels=[str(u) for u in uniq], p_raw=p_raw, p_adjusted=p_adjusted, method=f"{test}+bh"
    )
