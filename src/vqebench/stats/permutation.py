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
call.  A Monte-Carlo block replays the random stream of shuffling one label
array in place once per permutation: ``rng.permuted`` on a block of
``arange(n)`` rows draws exactly the numbers of that many successive
``rng.shuffle`` calls, each row is the permutation one shuffle applies, and
composing the rows in order gives every labelling.  p-values and the rng
state afterwards are those of the one-at-a-time loop, bit for bit.
"""
from __future__ import annotations

from itertools import combinations, islice
from math import factorial

import numpy as np

from ..errors import ParameterDomainError
from .normality import f_ratio, sums_of_squares
from .ranks import p_adjust
from .types import PairwiseMatrix, TestResult

__all__ = ["permanova", "permdisp", "pairwise_posthoc"]

_BLOCK = 256  # labellings scored per sums_of_squares call


def _encode_labels(labels):
    labels = list(labels)
    uniq = sorted(set(labels), key=labels.index)
    codes = np.array([uniq.index(l) for l in labels])
    return uniq, codes


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


def _f_stat(values, codes, k):
    return f_ratio(*sums_of_squares(values, codes, k), (k - 1, codes.shape[-1] - k))


def _count_reaching(values, block, k, f_obs):
    """Rows of a (B, n) labelling block whose F reaches f_obs (within 1e-12)."""
    return int(np.count_nonzero(_f_stat(values, block, k) >= f_obs - 1e-12))


def _permutation_p(values, codes, f_obs, n_perm, rng):
    """Exact p over all assignments if enumerable within budget, else MC."""
    k = int(codes.max()) + 1
    if _n_assignments(codes) <= n_perm:
        count = 0
        total = 0
        assignments = _assignments(np.bincount(codes))
        while chunk := list(islice(assignments, _BLOCK)):
            total += len(chunk)
            count += _count_reaching(values, np.array(chunk), k, f_obs)
        return count / total, total, True
    count = 0
    shuffled = codes.copy()
    for start in range(0, n_perm, _BLOCK):
        rows = min(_BLOCK, n_perm - start)
        steps = rng.permuted(np.tile(np.arange(codes.size), (rows, 1)), axis=1)
        block = np.empty_like(steps)
        for t, step in enumerate(steps):
            shuffled = shuffled[step]
            block[t] = shuffled
        count += _count_reaching(values, block, k, f_obs)
    return (1 + count) / (1 + n_perm), n_perm, False


def _check_groups(codes):
    counts = np.bincount(codes)
    if counts.size < 2:
        raise ParameterDomainError("need at least two groups")
    if np.any(counts < 2):
        raise ParameterDomainError("every group needs at least two observations")


def permanova(points, labels, n_perm: int = 10000, rng=None) -> TestResult:
    """Pseudo-F test of equal group centroids under Euclidean distance, with
    permutation of group labels."""
    points = np.asarray(points, dtype=float)
    uniq, codes = _encode_labels(labels)
    _check_groups(codes)
    if rng is None:
        rng = np.random.default_rng(0)
    k = len(uniq)
    df = (k - 1, codes.size - k)
    ss_between, ss_within = sums_of_squares(points, codes, k)
    f_obs = f_ratio(ss_between, ss_within, df)
    ss_total = ss_between + ss_within
    r2 = 0.0 if ss_total <= 0.0 else ss_between / ss_total
    p, n_used, exact = _permutation_p(points, codes, f_obs, n_perm, rng)
    return TestResult(
        statistic=float(f_obs),
        df=df,
        p=float(p),
        extras={"r2": float(r2), "n_perm": n_used, "exact": exact},
    )


def permdisp(points, labels, n_perm: int = 10000, rng=None) -> TestResult:
    """Homogeneity of multivariate dispersions: ANOVA on distances to group
    centroids, with permutation of the distance labels."""
    points = np.asarray(points, dtype=float)
    uniq, codes = _encode_labels(labels)
    _check_groups(codes)
    if rng is None:
        rng = np.random.default_rng(0)
    k = len(uniq)
    dists = np.empty(points.shape[0])
    for g in range(k):
        idx = np.flatnonzero(codes == g)
        centroid = points[idx].mean(axis=0)
        dists[idx] = np.linalg.norm(points[idx] - centroid, axis=1)
    f_obs = _f_stat(dists, codes, k)
    p, n_used, exact = _permutation_p(dists, codes, f_obs, n_perm, rng)
    return TestResult(
        statistic=float(f_obs),
        df=(k - 1, codes.size - k),
        p=float(p),
        extras={"n_perm": n_used, "exact": exact},
    )


def pairwise_posthoc(
    points,
    labels,
    test: str = "permanova",
    adjust: str = "bh",
    n_perm: int = 10000,
    rng=None,
) -> PairwiseMatrix:
    """Two-group tests for every unordered pair of labels, with a joint
    multiple-comparison adjustment across all pairs."""
    if test not in ("permanova", "permdisp"):
        raise ParameterDomainError(f"unknown pairwise test {test!r}")
    if adjust not in ("bh", "holm"):
        raise ParameterDomainError(f"unknown adjustment {adjust!r}")
    points = np.asarray(points, dtype=float)
    uniq, codes = _encode_labels(labels)
    if len(uniq) < 2:
        raise ParameterDomainError("need at least two groups")
    if rng is None:
        rng = np.random.default_rng(0)
    test_fn = permanova if test == "permanova" else permdisp
    k = len(uniq)
    p_raw = np.full((k, k), np.nan)
    pairs = []
    raw_values = []
    for i in range(k):
        for j in range(i + 1, k):
            mask = (codes == i) | (codes == j)
            try:
                res = test_fn(points[mask], codes[mask], n_perm=n_perm, rng=rng)
                value = res.p
            except ParameterDomainError:
                value = np.nan
            pairs.append((i, j))
            raw_values.append(value)
            p_raw[i, j] = p_raw[j, i] = value
    p_adjusted = np.full((k, k), np.nan)
    valid = [v for v in raw_values if np.isfinite(v)]
    it = iter(p_adjust(np.array(valid), method=adjust))
    for (i, j), raw in zip(pairs, raw_values):
        adj = next(it) if np.isfinite(raw) else np.nan
        p_adjusted[i, j] = p_adjusted[j, i] = adj
    return PairwiseMatrix(
        labels=[str(u) for u in uniq], p_raw=p_raw, p_adjusted=p_adjusted, method=f"{test}+{adjust}"
    )
