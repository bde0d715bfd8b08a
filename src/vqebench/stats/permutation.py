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

Labellings are scored in blocks of rows.  Random labellings are drawn
independently: one ``rng.permuted`` call shuffles each row of a block of
label copies, drawing the numbers of one ``rng.permutation(codes)`` per
labelling.  Exhaustive blocks are slices of one read-only table of every
labelling, built once per tuple of group sizes.

A two-group test, such as each pairwise post-hoc, scores a block with one
matrix product (``_two_group_scores``), against the observed labelling
scored in the same product.  Three or more groups are scored by
``sums_of_squares``, which also gives every reported statistic and R².
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from ..errors import ParameterDomainError
from .normality import f_ratio, sums_of_squares
from .ranks import p_adjust, pair_matrices
from .types import PairwiseMatrix, TestResult

_BLOCK = 256  # labellings scored at once

#: The permutation budget when none is given: p-values in steps of 1e-4.
DEFAULT_N_PERM = 9999


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


def _two_group_scores(values, codes):
    """Score blocks of two-group labellings of the values: the F of the
    observed labelling, in row 0 of the product, and the F of each row.

    With X_c the centred values, S_g = (rows in group g) @ X_c,
    SS_between = |S_1|²/n_1 + |S_0|²/n_0 and SS_within = SS_total -
    SS_between.  The observed labelling is scored in the same product as
    the block, so it rounds like the rows it is compared with, and a
    labelling and its complement tie bit for bit."""
    n = codes.size
    centred = values.reshape(n, -1) - np.add.reduce(values, axis=0) / n
    ss_total = np.add.reduce(centred**2, axis=None)
    sizes = np.bincount(codes)

    def score(block):
        rows = len(block) + 1
        members = np.empty((2, rows, n))
        members[1, 0] = codes
        members[1, 1:] = block
        np.subtract(1.0, members[1], out=members[0])
        sums = (members.reshape(2 * rows, n) @ centred).reshape(2, rows, -1)
        ss_between = np.add.reduce(sums[1] ** 2, axis=1) / sizes[1]
        ss_between += np.add.reduce(sums[0] ** 2, axis=1) / sizes[0]
        f = f_ratio(ss_between, ss_total - ss_between, (1, n - 2))
        return f[0], f[1:]

    return score


def _permutation_p(values, codes, f_obs, n_perm, rng):
    """Exact p over all assignments if enumerable within budget, else MC.

    Two groups are scored by ``_two_group_scores``, against the observed
    labelling scored with each block; more groups by ``sums_of_squares``,
    against ``f_obs``."""
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
    if k == 2:
        score = _two_group_scores(values, codes)
    else:
        def score(block):
            return f_obs, f_ratio(*sums_of_squares(values, block, k), (k - 1, codes.size - k))
    count = total = 0
    for block in blocks:
        total += len(block)
        threshold, f = score(block)
        count += int(np.count_nonzero(f >= threshold - 1e-12))
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


def permanova(points, labels, n_perm: int = DEFAULT_N_PERM, rng=None) -> TestResult:
    """Pseudo-F test of equal group centroids under Euclidean distance, with
    permutation of group labels."""
    points, uniq, codes, rng = _prologue(points, labels, rng)
    ss_between, ss_within = sums = sums_of_squares(points, codes, len(uniq))
    ss_total = ss_between + ss_within
    r2 = 0.0 if ss_total <= 0.0 else ss_between / ss_total
    return _f_test(points, codes, sums, n_perm, rng, r2=float(r2))


def permdisp(points, labels, n_perm: int = DEFAULT_N_PERM, rng=None) -> TestResult:
    """Homogeneity of multivariate dispersions: ANOVA on distances to group
    centroids, with permutation of the distance labels."""
    points, uniq, codes, rng = _prologue(points, labels, rng)
    dists = np.empty(points.shape[0])
    for g in range(len(uniq)):
        idx = np.flatnonzero(codes == g)
        dists[idx] = np.linalg.norm(points[idx] - points[idx].mean(axis=0), axis=1)
    return _f_test(dists, codes, sums_of_squares(dists, codes, len(uniq)), n_perm, rng)


def pairwise_posthoc(
    points, labels, test: str = "permanova", n_perm: int = DEFAULT_N_PERM, rng=None
) -> PairwiseMatrix:
    """Two-group tests for every unordered pair of labels, all drawing from
    one rng in row-major pair order, with a joint Benjamini-Hochberg
    adjustment across the pairs.  A pair whose test cannot run is NaN."""
    if test not in ("permanova", "permdisp"):
        raise ParameterDomainError(f"unknown pairwise test {test!r}")
    points, uniq, codes, rng = _prologue(points, labels, rng)
    test_fn = permanova if test == "permanova" else permdisp

    def p_of_pair(i, j):
        mask = (codes == i) | (codes == j)
        try:
            return test_fn(points[mask], codes[mask], n_perm=n_perm, rng=rng).p
        except ParameterDomainError:
            return np.nan

    def bh_on_valid(raw):
        adjusted = np.full(raw.size, np.nan)
        valid = np.isfinite(raw)
        adjusted[valid] = p_adjust(raw[valid], method="bh")
        return adjusted

    p_raw, p_adjusted = pair_matrices(len(uniq), p_of_pair, bh_on_valid)
    return PairwiseMatrix(labels=[str(u) for u in uniq], p_raw=p_raw, p_adjusted=p_adjusted)
