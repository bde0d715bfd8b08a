import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import vqebench
from vqebench.errors import ParameterDomainError
from vqebench.stats import pairwise_posthoc, permanova, permdisp, permutation
from vqebench.stats.normality import sums_of_squares


def brute_force_p(points, labels, stat_fn):
    """Exhaustive permutation p-value over all distinct label assignments,
    including the identity, computed without the library's machinery."""
    labels = list(labels)
    f_obs = stat_fn(points, labels)
    seen = set()
    count = 0
    total = 0
    for perm in permutations(labels):
        if perm in seen:
            continue
        seen.add(perm)
        total += 1
        if stat_fn(points, list(perm)) >= f_obs - 1e-12:
            count += 1
    return count / total


def permanova_stat(points, labels):
    return permanova(points, labels, n_perm=1, rng=np.random.default_rng(0)).statistic


def _anova_f(values, labels):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    groups = [values[labels == u] for u in np.unique(labels)]
    k = len(groups)
    grand = values.mean()
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
    if ssw <= 0.0:
        return 0.0 if ssb <= 0.0 else np.inf
    return (ssb / (k - 1)) / (ssw / (values.size - k))


def brute_force_permdisp_p(points, labels):
    """Exhaustive oracle for the label-permutation null on fixed distances
    to the observed group centroids."""
    labels = np.asarray(labels)
    dists = np.empty(len(labels))
    for u in np.unique(labels):
        idx = labels == u
        centroid = points[idx].mean(axis=0)
        dists[idx] = np.linalg.norm(points[idx] - centroid, axis=1)
    f_obs = _anova_f(dists, labels)
    seen = set()
    count = 0
    total = 0
    for perm in permutations(labels.tolist()):
        if perm in seen:
            continue
        seen.add(perm)
        total += 1
        if _anova_f(dists, np.asarray(perm)) >= f_obs - 1e-12:
            count += 1
    return count / total


FIXTURES = [
    (
        np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [2.0, 2.0], [2.1, 2.0], [2.0, 2.1]]),
        ["a", "a", "a", "b", "b", "b"],
    ),
    (
        np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.4, 0.9], [1.2, 0.1], [0.3, 0.3]]),
        ["a", "a", "b", "b", "b", "b"],
    ),
    (
        np.array(
            [
                [0.0, 0.0], [0.2, 0.1], [3.0, 0.0], [3.1, 0.2],
                [0.0, 3.0], [0.2, 3.1], [1.5, 1.5], [1.6, 1.4],
            ]
        ),
        ["a", "a", "b", "b", "c", "c", "d", "d"],
    ),
]


@pytest.mark.parametrize("points,labels", FIXTURES)
def test_permanova_matches_exhaustive_oracle(points, labels):
    res = permanova(points, labels, n_perm=100_000, rng=np.random.default_rng(0))
    assert res.extras["exact"]
    assert res.p == pytest.approx(brute_force_p(points, labels, permanova_stat), abs=0)


@pytest.mark.parametrize("points,labels", FIXTURES)
def test_permdisp_matches_exhaustive_oracle(points, labels):
    res = permdisp(points, labels, n_perm=100_000, rng=np.random.default_rng(0))
    assert res.extras["exact"]
    assert res.p == pytest.approx(brute_force_permdisp_p(points, labels), abs=0)


def test_permanova_df_21_groups_of_10(rng):
    points = rng.normal(size=(210, 2))
    labels = [f"g{i}" for i in range(21) for _ in range(10)]
    res = permanova(points, labels, n_perm=99, rng=rng)
    assert res.df == (20, 189)


def test_permdisp_df_21_groups_of_10(rng):
    points = rng.normal(size=(210, 2))
    labels = [f"g{i}" for i in range(21) for _ in range(10)]
    res = permdisp(points, labels, n_perm=99, rng=rng)
    assert res.df == (20, 189)


def test_permanova_coincident_groups():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    res = permanova(pts, ["a", "a", "b", "b"], n_perm=999)
    assert res.statistic == pytest.approx(0.0)
    assert res.p == pytest.approx(1.0)


def test_permanova_r2_bounds(rng):
    points = rng.normal(size=(30, 2))
    labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
    res = permanova(points, labels, n_perm=99, rng=rng)
    assert 0.0 <= res.extras["r2"] <= 1.0


def test_permanova_rigid_motion_invariance(rng):
    points = rng.normal(size=(20, 2))
    labels = ["a"] * 10 + ["b"] * 10
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = points @ rot.T + np.array([5.0, -3.0])
    r1 = permanova(points, labels, n_perm=50, rng=np.random.default_rng(0))
    r2 = permanova(moved, labels, n_perm=50, rng=np.random.default_rng(0))
    assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)
    assert r1.extras["r2"] == pytest.approx(r2.extras["r2"], rel=1e-9)


def test_permdisp_translation_of_one_group(rng):
    points = rng.normal(size=(16, 2))
    labels = ["a"] * 8 + ["b"] * 8
    shifted = points.copy()
    shifted[8:] += np.array([100.0, -40.0])
    r1 = permdisp(points, labels, n_perm=50, rng=np.random.default_rng(0))
    r2 = permdisp(shifted, labels, n_perm=50, rng=np.random.default_rng(0))
    assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)


def test_permdisp_tight_vs_wide():
    rng = np.random.default_rng(0)
    tight = rng.normal(scale=0.1, size=(4, 2))
    wide = rng.normal(scale=10.0, size=(4, 2))
    pts = np.vstack([tight, wide])
    res = permdisp(pts, ["t"] * 4 + ["w"] * 4, n_perm=100_000, rng=rng)
    assert res.extras["exact"]
    assert res.p < 0.05


def test_mc_p_value_convention(rng):
    # with too many assignments to enumerate, p = (1 + count)/(1 + n_perm) > 0
    points = rng.normal(size=(40, 2))
    labels = ["a"] * 20 + ["b"] * 20
    res = permanova(points, labels, n_perm=199, rng=rng)
    assert not res.extras["exact"]
    assert 0.0 < res.p <= 1.0
    assert res.p >= 1.0 / 200.0


def test_permutation_determinism(rng):
    points = rng.normal(size=(40, 2))
    labels = ["a"] * 20 + ["b"] * 20
    r1 = permanova(points, labels, n_perm=199, rng=np.random.default_rng(42))
    r2 = permanova(points, labels, n_perm=199, rng=np.random.default_rng(42))
    assert r1.p == r2.p


def test_single_group_rejected(rng):
    with pytest.raises(ParameterDomainError):
        permanova(rng.normal(size=(6, 2)), ["a"] * 6)
    with pytest.raises(ParameterDomainError):
        permdisp(rng.normal(size=(6, 2)), ["a", "a", "a", "a", "a", "b"])


# --- pairwise post-hoc -----------------------------------------------------

def test_pairwise_identical_groups():
    pts = np.tile(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), (3, 1))
    labels = ["a"] * 3 + ["b"] * 3 + ["c"] * 3
    pm = pairwise_posthoc(pts, labels, test="permanova", n_perm=999)
    off = pm.p_adjusted[~np.isnan(pm.p_adjusted)]
    assert np.all(off > 0.9)


def test_pairwise_matrix_shape_and_symmetry(rng):
    points = rng.normal(size=(20, 2))
    labels = [f"g{i}" for i in range(4) for _ in range(5)]
    pm = pairwise_posthoc(points, labels, n_perm=99, rng=rng)
    assert pm.p_raw.shape == (4, 4)
    assert np.isnan(np.diag(pm.p_raw)).all()
    assert np.allclose(pm.p_raw, pm.p_raw.T, equal_nan=True)
    # k(k-1)/2 distinct off-diagonal values
    assert np.sum(~np.isnan(pm.p_raw)) == 4 * 3


def test_pairwise_adjusted_not_below_raw(rng):
    points = rng.normal(size=(20, 2))
    points[:5] += 3.0
    labels = [f"g{i}" for i in range(4) for _ in range(5)]
    pm = pairwise_posthoc(points, labels, n_perm=99, rng=rng)
    mask = ~np.isnan(pm.p_raw)
    assert np.all(pm.p_adjusted[mask] >= pm.p_raw[mask] - 1e-12)


# --- size under the null ------------------------------------------------------

@pytest.mark.parametrize("n_groups", [2, 21])
def test_permanova_null_rejection_rate_within_3_se(n_groups):
    # 400 Gaussian nulls of n_groups x 10 points at n_perm=99 reject at
    # 0.0625 (2 groups) and 0.0375 (21 groups).  PERMDISP on the same nulls
    # reads 0.0875 and 0.0825 and is not held to the band: its distances
    # come from fitted centroids, so they are not exchangeable and small
    # groups run liberal.
    reps, alpha = 400, 0.05
    se = np.sqrt(alpha * (1 - alpha) / reps)
    labels = [f"g{i}" for i in range(n_groups) for _ in range(10)]
    rejected = 0
    for seed in range(reps):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(len(labels), 2))
        rejected += permanova(points, labels, n_perm=99, rng=rng).p <= alpha
    assert abs(rejected / reps - alpha) <= 3 * se


# --- pinned p-values ---------------------------------------------------------

def _pinned_inputs():
    """Three seeded groups of 10 (every pair takes the Monte-Carlo path) and
    three groups of 3 (C(9; 3,3,3) = 1680 assignments, enumerated)."""
    mc = np.random.default_rng(7).normal(size=(30, 2))
    mc[10:20] = 1.5 * mc[10:20] + [0.4, 0.2]
    mc[20:] = 0.5 * mc[20:] - [0.3, 0.0]
    ex = np.random.default_rng(8).normal(size=(9, 2))
    ex[3:6] += 1.0
    ex[6:] *= 2.0
    return {
        "mc": (mc, [g for g in "abc" for _ in range(10)], 999),
        "ex": (ex, [g for g in "abc" for _ in range(3)], 2000),
    }


@pytest.mark.parametrize(
    "test_fn,case,n_groups,p,n_used,exact",
    [
        (permanova, "mc", 2, 0.719, 999, False),
        (permanova, "ex", 3, 0.014285714285714285, 1680, True),
        (permdisp, "mc", 2, 0.086, 999, False),
        (permdisp, "ex", 3, 0.17142857142857143, 1680, True),
    ],
)
def test_pinned_p_values(test_fn, case, n_groups, p, n_used, exact):
    points, labels, n_perm = _pinned_inputs()[case]
    n = len(labels) * n_groups // 3
    res = test_fn(points[:n], labels[:n], n_perm=n_perm, rng=np.random.default_rng(3))
    assert res.p == p
    assert (res.extras["n_perm"], res.extras["exact"]) == (n_used, exact)


@pytest.mark.parametrize(
    "test,case,p_raw,p_adjusted",
    [
        ("permanova", "mc", [0.719, 0.495, 0.415], [0.719, 0.719, 0.719]),
        ("permanova", "ex", [0.1, 0.1, 0.4], [0.15000000000000002, 0.15000000000000002, 0.4]),
        ("permdisp", "mc", [0.086, 0.023, 0.002], [0.086, 0.0345, 0.006]),
        ("permdisp", "ex", [0.1, 0.3, 0.4], [0.30000000000000004, 0.4, 0.4]),
    ],
)
def test_pinned_pairwise_p_values(test, case, p_raw, p_adjusted):
    points, labels, n_perm = _pinned_inputs()[case]
    pm = pairwise_posthoc(points, labels, test=test, n_perm=n_perm, rng=np.random.default_rng(3))
    upper = np.triu_indices(3, k=1)
    assert pm.p_raw[upper].tolist() == p_raw
    assert pm.p_adjusted[upper].tolist() == p_adjusted


def test_cli_import_leaves_out_sympy():
    # every command needs numpy alone: neither the CLI nor the reports load sympy or scipy
    code = (
        "import sys, vqebench.harness.cli, vqebench.harness.reports\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy'))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vqebench.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# --- equivalence with one labelling at a time ----------------------------------

def _loop_sums_of_squares(values, codes, k):
    """Reference kernel: one labelling, two floats."""
    values = np.asarray(values, dtype=float)
    values = values.reshape(values.shape[0], -1)
    counts = np.bincount(codes, minlength=k)
    sums = [np.bincount(codes, weights=column, minlength=k) for column in values.T]
    means = np.column_stack(sums) / counts[:, None]
    ss_within = float(np.sum((values - means[codes]) ** 2))
    ss_between = float(np.sum(counts[:, None] * (means - values.mean(axis=0)) ** 2))
    return ss_between, ss_within


def _loop_f(values, codes, k):
    ss_between, ss_within = _loop_sums_of_squares(values, codes, k)
    if ss_within <= 0.0:
        return 0.0 if ss_between <= 0.0 else float("inf")
    return (ss_between / (k - 1)) / (ss_within / (codes.size - k))


def _loop_permutation_p(values, codes, f_obs, n_perm, rng):
    """Reference: score every assignment, or draw one independent
    permutation of the labels per permutation and score it."""
    k = int(codes.max()) + 1
    if permutation._n_assignments(codes) <= n_perm:
        count = total = 0
        for perm in permutation._assignments(np.bincount(codes)):
            total += 1
            count += _loop_f(values, perm, k) >= f_obs - 1e-12
        return count / total, total, True
    count = 0
    for _ in range(n_perm):
        count += _loop_f(values, rng.permutation(codes), k) >= f_obs - 1e-12
    return (1 + count) / (1 + n_perm), n_perm, False


def _run_both(fn, *args, seed=3, **kwargs):
    """fn's result with the block and with the reference permutation loop,
    each with the rng state afterwards."""
    out = []
    for p_fn in (permutation._permutation_p, _loop_permutation_p):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permutation, "_permutation_p", p_fn)
            result = fn(*args, rng=rng, **kwargs)
        out.append((result, rng.bit_generator.state))
    return out


def _groups(n_groups, size, seed):
    points = np.random.default_rng(seed).normal(size=(n_groups * size, 2))
    points += np.repeat(np.linspace(0.0, 0.6, n_groups), size)[:, None]
    return points, [f"g{i}" for i in range(n_groups) for _ in range(size)]


@pytest.mark.parametrize("n_perm", [1, 255, 256, 257, 999])
@pytest.mark.parametrize("test_fn", [permanova, permdisp])
@pytest.mark.parametrize("n_groups,size", [(2, 10), (21, 3)])
def test_block_p_equals_loop(test_fn, n_groups, size, n_perm):
    points, labels = _groups(n_groups, size, seed=n_groups + n_perm)
    (block, block_state), (loop, loop_state) = _run_both(
        test_fn, points, labels, n_perm=n_perm
    )
    assert not block.extras["exact"]
    assert (block.p, block.extras["n_perm"], block.extras["exact"]) == (
        loop.p, loop.extras["n_perm"], loop.extras["exact"]
    )
    assert block.statistic == loop.statistic
    assert block_state == loop_state


@pytest.mark.parametrize("test_fn", [permanova, permdisp])
@pytest.mark.parametrize("sizes", [(4, 4), (3, 5), (2, 3, 4)])
def test_block_exhaustive_p_equals_loop(test_fn, sizes):
    points = np.round(np.random.default_rng(sum(sizes)).normal(size=(sum(sizes), 2)), 1)
    labels = [f"g{i}" for i, s in enumerate(sizes) for _ in range(s)]
    (block, block_state), (loop, loop_state) = _run_both(test_fn, points, labels, n_perm=2000)
    assert block.extras["exact"]
    assert (block.p, block.extras["n_perm"]) == (loop.p, loop.extras["n_perm"])
    assert block_state == loop_state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("test", ["permanova", "permdisp"])
def test_block_pairwise_shares_rng_like_loop(test):
    # 6 groups: 4+4 pairs are enumerated, 10+10 and 10+4 pairs are drawn,
    # all from one rng in pair order
    points, labels = _groups(6, 10, seed=21)
    keep = [i for i, label in enumerate(labels) if label not in ("g2", "g4") or i % 10 < 4]
    points, labels = points[keep], [labels[i] for i in keep]
    (block, block_state), (loop, loop_state) = _run_both(
        pairwise_posthoc, points, labels, test=test, n_perm=257
    )
    assert np.array_equal(block.p_raw, loop.p_raw, equal_nan=True)
    assert np.array_equal(block.p_adjusted, loop.p_adjusted, equal_nan=True)
    assert block_state == loop_state


def test_sums_of_squares_block_rows_equal_single_rows():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        values = rng.normal(size=(30, d)) * 1e3 + 5e4
        codes = np.repeat(np.arange(3), [8, 10, 12])
        block = np.array([rng.permutation(codes) for _ in range(300)])
        ss_between, ss_within = sums_of_squares(values, block, 3)
        assert ss_between.shape == ss_within.shape == (300,)
        for row, b, w in zip(block, ss_between, ss_within):
            assert (b, w) == _loop_sums_of_squares(values, row, 3)
            assert sums_of_squares(values, row, 3) == (b, w)


# --- the exhaustive labelling table ---------------------------------------------

@pytest.mark.parametrize("counts", [(4, 4), (3, 5), (10, 4), (2, 3, 4), (3, 3, 3)])
def test_assignment_table_is_the_assignments_in_order(counts):
    table = permutation._assignment_table(counts)
    expected = list(permutation._assignments(counts))
    assert table.shape == (len(expected), sum(counts))
    assert all(np.array_equal(row, labels) for row, labels in zip(table, expected))
    assert len(expected) == permutation._n_assignments(np.repeat(np.arange(len(counts)), counts))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert permutation._assignment_table(counts) is table  # built once per size tuple


# --- one two-group test per pair, looked up where the benchmark counts it -------

@pytest.mark.parametrize("test", ["permanova", "permdisp"])
def test_pairwise_calls_module_test_once_per_valid_pair(monkeypatch, test):
    # five groups, one of them a single point: the 4 pairs with it cannot run,
    # the other 6 must each reach the module's test function exactly once
    points, labels = _groups(5, 6, seed=8)
    keep = [i for i, label in enumerate(labels) if label != "g3" or i % 6 == 0]
    points, labels = points[keep], [labels[i] for i in keep]
    results = []
    original = getattr(permutation, test)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(permutation, test, counted)
    matrix = pairwise_posthoc(points, labels, test=test, n_perm=99)
    valid = np.isfinite(matrix.p_raw[np.triu_indices(5, k=1)])
    assert valid.sum() == 6
    assert len(results) == 6
    assert sorted(r.p for r in results) == sorted(matrix.p_raw[np.triu_indices(5, k=1)][valid])
