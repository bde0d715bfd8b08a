import csv
from itertools import product

import numpy as np
import pytest
from scipy import stats as sps

from vqebench.errors import ParameterDomainError
from vqebench.harness import RunRecord
from vqebench.harness.reports import rank_runs
from vqebench.stats import (
    friedman_test,
    p_adjust,
    rankdata,
    tied_rank_groups,
    wilcoxon_signed_rank,
)
from vqebench.stats import ranks
from vqebench.stats.ranks import pair_matrices


# --- rankdata ----------------------------------------------------------------

@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 2.0],
        [2.0, 1.0, 2.0, 3.0, 1.0, 2.0],
        [0.0, -0.0, 1.0, -1.0, 0.0],
        [5.0, 5.0, 5.0, 5.0],
        [7.0],
        [],
        [1.0, np.nan, 2.0],
        [np.inf, -np.inf, 0.0, np.inf],
        np.round(np.random.default_rng(4).normal(size=200), 1),
        np.random.default_rng(5).integers(0, 4, size=(3, 5)),
    ],
)
def test_rankdata_equals_scipy(values):
    ours, theirs = rankdata(values), sps.rankdata(values)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs, equal_nan=True)


# --- Friedman / Kendall ----------------------------------------------------

def test_friedman_kendall_identity_random(rng):
    for _ in range(20):
        n = rng.integers(3, 12)
        k = rng.integers(3, 8)
        values = rng.normal(size=(n, k))
        res = friedman_test(values)
        assert res.statistic == pytest.approx(n * (k - 1) * res.extras["W"], rel=1e-12)


def test_friedman_identity_with_ties(rng):
    values = rng.integers(0, 3, size=(8, 5)).astype(float)
    res = friedman_test(values)
    n, k = values.shape
    assert res.statistic == pytest.approx(n * (k - 1) * res.extras["W"], rel=1e-12)


def test_friedman_perfect_concordance():
    values = np.tile(np.arange(5.0), (7, 1))
    res = friedman_test(values)
    assert res.extras["W"] == pytest.approx(1.0)


def test_friedman_all_constant():
    res = friedman_test(np.ones((6, 4)))
    assert res.statistic == pytest.approx(0.0)
    assert res.p == pytest.approx(1.0)


def test_friedman_hand_example():
    # 3 blocks x 3 methods, ranks by hand
    values = np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [3.0, 2.0, 1.0]])
    # ranks: (1,2,3), (1,2,3), (3,2,1); column sums: 5, 6, 7; mean 6
    # S = 1 + 0 + 1 = 2; W = 12*2 / (9*(27-3)) = 24/216 = 1/9
    res = friedman_test(values)
    assert res.extras["W"] == pytest.approx(1.0 / 9.0)
    assert res.statistic == pytest.approx(3 * 2 / 9.0)
    assert res.df == 2


def test_friedman_matches_scipy(rng):
    values = rng.normal(size=(10, 4))
    res = friedman_test(values)
    ref = sps.friedmanchisquare(*values.T)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert res.p == pytest.approx(ref.pvalue, rel=1e-10)


def test_friedman_input_validation():
    with pytest.raises(ParameterDomainError):
        friedman_test(np.ones((1, 4)))


@pytest.mark.parametrize("n", [5, 30])
def test_friedman_rejects_nan(n):
    values = np.arange(3.0 * n).reshape(n, 3)
    values[n // 2, 1] = np.nan
    with pytest.raises(ParameterDomainError, match="NaN"):
        friedman_test(values)


# --- Wilcoxon --------------------------------------------------------------

def test_wilcoxon_identical_vectors():
    res = wilcoxon_signed_rank(np.arange(5.0), np.arange(5.0))
    assert res.p == 1.0
    assert res.extras["degenerate"]


def test_wilcoxon_all_same_sign_n21():
    a = np.arange(1.0, 22.0)
    res = wilcoxon_signed_rank(a, np.zeros(21))
    assert res.statistic == 0.0
    assert res.p == pytest.approx(2.0 / 2**21, rel=1e-12)


def test_wilcoxon_exact_matches_enumeration():
    diffs = np.array([1.2, -0.4, 2.2, 0.3, -1.8])
    res = wilcoxon_signed_rank(diffs, np.zeros(5))
    ranks = sps.rankdata(np.abs(diffs))
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    count = 0
    for signs in product([1.0, -1.0], repeat=5):
        w_plus = ranks[np.array(signs) > 0].sum()
        if min(w_plus, ranks.sum() - w_plus) <= w_obs + 1e-12:
            count += 1
    # two-sided exact p doubles the lower tail of W+
    lower = sum(
        1
        for signs in product([1.0, -1.0], repeat=5)
        if ranks[np.array(signs) > 0].sum() <= w_obs + 1e-12
    )
    assert res.p == pytest.approx(min(1.0, 2.0 * lower / 32.0), rel=1e-12)


def test_wilcoxon_matches_scipy_exact(rng):
    for _ in range(5):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        if np.any(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        ref = sps.wilcoxon(a, b, mode="exact")
        assert res.p == pytest.approx(ref.pvalue, rel=1e-9)


def test_wilcoxon_normal_approx_large(rng):
    a = rng.normal(size=40)
    b = a + rng.normal(scale=0.5, size=40) + 0.3
    res = wilcoxon_signed_rank(a, b)
    assert res.extras["method"] == "normal"
    ref = sps.wilcoxon(a, b, correction=False, mode="approx")
    assert res.p == pytest.approx(ref.pvalue, rel=1e-6)


def test_wilcoxon_zero_differences_dropped():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    res = wilcoxon_signed_rank(a, b)
    assert res.df == 3  # one zero difference dropped


def test_wilcoxon_shape_validation():
    with pytest.raises(ParameterDomainError):
        wilcoxon_signed_rank(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("n", [20, 30])  # the exact and the normal path
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_wilcoxon_rejects_nan(n, sign):
    # n differences of one sign plus one NaN, which makes every rank NaN
    diffs = sign * np.r_[np.arange(1.0, n + 1.0), np.nan]
    with pytest.raises(ParameterDomainError, match="NaN"):
        wilcoxon_signed_rank(diffs, np.zeros(n + 1))


# --- p_adjust --------------------------------------------------------------

def test_holm_hand_fixture():
    adj = p_adjust(np.array([0.01, 0.02, 0.03]), "holm")
    assert np.allclose(adj, [0.03, 0.04, 0.04])


def test_bh_hand_fixture():
    adj = p_adjust(np.array([0.01, 0.02, 0.03]), "bh")
    assert np.allclose(adj, [0.03, 0.03, 0.03])


def test_adjust_single_value():
    for method in ("holm", "bh"):
        assert p_adjust(np.array([0.2]), method)[0] == pytest.approx(0.2)


def test_adjust_capped_at_one():
    for method in ("holm", "bh"):
        assert np.all(p_adjust(np.array([0.5, 0.9, 0.99]), method) <= 1.0)


def test_adjust_preserves_input_order(rng):
    p = rng.uniform(size=20)
    for method in ("holm", "bh"):
        adj = p_adjust(p, method)
        order_raw = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order_raw]) >= -1e-15)


def test_adjust_monotone_and_dominates_raw(rng):
    for _ in range(200):
        p = rng.uniform(size=int(rng.integers(1, 12)))
        for method in ("holm", "bh"):
            adj = p_adjust(p, method)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)


def _loop_p_adjust(p, method):
    """Reference: Holm's running max from the smallest p up, or BH's running
    min from the largest p down, one p-value at a time."""
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0 if method == "holm" else 1.0
    ranks = range(m) if method == "holm" else range(m - 1, -1, -1)
    for rank in ranks:
        idx = order[rank]
        if method == "holm":
            running = max(running, (m - rank) * p[idx])
        else:
            running = min(running, m / (rank + 1) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def test_adjust_equals_one_at_a_time_loop(rng):
    for trial in range(2000):
        p = rng.uniform(size=int(rng.integers(0, 15)))
        if trial % 2:
            p = np.round(p, 1)  # ties
        for method in ("holm", "bh"):
            assert np.array_equal(p_adjust(p, method), _loop_p_adjust(p, method))


def test_adjust_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        p_adjust(np.array([1.5]), "holm")
    with pytest.raises(ParameterDomainError):
        p_adjust(np.array([0.2, np.nan]), "bh")
    with pytest.raises(ParameterDomainError):
        p_adjust(np.array([0.5]), "bonferroni")


# --- tied rank groups ------------------------------------------------------

def _differs(k, pairs):
    """A k x k mask in which exactly the given pairs differ."""
    differs = np.zeros((k, k), dtype=bool)
    for i, j in pairs:
        differs[i, j] = differs[j, i] = True
    return differs


def test_tied_ranks_no_significance():
    places = tied_rank_groups(np.array([3.0, 1.0, 2.0, 0.5]), _differs(4, []))
    assert np.all(places == 1)


def test_tied_ranks_all_distinct():
    places = tied_rank_groups(np.array([20.0, 0.0, 10.0]), _differs(3, [(0, 1), (0, 2), (1, 2)]))
    assert list(places) == [3, 1, 2]


def test_tied_ranks_grouped_pair():
    # A and B indistinguishable, C worse than both
    places = tied_rank_groups(np.array([0.0, 0.1, 5.0]), _differs(3, [(0, 2), (1, 2)]))
    assert list(places) == [1, 1, 3]  # the place after a shared group skips its size


def test_tied_ranks_join_only_when_no_member_differs():
    # a ~ b and b ~ c but a != c: c differs from a member of {a, b}
    places = tied_rank_groups(np.array([0.0, 1.0, 2.0]), _differs(3, [(0, 2)]))
    assert list(places) == [1, 1, 3]


def _rank_records(distances):
    """One run per (family, optimizer) cell, its distance to the reference
    (-2.0, -0.5) given by distances[family, optimizer]."""
    return [
        RunRecord(f"F{i}", f"opt{j}", 0, -2.0 + d, -0.5, -2.5 + d, 10, True, 1.0)
        for i, row in enumerate(distances)
        for j, d in enumerate(row)
    ]


def test_rank_runs_each_wilcoxon_pair_once(monkeypatch, tmp_path):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return wilcoxon_signed_rank(a, b)

    monkeypatch.setattr(ranks, "wilcoxon_signed_rank", counted)
    distances = np.arange(3) * 0.1 + np.arange(5)[:, None] * 0.01  # 5 families, same order
    summary = rank_runs(_rank_records(distances), (-2.0, -0.5), tmp_path)
    assert summary["friedman"]["p"] < 0.05
    assert len(calls) == 3


def test_rank_runs_gate_fails_every_place_is_one(tmp_path):
    # noise across 10 optimizers, except that opt0 is below opt1 in every
    # family: their Holm p passes alpha, but the Friedman gate does not
    rng = np.random.default_rng(3)
    distances = rng.uniform(0.0, 1.0, size=(20, 10))
    distances[:, 1] = distances[:, 0] + 1e-3
    summary = rank_runs(_rank_records(distances), (-2.0, -0.5), tmp_path)
    assert summary["friedman"]["p"] >= 0.05
    with open(tmp_path / "wilcoxon_pairs.csv", newline="") as handle:
        holm = list(csv.reader(handle))
    assert float(holm[1][2]) < 0.05
    assert set(summary["tied_places"].values()) == {1}


def test_pair_matrices_call_pairs_in_row_major_order_and_mirror():
    calls = []

    def p_of_pair(i, j):
        calls.append((int(i), int(j)))
        return 0.1 * len(calls)

    raw, adjusted = pair_matrices(3, p_of_pair, lambda p: 2 * p)
    assert calls == [(0, 1), (0, 2), (1, 2)]
    assert np.allclose(raw[[0, 0, 1], [1, 2, 2]], [0.1, 0.2, 0.3])
    assert np.array_equal(raw, raw.T, equal_nan=True)
    assert np.array_equal(adjusted, 2 * raw, equal_nan=True)
    assert np.isnan(np.diag(raw)).all() and np.isnan(np.diag(adjusted)).all()
