from itertools import product

import numpy as np
import pytest
from scipy import stats as sps

from vqebench.errors import ParameterDomainError
from vqebench.stats import (
    friedman_test,
    p_adjust,
    rankdata,
    tied_rank_groups,
    wilcoxon_signed_rank,
)


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

def test_tied_ranks_no_significance():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(6, 4))  # pure noise, Friedman gate fails
    places = tied_rank_groups(values)
    assert np.all(places == 1)


def test_tied_ranks_all_distinct():
    n, k = 12, 3
    base = np.arange(k, dtype=float) * 10.0
    rng = np.random.default_rng(1)
    values = base + rng.normal(scale=0.01, size=(n, k))
    places = tied_rank_groups(values)
    assert list(places) == [1, 2, 3]


def test_tied_ranks_grouped_pair():
    # A and B statistically indistinguishable, C clearly worse
    rng = np.random.default_rng(2)
    n = 15
    a = rng.normal(scale=1.0, size=n)
    b = a + rng.normal(scale=1e-6, size=n)
    c = a + 50.0
    places = tied_rank_groups(np.column_stack([a, b, c]))
    assert places[0] == places[1] == 1
    assert places[2] == 3  # place after a shared group skips its size
