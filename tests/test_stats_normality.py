import math

import numpy as np
import pytest
from scipy import stats as sps

from vqebench.errors import DegenerateSampleError, ParameterDomainError
from vqebench.stats import (
    Sample2D,
    anova_oneway,
    box_m_test,
    levene_like_test,
    mardia_test,
)
from vqebench.stats.normality import chi2_sf, f_sf, norm_sf


def gaussian_sample(rng, n, mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0))):
    return Sample2D(rng.multivariate_normal(mean, cov, size=n))


# --- distribution tails ----------------------------------------------------

TAIL_POINTS = [-math.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.0, 4.7, 38.0, 1e3, math.inf, math.nan]


def same_float(ours, theirs):
    return ours == theirs or (math.isnan(ours) and math.isnan(theirs))


@pytest.mark.parametrize("df", [1, 2, 3, 4, 6, 20, 60])
def test_chi2_sf_equals_scipy(df):
    for x in TAIL_POINTS:
        assert same_float(chi2_sf(x, df), float(sps.chi2.sf(x, df))), x


@pytest.mark.parametrize("dfn, dfd", [(1, 0), (1, 1), (2, 0), (2, 9), (5, 3), (20, 200)])
def test_f_sf_equals_scipy(dfn, dfd):
    for x in [v for v in TAIL_POINTS if not v < 0]:  # an F ratio is never negative
        assert same_float(f_sf(x, dfn, dfd), float(sps.f.sf(x, dfn, dfd))), x


def test_norm_sf_equals_scipy():
    for x in TAIL_POINTS + [-40.0, -8.3, 8.3, 40.0]:
        assert same_float(norm_sf(x), float(sps.norm.sf(x))), x
        # the Wilcoxon normal approximation takes its lower tail as norm_sf(-z)
        assert same_float(norm_sf(-x), float(sps.norm.cdf(x))), x


# --- Mardia ----------------------------------------------------------------

def test_mardia_df_is_4_for_bivariate(rng):
    skew, _ = mardia_test(gaussian_sample(rng, 50))
    assert skew.df == 4


def test_mardia_symmetric_four_points():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    skew, _ = mardia_test(Sample2D(pts))
    assert skew.extras["b1p"] == pytest.approx(0.0, abs=1e-12)


def test_mardia_large_sample_kurtosis(rng):
    _, kurt = mardia_test(gaussian_sample(rng, 10_000))
    assert kurt.extras["b2p"] == pytest.approx(8.0, abs=0.2)


def test_mardia_skewness_nonnegative(rng):
    for _ in range(10):
        skew, _ = mardia_test(gaussian_sample(rng, 20))
        assert skew.extras["b1p"] >= 0.0


def test_mardia_affine_invariance(rng):
    pts = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [0.1, 0.5]]) + [1.0, -4.0]
    a = np.array([[1.5, -0.7], [0.2, 2.0]])
    transformed = pts @ a.T + np.array([10.0, -3.0])
    s1, k1 = mardia_test(Sample2D(pts))
    s2, k2 = mardia_test(Sample2D(transformed))
    assert s1.extras["b1p"] == pytest.approx(s2.extras["b1p"], rel=1e-8)
    assert k1.extras["b2p"] == pytest.approx(k2.extras["b2p"], rel=1e-8)


def test_mardia_skewness_null_rejection_rate():
    # n*b1p/6 is asymptotically chi2(4); without the /6 the test rejects most
    # Gaussian samples
    rng = np.random.default_rng(1970)
    draws, alpha = 400, 0.05
    rejected = sum(mardia_test(gaussian_sample(rng, 30))[0].p < alpha for _ in range(draws))
    assert rejected / draws <= alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / draws)


def test_mardia_singular_sample():
    pts = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(DegenerateSampleError):
        mardia_test(Sample2D(pts))


def test_mardia_too_few_points():
    with pytest.raises(DegenerateSampleError):
        mardia_test(Sample2D(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])))


# --- Box's M ---------------------------------------------------------------

def test_box_m_df_for_21_groups(rng):
    groups = [gaussian_sample(rng, 10) for _ in range(21)]
    res = box_m_test(groups)
    assert res.df == 60


def test_box_m_identical_groups_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [1.5, 1.5]])
    res = box_m_test([Sample2D(pts), Sample2D(pts.copy()), Sample2D(pts.copy())])
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    assert res.p == pytest.approx(1.0)


def test_box_m_hand_formula(rng):
    # two groups with S1 ~ I and S2 ~ 2I; verify M against direct evaluation
    g1 = gaussian_sample(rng, 11)
    g2 = Sample2D(rng.multivariate_normal([0, 0], 2.0 * np.eye(2), size=11))
    res = box_m_test([g1, g2])
    s1 = np.cov(g1.points, rowvar=False, ddof=1)
    s2 = np.cov(g2.points, rowvar=False, ddof=1)
    pooled = (10 * s1 + 10 * s2) / 20.0
    m = 20.0 * np.log(np.linalg.det(pooled)) - 10.0 * (
        np.log(np.linalg.det(s1)) + np.log(np.linalg.det(s2))
    )
    assert res.statistic == pytest.approx(m, rel=1e-10)


def test_box_m_needs_two_groups(rng):
    with pytest.raises(ParameterDomainError):
        box_m_test([gaussian_sample(rng, 10)])


# --- Levene / Brown-Forsythe / ANOVA ---------------------------------------

def test_levene_identical_dispersion():
    g1 = np.array([0.0, 1.0, 0.0, 1.0])
    g2 = np.array([5.0, 6.0, 5.0, 6.0])
    res = levene_like_test([g1, g2], center="mean")
    assert res.statistic == pytest.approx(0.0)
    assert res.p == pytest.approx(1.0)


def test_levene_hand_computation():
    g1 = np.array([0.0, 0.0, 0.0, 0.0])
    g2 = np.array([-1.0, 1.0, -1.0, 1.0])
    res = levene_like_test([g1, g2], center="mean")
    # transformed scores: all 0 vs all 1 -> infinite F, p = 0
    assert res.statistic == np.inf
    assert res.p == 0.0


def test_brown_forsythe_equals_levene_for_symmetric():
    g1 = np.array([-2.0, -1.0, 1.0, 2.0])
    g2 = np.array([-4.0, -2.0, 2.0, 4.0])
    lev = levene_like_test([g1, g2], center="mean")
    bf = levene_like_test([g1, g2], center="median")
    assert lev.statistic == pytest.approx(bf.statistic)


def test_levene_matches_scipy(rng):
    from scipy import stats as sps

    groups = [rng.normal(scale=s, size=12) for s in (1.0, 2.0, 3.0)]
    ours = levene_like_test(groups, center="median")
    ref = sps.levene(*groups, center="median")
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert ours.p == pytest.approx(ref.pvalue, rel=1e-10)


def test_levene_center_validation():
    with pytest.raises(ParameterDomainError):
        levene_like_test([np.zeros(3), np.ones(3)], center="mode")


def test_anova_identical_scores():
    res = anova_oneway([np.ones(4), np.ones(5)])
    assert res.statistic == 0.0
    assert res.p == 1.0


def test_anova_matches_scipy(rng):
    from scipy import stats as sps

    groups = [rng.normal(loc=m, size=10) for m in (0.0, 0.5, 1.0)]
    ours = anova_oneway(groups)
    ref = sps.f_oneway(*groups)
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert ours.p == pytest.approx(ref.pvalue, rel=1e-10)
