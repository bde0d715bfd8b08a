"""Multivariate normality and variance-homogeneity checks, and the chi-square,
F and normal tails the battery's p-values come from."""
from __future__ import annotations

import numpy as np
from scipy import special

from ..errors import DegenerateSampleError, ParameterDomainError
from .types import Sample2D, TestResult

_COND_LIMIT = 1e12


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square(df); 1 below the support, NaN stays NaN
    (scipy.stats.chi2.sf's values, without loading scipy.stats)."""
    return 1.0 if x < 0 else float(special.chdtrc(df, x))


def f_sf(x: float, dfn: int, dfd: int) -> float:
    """Upper tail of F(dfn, dfd) at a ratio x >= 0 (f_ratio gives no other)."""
    return float(special.fdtrc(dfn, dfd, x))


def norm_sf(x: float) -> float:
    """Upper tail of the standard normal."""
    return float(special.ndtr(-x))


def covariances(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariances (ddof 1) of an (m, n, p) stack of samples, and a
    mask of the singular ones (condition number above 1e12).

    The centred product goes through the same BLAS call as ``np.cov``, so
    each covariance equals ``np.cov(sample, rowvar=False)`` bit for bit.
    """
    diff = samples - samples.mean(axis=1)[:, None, :]
    cov = np.matmul(diff.transpose(0, 2, 1), diff) * (1.0 / (samples.shape[1] - 1))
    return cov, np.linalg.cond(cov) > _COND_LIMIT


def sample_cov(points: np.ndarray) -> np.ndarray:
    cov, singular = covariances(points[None])
    if singular[0]:
        raise DegenerateSampleError("sample covariance is singular")
    return cov[0]


def mardia_test(sample: Sample2D) -> tuple[TestResult, TestResult]:
    """Mardia's (1970) multivariate skewness and kurtosis tests.

    With y_i the centred points whitened by the n-divisor covariance,
    b1p = sum_rst m_rst^2 over the third moments m_rst = mean_i y_ir y_is y_it
    (which equals mean_ij (y_i . y_j)^3) and b2p = mean_i |y_i|^4.
    Skewness: n*b1p/6 ~ chi2 with p(p+1)(p+2)/6 degrees of freedom.
    Kurtosis: z = (b2p - p(p+2)) / sqrt(8p(p+2)/n), two-sided normal.
    """
    points = sample.points
    n, p = points.shape
    if n < p + 2:
        raise DegenerateSampleError(f"need at least {p + 2} points, got {n}")
    cov = sample_cov(points) * ((n - 1) / n)
    centered = points - points.mean(axis=0)
    y = np.linalg.solve(np.linalg.cholesky(cov), centered.T).T
    b1 = float(np.sum((np.einsum("ir,is,it->rst", y, y, y) / n) ** 2))
    b2 = float(np.mean(np.sum(y**2, axis=1) ** 2))

    df_skew = p * (p + 1) * (p + 2) // 6
    chi2 = n * b1 / 6.0
    p_skew = chi2_sf(chi2, df_skew)
    skew = TestResult(statistic=chi2, df=df_skew, p=p_skew, extras={"b1p": b1})

    z = (b2 - p * (p + 2)) / np.sqrt(8.0 * p * (p + 2) / n)
    p_kurt = 2.0 * norm_sf(abs(z))
    kurt = TestResult(statistic=float(z), df=None, p=p_kurt, extras={"b2p": b2})
    return skew, kurt


def box_m_test(groups: list[Sample2D]) -> TestResult:
    """Equality of group covariance matrices via log-determinants.

    M = (N-g) ln|S_p| - sum (n_i-1) ln|S_i|; chi-square approximation with
    df = (g-1) p (p+1) / 2 and the standard Box scale correction.
    """
    if len(groups) < 2:
        raise ParameterDomainError("Box's M needs at least two groups")
    p = 2
    sizes = []
    covs = []
    for g in groups:
        if g.n < p + 1:
            raise DegenerateSampleError(f"group {g.family!r} has too few points ({g.n})")
        sizes.append(g.n)
        covs.append(sample_cov(g.points))
    n_groups = len(groups)
    total = sum(sizes)
    pooled = sum((n_i - 1) * cov for n_i, cov in zip(sizes, covs)) / (total - n_groups)
    sign, logdet_pooled = np.linalg.slogdet(pooled)
    if sign <= 0:
        raise DegenerateSampleError("pooled covariance is not positive definite")
    m_stat = (total - n_groups) * logdet_pooled
    for n_i, cov in zip(sizes, covs):
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise DegenerateSampleError("a group covariance is not positive definite")
        m_stat -= (n_i - 1) * logdet

    df = (n_groups - 1) * p * (p + 1) // 2
    c1 = (
        (2 * p**2 + 3 * p - 1)
        / (6.0 * (p + 1) * (n_groups - 1))
        * (sum(1.0 / (n_i - 1) for n_i in sizes) - 1.0 / (total - n_groups))
    )
    chi2 = m_stat * (1.0 - c1)
    chi2 = max(chi2, 0.0)
    p_value = chi2_sf(chi2, df)
    return TestResult(
        statistic=float(m_stat),
        df=df,
        p=p_value,
        extras={"chi2": float(chi2), "scale_correction": float(c1)},
    )


def levene_like_test(groups: list[np.ndarray], center: str = "mean") -> TestResult:
    """One-way ANOVA on absolute deviations from a group center.

    center="mean" is Levene's test; center="median" is Brown-Forsythe.
    """
    if center not in ("mean", "median"):
        raise ParameterDomainError(f"center must be 'mean' or 'median', got {center!r}")
    arrays = [np.asarray(g, dtype=float).ravel() for g in groups]
    if len(arrays) < 2 or any(a.size < 2 for a in arrays):
        raise DegenerateSampleError("need >= 2 groups with >= 2 observations each")
    center_fn = np.mean if center == "mean" else np.median
    scores = [np.abs(a - center_fn(a)) for a in arrays]
    return anova_oneway(scores)


def sums_of_squares(values, codes: np.ndarray, k: int):
    """Between- and within-group sums of squares of the rows of an (n,) or
    (n, d) array, for integer group codes 0..k-1.

    ``codes`` is one labelling (n,), which gives two floats, or a (B, n)
    block of labellings, which gives two (B,) arrays: one offset
    ``bincount`` (code + k·row) takes every row's group sums at once, and
    each row's sums equal those of the row on its own bit for bit.

    Deviations from the group means are squared directly, not through
    Σx² − ΣS²/n: equal values give an exact zero and values clustered far
    from the origin keep their digits.  For d > 1 these are the Euclidean
    PERMANOVA sums of squares (distances to group and grand centroids).
    """
    values = np.asarray(values, dtype=float)
    values = values.reshape(values.shape[0], -1)
    block = np.atleast_2d(codes)
    rows, d = block.shape[0], values.shape[1]
    flat = (block + k * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * k)
    sums = [np.bincount(flat, weights=np.tile(col, rows), minlength=rows * k) for col in values.T]
    means = np.column_stack(sums) / counts[:, None]
    deviations = (values - means[flat].reshape(rows, -1, d)) ** 2
    spread = counts[:, None] * (means - values.mean(axis=0)) ** 2
    ss_within = np.sum(deviations, axis=(1, 2))
    ss_between = np.sum(spread.reshape(rows, k, d), axis=(1, 2))
    if np.ndim(codes) == 1:
        return float(ss_between[0]), float(ss_within[0])
    return ss_between, ss_within


def f_ratio(ss_between, ss_within, df: tuple[int, int]):
    """One-way F; identical scores give 0, zero within-group spread gives inf.
    Floats give a float, arrays of sums (a block of labellings) an array."""
    ss_between, ss_within = np.asarray(ss_between), np.asarray(ss_within)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ss_between / df[0]) / (ss_within / df[1])
    f = np.where(ss_within > 0.0, f, np.where(ss_between > 0.0, np.inf, 0.0))
    return float(f) if f.ndim == 0 else f


def anova_oneway(groups: list[np.ndarray]) -> TestResult:
    """Classic one-way ANOVA F test; identical scores give F=0, p=1."""
    sizes = [np.size(g) for g in groups]
    k = len(groups)
    codes = np.repeat(np.arange(k), sizes)
    df = (k - 1, codes.size - k)
    f_stat = f_ratio(*sums_of_squares(np.concatenate(groups), codes, k), df)
    return TestResult(statistic=f_stat, df=df, p=f_sf(f_stat, *df))
