"""Multivariate normality and variance-homogeneity checks; the chi-square,
F and normal tails the battery's p-values come from, in closed form with
``math`` alone (Abramowitz & Stegun 26.4.4-5 and 26.6.2; Numerical Recipes
6.4); and the medians and percentiles it reads, without the ``numpy.ma``
import that ``np.median`` and ``np.percentile`` bring."""
from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateSampleError, ParameterDomainError
from .types import Sample2D, TestResult

_COND_LIMIT = 1e12
_TINY = 1e-300  # keeps the continued fraction's denominators off zero
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square(df) for an integer df >= 1; 1 below the
    support, NaN stays NaN.

    The finite Poisson sum e^-h sum_a h^a / Gamma(a+1), h = x/2, over
    a = df/2 - 1, df/2 - 2, ... down to 0 or 1/2, plus erfc(sqrt h) for odd
    df.  Each term is exponentiated from its logarithm, so e^-h alone never
    underflows a representable tail.
    """
    if math.isnan(x):
        return math.nan
    h = 0.5 * x
    if h <= 0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    half = 0.5 * (df % 2)
    terms = [
        math.exp((half + j) * log_h - h - math.lgamma(half + j + 1.0)) for j in range(df // 2)
    ]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


def _beta_cf(a: float, b: float, w: float) -> float:
    """The continued fraction of I_w(a, b), by the modified Lentz method;
    NaN if it has not converged within its 10,000 steps."""
    c, d = 1.0, 1.0 - (a + b) * w / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * w / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * w / ((a + 2 * m) * (a + 2 * m + 1))
        for coef in (even, odd):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _TINY else _TINY
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    return math.nan


def _stirling_error(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), from its asymptotic
    series for large z, where the difference would lose lgamma's digits."""
    if z < 30.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    zz = z * z
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * zz)) / zz) / zz) / z


def _times_log(a: float, y: float, y_minus_1: float) -> float:
    """a log y, read from y - 1 (computed without cancellation) near y = 1."""
    return a * (math.log1p(y_minus_1) if abs(y_minus_1) < 0.5 else math.log(y))


def _beta_cdf(a: float, b: float, w: float, wc: float, log_w: float | None = None) -> float:
    """I_w(a, b), the Beta(a, b) CDF at w, with wc = 1 - w passed in so that
    neither side loses digits to a subtraction.  The fraction runs on the
    side where it converges fast; the other side is 1 minus it.  Its front
    factor w^a wc^b / B(a, b) is taken in Stirling form, relative to the
    mean a / (a + b), so large a and b do not cancel digits away.

    log_w, when given, is log w for a w that is subnormal or 0 and so holds
    too few digits for w^a; such a w lies far below the mean, on the side
    the fraction runs on."""
    swap = w > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, w, wc = b, a, wc, w
    s = a + b
    gap = b * w - a * wc  # w s - a
    log_front = (
        (_times_log(a, w * s / a, gap / a) if log_w is None else a * (log_w + math.log(s / a)))
        + _times_log(b, wc * s / b, -gap / b)
        + 0.5 * math.log(a * b / s)
        - _HALF_LOG_2PI
        + _stirling_error(s)
        - _stirling_error(a)
        - _stirling_error(b)
    )
    tail = math.exp(log_front) * _beta_cf(a, b, w) / a
    return 1.0 - tail if swap else tail


def f_sf(x: float, dfn: int, dfd: int) -> float:
    """Upper tail of F(dfn, dfd) at a ratio x >= 0 (f_ratio gives no other):
    I_w(dfd/2, dfn/2) at w = dfd / (dfd + dfn x).  dfd = 0 gives NaN.  Where
    dfn x / dfd overflows a float, w is read from its logarithm (1 + that
    ratio is the ratio itself to within 1e-308), 1 - w rounds to 1, and the
    front factor takes w^a from log w, since w itself is subnormal or 0.

    Domain: within 1e-12 relative of mpmath for degrees of freedom up to
    about 3e4 (dfn, dfd <= 5000 on the tests' grid; 3e4 against a dfn or dfd
    up to 1000), and at overflowing ratios for dfn up to 1e16.  Nearer the
    mean, rounding grows about as 1e-16 * max(dfn, dfd): 4e-11 relative at
    dfd = 1e6 and 5e-5 at 1e12.  Where the continued fraction does not
    converge within its 10,000 steps (both dfs near 1e12 or more, at the
    mean) the tail is NaN."""
    if dfd == 0 or math.isnan(x):
        return math.nan
    if x == math.inf:
        return 0.0
    ratio = dfn * x / dfd
    if ratio <= 0:
        return 1.0
    if ratio == math.inf:
        log_w = math.log(dfd) - math.log(dfn) - math.log(x)
        w = math.exp(log_w)
        return _beta_cdf(0.5 * dfd, 0.5 * dfn, w, 1.0 - w, log_w)
    return _beta_cdf(0.5 * dfd, 0.5 * dfn, 1.0 / (1.0 + ratio), ratio / (1.0 + ratio))


def norm_sf(x: float) -> float:
    """Upper tail of the standard normal, erfc(x / sqrt 2) / 2."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _median(values) -> float:
    """``np.median`` of the flattened values, bit for bit: one
    ``np.partition`` with numpy's own kth list, then the mean of the middle
    value or of the middle two.  NaN if a value is NaN or there is none."""
    values = np.asarray(values, dtype=float).ravel()
    n, half = values.size, values.size // 2
    if n == 0:
        return math.nan
    kth = [half] if n % 2 else [half - 1, half]
    part = np.partition(values, kth + [-1])
    if math.isnan(part[-1]):
        return math.nan
    return float(np.mean(part[kth[0] : half + 1]))


def _percentile(rows: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(rows, q, axis=1)`` for a 2-D array and numpy's default
    linear method, bit for bit: one ``np.partition`` of the rows with
    numpy's own kth list, then numpy's interpolation between the neighbours
    of the virtual index (n - 1)·q/100.  A row holding a NaN gives NaN."""
    n = rows.shape[1]
    index = (n - 1) * (q / 100)
    below = above = -1  # at q = 100 numpy takes the last value as both neighbours
    if index < n - 1:
        below = math.floor(index)
        above = below + 1
    part = np.partition(rows, sorted({0, -1, below, above}), axis=1)
    a, b, t = part[:, below], part[:, above], index - below
    diff = b - a
    out = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return np.where(np.isnan(part[:, -1]), part[:, -1], out)


def centred_covariances(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariances (ddof 1) of an (m, n, 2) stack of samples given as
    diff, each sample minus its own mean, and a mask of the singular ones
    (condition number above 1e12).

    The centred product goes through the same BLAS call as ``np.cov``, so
    each covariance equals ``np.cov(sample, rowvar=False)`` bit for bit.  The
    condition number comes from the closed-form eigenvalues h +- r of a
    symmetric 2x2 [[a, b], [b, c]], h = (a + c)/2, r = hypot((a - c)/2, b),
    not from an SVD per matrix: a matrix is singular when its smaller
    eigenvalue is not positive or the ratio exceeds the limit.
    """
    cov = np.matmul(diff.transpose(0, 2, 1), diff) * (1.0 / (diff.shape[1] - 1))
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    h, r = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    low = h - r
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (low <= 0.0) | ((h + r) / low > _COND_LIMIT)
    return cov, singular


def sample_cov(points: np.ndarray) -> np.ndarray:
    cov, singular = centred_covariances((points - points.mean(axis=0))[None])
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
    # sample_cov raises on a singular group, so every covariance is positive
    # definite, and so is pooled, their positive combination
    m_stat = (total - n_groups) * np.linalg.slogdet(pooled)[1]
    for n_i, cov in zip(sizes, covs):
        m_stat -= (n_i - 1) * np.linalg.slogdet(cov)[1]

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
    center_fn = np.mean if center == "mean" else _median
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
    (rows, n), d = block.shape, values.shape[1]
    flat = (block + k * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * k)
    weights = np.empty((d, rows, n))
    weights[:] = values.T[:, None, :]  # weights[j]: column j once per row, contiguous
    means = np.empty((rows * k, d))
    for j in range(d):
        means[:, j] = np.bincount(flat, weights=weights[j].ravel(), minlength=rows * k)
    means /= counts[:, None]
    deviations = (values - means[flat].reshape(rows, n, d)) ** 2
    spread = counts[:, None] * (means - np.add.reduce(values, axis=0) / n) ** 2
    ss_within = np.add.reduce(deviations, axis=(1, 2))
    ss_between = np.add.reduce(spread.reshape(rows, k, d), axis=(1, 2))
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
