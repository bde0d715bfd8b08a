"""Bootstrap-calibrated 95% prediction ellipses.

Resamples are drawn and scored in blocks of at most ``_BLOCK_POINTS``
resampled points, so a small family takes all its resamples in one block and
a large one stays within a fixed amount of memory.  One ``rng.integers``
call for m resamples draws the same indices as m per-resample calls, and a
block never holds more attempts than the redraw loop would still make: at
most the resamples still missing, capped by the attempts left.  So a redraw
block draws only the shortfall, and the cutoff, the errors and the rng state
afterwards are those of drawing one resample at a time, bit for bit.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateSampleError
from .normality import _median, _percentile, centred_covariances, sample_cov
from .types import Ellipse, Sample2D

_MAX_REDRAW_FACTOR = 10
_BLOCK_POINTS = 2**15  # resamples x points drawn and scored at once


def bootstrap_ellipse(sample: Sample2D, n_boot: int = 2000, rng=None) -> Ellipse:
    """Mean, covariance, and a bootstrap cutoff for the squared Mahalanobis
    distance: the median over resamples of the within-resample 95th
    percentile.  Singular resamples are redrawn (bounded retries)."""
    if rng is None:
        rng = np.random.default_rng(0)
    points = sample.points
    n = sample.n
    if n < 3:
        raise DegenerateSampleError("need at least 3 points for an ellipse")
    mu = points.mean(axis=0)
    sigma = sample_cov(points)
    percentiles = np.empty(n_boot)
    attempts_left = _MAX_REDRAW_FACTOR * n_boot
    block = max(1, _BLOCK_POINTS // n)
    filled = 0
    while filled < n_boot:
        if attempts_left <= 0:
            raise DegenerateSampleError("too many singular bootstrap resamples")
        m = min(n_boot - filled, attempts_left, block)
        attempts_left -= m
        resamples = points[rng.integers(0, n, size=(m, n))]
        diff = resamples - resamples.mean(axis=1)[:, None, :]
        cov, singular = centred_covariances(diff)
        diff, cov = diff[~singular], cov[~singular]
        d_sq = np.einsum("bij,bji->bi", diff, np.linalg.solve(cov, diff.transpose(0, 2, 1)))
        percentiles[filled : filled + len(cov)] = _percentile(d_sq, 95.0)
        filled += len(cov)
    return Ellipse(mu=mu, sigma=sigma, d95_sq=_median(percentiles))
