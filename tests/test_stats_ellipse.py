import logging
import tracemalloc

import numpy as np
import pytest

from vqebench.errors import DegenerateSampleError
from vqebench.harness import RunRecord
from vqebench.harness.reports import analyze_optimizer
from vqebench.stats import Ellipse, Sample2D, bootstrap_ellipse

from oracles import ellipse_contains, mahalanobis_sq

CHI2_2_95 = 5.991464547107979


def test_ellipse_large_gaussian_cutoff():
    rng = np.random.default_rng(0)
    sample = Sample2D(rng.normal(size=(4000, 2)))
    ell = bootstrap_ellipse(sample, n_boot=200, rng=np.random.default_rng(1))
    assert ell.d95_sq == pytest.approx(CHI2_2_95, rel=0.10)


def test_ellipse_scale_invariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 2))
    e1 = bootstrap_ellipse(Sample2D(pts), n_boot=300, rng=np.random.default_rng(7))
    e2 = bootstrap_ellipse(Sample2D(5.0 * pts), n_boot=300, rng=np.random.default_rng(7))
    assert e1.d95_sq == pytest.approx(e2.d95_sq, rel=1e-9)
    assert np.allclose(e2.sigma, 25.0 * e1.sigma)


def test_ellipse_collinear_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0000001]])
    with pytest.raises(DegenerateSampleError):
        bootstrap_ellipse(Sample2D(pts))


def test_ellipse_too_few_points():
    with pytest.raises(DegenerateSampleError):
        bootstrap_ellipse(Sample2D(np.array([[0.0, 0.0], [1.0, 2.0]])))


def test_ellipse_contains_roughly_95_percent():
    rng = np.random.default_rng(5)
    sample = Sample2D(rng.normal(size=(2000, 2)))
    ell = bootstrap_ellipse(sample, n_boot=200, rng=np.random.default_rng(6))
    fresh = rng.normal(size=(5000, 2))
    coverage = ellipse_contains(ell, fresh).mean()
    assert 0.92 <= coverage <= 0.98


def test_ellipse_determinism():
    rng = np.random.default_rng(9)
    sample = Sample2D(rng.normal(size=(50, 2)))
    e1 = bootstrap_ellipse(sample, n_boot=100, rng=np.random.default_rng(4))
    e2 = bootstrap_ellipse(sample, n_boot=100, rng=np.random.default_rng(4))
    assert e1.d95_sq == e2.d95_sq


def test_mahalanobis_sq_center_zero():
    rng = np.random.default_rng(2)
    sample = Sample2D(rng.normal(size=(30, 2)))
    ell = bootstrap_ellipse(sample, n_boot=50, rng=np.random.default_rng(0))
    assert mahalanobis_sq(ell, ell.mu[None, :])[0] == pytest.approx(0.0, abs=1e-12)


# --- equivalence with one resample at a time -------------------------------

def _loop_ellipse(sample, n_boot, rng):
    """Reference: the redraw loop that draws and scores one resample per
    attempt, with np.cov and a per-resample condition check."""
    points, n = sample.points, sample.n
    if n < 3:
        raise DegenerateSampleError("need at least 3 points for an ellipse")
    mu = points.mean(axis=0)
    sigma = np.cov(points, rowvar=False, ddof=1)
    if np.linalg.cond(sigma) > 1e12:
        raise DegenerateSampleError("sample covariance is singular")
    percentiles = np.empty(n_boot)
    attempts_left = 10 * n_boot
    filled = 0
    while filled < n_boot:
        if attempts_left <= 0:
            raise DegenerateSampleError("too many singular bootstrap resamples")
        attempts_left -= 1
        resample = points[rng.integers(0, n, size=n)]
        mean_b = resample.mean(axis=0)
        cov_b = np.cov(resample, rowvar=False, ddof=1)
        if np.linalg.cond(cov_b) > 1e12:
            continue
        diff = resample - mean_b
        d_sq = np.einsum("ij,ji->i", diff, np.linalg.solve(cov_b, diff.T))
        percentiles[filled] = np.percentile(d_sq, 95.0)
        filled += 1
    return Ellipse(mu=mu, sigma=sigma, d95_sq=float(np.median(percentiles)))


def _outcome(fn, points, n_boot, seed):
    """(mu, sigma, d95_sq) or the error type, and the rng state afterwards."""
    rng = np.random.default_rng(seed)
    try:
        ell = fn(Sample2D(points), n_boot, rng)
        result = (ell.mu.tolist(), ell.sigma.tolist(), ell.d95_sq)
    except DegenerateSampleError as exc:
        result = type(exc).__name__
    return result, rng.bit_generator.state


def _cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, 2)) * [0.3, 2.0] + [-2.0, 40.0]
    if kind == "tied":  # rounding to 0.1 repeats points, so resamples go singular
        return np.round(rng.normal(scale=0.2, size=(n, 2)), 1)
    if kind == "near_collinear":
        t = rng.normal(size=n)
        return np.column_stack([t, 2.0 * t + 1e-5 * rng.normal(size=n)])
    base = rng.normal(size=(3, 2))  # "three_sites": three distinct points
    return base[np.arange(n) % 3]


@pytest.mark.parametrize("n_boot", [1, 50])
@pytest.mark.parametrize("kind", ["gaussian", "tied", "near_collinear", "three_sites"])
@pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 17, 40])
def test_ellipse_equals_one_at_a_time(n, kind, n_boot):
    points = _cloud(kind, n, seed=100 * n + len(kind))
    for seed in range(3):
        assert _outcome(bootstrap_ellipse, points, n_boot, seed) == _outcome(
            _loop_ellipse, points, n_boot, seed
        )


@pytest.mark.parametrize("kind,n", [("gaussian", 10), ("tied", 8), ("three_sites", 12)])
def test_ellipse_equals_one_at_a_time_2000(kind, n):
    # each of these families takes all 2000 resamples in one block
    points = _cloud(kind, n, seed=n)
    assert _outcome(bootstrap_ellipse, points, 2000, 5) == _outcome(_loop_ellipse, points, 2000, 5)


@pytest.mark.parametrize(
    "kind,n,n_boot",
    [("near_collinear", 40, 2000), ("gaussian", 900, 300), ("tied", 900, 300)],
)
def test_ellipse_equals_one_at_a_time_across_blocks(kind, n, n_boot):
    # 819 resamples per block at n = 40, 36 at n = 900
    points = _cloud(kind, n, seed=n)
    assert _outcome(bootstrap_ellipse, points, n_boot, 5) == _outcome(
        _loop_ellipse, points, n_boot, 5
    )


@pytest.mark.parametrize("n_boot,seed", [(1, 33), (3, 85), (300, 0)])
def test_ellipse_redraw_budget_exhausted_like_loop(n_boot, seed):
    # three points: a resample is non-singular only when it takes all three
    # (2 in 9).  At (1, 33) and (3, 85) fewer than n_boot of the 10 * n_boot
    # draws do; at (3, 85) the last block is cut to the attempts left, below
    # the shortfall.  At (300, 0) about 1350 draws fill the 300 resamples
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    block = _outcome(bootstrap_ellipse, points, n_boot, seed)
    loop = _outcome(_loop_ellipse, points, n_boot, seed)
    assert block == loop
    assert (block[0] == "DegenerateSampleError") == (n_boot < 300)
    assert block[1] != np.random.default_rng(seed).bit_generator.state


# --- ellipses.csv -------------------------------------------------------------

def _cobyla_records(extra=()):
    rng = np.random.default_rng(2024)
    records = []
    for fam, scale in (("DEPOL-5%", 0.05), ("SN-256", 0.01), ("ideal", 0.002)):
        for seed in range(6):
            g, e = rng.normal(scale=scale, size=2)
            records.append(RunRecord(fam, "cobyla", seed, -2.0 + g, -0.5 + e, -2.5 + g + e, 10, True, 1.0))
    return records + list(extra)


ELLIPSES_CSV = """\
family,mu_x,mu_y,s_xx,s_xy,s_yy,d95_sq
DEPOL-5%,-1.9658818970555096,-0.48946129474134964,0.0029740239649073863,0.0004733796073695628,0.0023694052731582354,3.4699563559284123
SN-256,-2.0055955814289188,-0.50038819411706459,8.026066149333604e-05,-3.1147439721956633e-05,0.00011728055518788849,3.4872024613862278
ideal,-2.000567833293355,-0.49876015001098789,5.5415798222938739e-07,4.9251581522735013e-07,1.8983993676836541e-06,3.501739993965308
"""


def test_ellipses_csv_pinned(tmp_path):
    analyze_optimizer(_cobyla_records(), tmp_path, n_perm=9, seed=3)
    assert (tmp_path / "ellipses.csv").read_text().replace("\r\n", "\n") == ELLIPSES_CSV


def test_skipped_ellipse_is_logged(tmp_path, caplog):
    collinear = [
        RunRecord("T2=70us", "cobyla", s, -2.0 + 0.1 * s, -0.5 + 0.2 * s, -2.5 + 0.3 * s, 10, True, 1.0)
        for s in range(4)
    ]
    with caplog.at_level(logging.WARNING, logger="vqebench.harness.reports"):
        analyze_optimizer(_cobyla_records(collinear), tmp_path, n_perm=9, seed=3)
    assert (tmp_path / "ellipses.csv").read_text().replace("\r\n", "\n") == ELLIPSES_CSV
    (record,) = [r for r in caplog.records if r.name == "vqebench.harness.reports"]
    assert record.levelno == logging.WARNING
    assert "cobyla" in record.getMessage() and "T2=70us" in record.getMessage()
    assert "singular" in record.getMessage()


# --- memory ---------------------------------------------------------------------

def test_ellipse_memory_is_bounded_for_a_large_family():
    # a block holds at most 2**15 resampled points: about 2 MB at peak for
    # 1000 points, where blocks of 256 resamples peaked near 16 MB
    sample = Sample2D(np.random.default_rng(1).normal(size=(1000, 2)))
    tracemalloc.start()
    try:
        bootstrap_ellipse(sample, n_boot=300, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
