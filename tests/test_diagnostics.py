import math

import numpy as np
import pytest
from scipy import stats

from lfs.diagnostics import (batch_means_se, bootstrap_mean_diff_ci, ks_2sample_permutation,
                             ks_critical_value, ks_statistic, weighted_moments)
from lfs.rng import substream


def test_weighted_moments_two_points():
    mean, var = weighted_moments(np.array([-1.0, 1.0]))
    assert mean[0] == 0.0
    assert var[0] == 1.0


def test_weighted_moments_degenerate_weight():
    mean, var = weighted_moments(np.array([3.0, 17.0]), np.array([1.0, 0.0]))
    assert mean[0] == 3.0
    assert var[0] == 0.0


def test_weighted_moments_lln():
    rng = substream(1, "d")
    x = rng.normal(size=1_000_000)
    _, var = weighted_moments(x)
    assert var[0] == pytest.approx(1.0, rel=0.005)


def test_weighted_moments_multidim():
    x = np.array([[0.0, 10.0], [2.0, 14.0]])
    mean, var = weighted_moments(x, np.array([0.5, 0.5]))
    assert np.allclose(mean, [1.0, 12.0])
    assert np.allclose(var, [1.0, 4.0])


def test_ks_statistic_null_distribution():
    rng = substream(2, "d")
    crit = ks_critical_value(10_000, 0.01)
    assert crit == pytest.approx(1.6276 / 100.0, rel=1e-3)
    failures = 0
    for _ in range(100):
        x = rng.normal(size=10_000)
        if ks_statistic(x, stats.norm.cdf) >= crit:
            failures += 1
    assert failures <= 1  # >= 99% of replicates below the critical value


def test_ks_statistic_point_mass():
    x = np.zeros(100)
    assert ks_statistic(x, stats.norm.cdf) >= 0.5


def test_ks_statistic_single_effective_sample():
    # one nonzero weight behaves like n = 1
    x = np.array([0.0, 99.0, -99.0])
    w = np.array([1.0, 0.0, 0.0])
    assert ks_statistic(x, stats.norm.cdf, w) == pytest.approx(0.5)


def test_ks_statistic_weighted_matches_unweighted():
    rng = substream(3, "d")
    x = rng.normal(size=500)
    uniform = np.full(500, 1.0 / 500)
    assert ks_statistic(x, stats.norm.cdf) == pytest.approx(
        ks_statistic(x, stats.norm.cdf, uniform), abs=1e-12)


def test_ks_statistic_multidim_reports_max():
    rng = substream(4, "d")
    good = rng.normal(size=2000)
    bad = rng.normal(size=2000) + 3.0
    x = np.column_stack([good, bad])
    stat = ks_statistic(x, [stats.norm.cdf, stats.norm.cdf])
    assert stat == pytest.approx(ks_statistic(bad, stats.norm.cdf))


def test_ks_2sample_matches_scipy():
    rng = substream(5, "d")
    a = rng.normal(size=400)
    b = rng.normal(size=300) + 0.2
    # the permutation test's observed statistic, with no permutation drawn
    stat, p_value = ks_2sample_permutation(a, b, rng, n_perm=0)
    assert stat == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)
    assert p_value == 1.0


def test_ks_2sample_permutation_null_and_alternative():
    rng = substream(6, "d")
    a = rng.normal(size=3000)
    b = rng.normal(size=3000)
    _, p_null = ks_2sample_permutation(a, b, substream(7, "d"), n_perm=199)
    assert p_null > 0.01
    c = rng.normal(size=3000) + 0.5
    _, p_alt = ks_2sample_permutation(a, c, substream(8, "d"), n_perm=199)
    assert p_alt <= 0.01


def test_batch_means_se_iid():
    rng = substream(9, "d")
    x = rng.normal(size=100_000)
    se = batch_means_se(x)
    assert se == pytest.approx(1.0 / math.sqrt(100_000), rel=0.5)


def test_bootstrap_ci_covers_truth():
    rng = substream(10, "d")
    x = rng.normal(0.5, 1.0, size=200)
    y = rng.normal(0.0, 1.0, size=200)
    lo, hi = bootstrap_mean_diff_ci(x, y, substream(11, "d"), level=0.99)
    assert lo < 0.5 < hi
    assert lo > 0.0  # difference of 0.5 at n=200 is clearly nonzero
