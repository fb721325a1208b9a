"""Statistical diagnostics: weighted moments, KS machinery, error bars."""

import math

import numpy as np


def weighted_moments(samples, weights=None):
    """Weighted mean and (population) central variance, per dimension.

    ``samples`` has shape (n,) or (n, d); ``weights`` are normalized (uniform
    when omitted).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if weights is None:
        w = np.full(x.shape[0], 1.0 / x.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
    mean = w @ x
    var = w @ (x - mean) ** 2
    return mean, var


def ks_statistic(samples, cdf, weights=None):
    """Sup distance between the weighted empirical CDF and an oracle CDF.

    1-D samples give the plain statistic; multidimensional samples are scored
    per marginal and the maximum is reported (``cdf`` is then a sequence of
    per-marginal CDFs).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim > 1 and x.shape[1] > 1:
        return max(ks_statistic(x[:, j], cdf[j], weights) for j in range(x.shape[1]))
    x = x.reshape(-1)
    if weights is None:
        w = np.full(x.size, 1.0 / x.size)
    else:
        w = np.asarray(weights, dtype=float)
    order = np.argsort(x, kind="stable")
    x = x[order]
    cum = np.cumsum(w[order])
    cum /= cum[-1]
    oracle = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.abs(cum - oracle))
    lower = np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - oracle))
    return float(max(upper, lower))


def ks_critical_value(n, alpha=0.01):
    """Asymptotic one-sample KS critical value at significance alpha."""
    from scipy.special import kolmogi
    return float(kolmogi(alpha)) / math.sqrt(n)


def ks_2sample_permutation(a, b, rng, n_perm=499):
    """Two-sample KS with a permutation p-value.

    The pooled sample is sorted once; each permutation shuffles group labels
    over the sorted positions, so the statistic is a cumulative-sum scan.
    Returns (statistic, p_value) with the add-one permutation estimator.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    na, nb = a.size, b.size
    pooled = np.concatenate([a, b])
    labels = np.concatenate([np.ones(na, dtype=bool), np.zeros(nb, dtype=bool)])
    order = np.argsort(pooled, kind="stable")
    labels = labels[order]

    def stat(z):
        ca = np.cumsum(z) / na
        cb = np.cumsum(~z) / nb
        return float(np.max(np.abs(ca - cb)))

    observed = stat(labels)
    exceed = 0
    for _ in range(n_perm):
        exceed += stat(rng.permutation(labels)) >= observed
    return observed, (1 + exceed) / (n_perm + 1)


def batch_means_se(x, n_batches=25):
    """MCMC standard error of the mean by the batch-means estimator."""
    x = np.asarray(x, dtype=float).reshape(-1)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))


def bootstrap_mean_diff_ci(x, y, rng, level=0.99, n_boot=10_000):
    """Percentile bootstrap CI for mean(x) - mean(y) over independent groups."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ix = rng.integers(0, x.size, size=(n_boot, x.size))
    iy = rng.integers(0, y.size, size=(n_boot, y.size))
    diffs = x[ix].mean(axis=1) - y[iy].mean(axis=1)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(diffs, [tail, 1.0 - tail])
    return float(lo), float(hi)
