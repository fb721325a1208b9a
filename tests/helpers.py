import math
import threading

import numpy as np

from lfs.models import NormalMeanModel


class ConstantKernel:
    """Kernel stub with evaluate identically equal to its supremum."""

    bandwidth = 1.0

    def __init__(self, value=1.0):
        self.value = value

    def evaluate(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1] if u.ndim > 1 else (), self.value)

    def log_pooled(self, t_y, bundle):
        bundle = np.asarray(bundle, dtype=float)
        return np.full(bundle.shape[:-2], np.log(self.value))

    def sup_value(self):
        return self.value

    def with_bandwidth(self, h):
        return self


class CountingModel:
    """Delegating wrapper that counts bundles simulated (one per theta row), summaries
    and calls of ``prior_logdensity`` and ``prior_sd``.  The simulation counts stay
    exact when pool threads simulate at once."""

    def __init__(self, model):
        self._model = model
        self._lock = threading.Lock()
        self.n_calls = 0
        self.n_summaries = 0
        self.n_prior_calls = 0
        self.n_prior_sd_calls = 0

    def prior_logdensity(self, theta):
        self.n_prior_calls += 1
        return self._model.prior_logdensity(theta)

    def prior_sd(self):
        self.n_prior_sd_calls += 1
        return self._model.prior_sd()

    def simulate(self, theta, n, rng):
        rows = math.prod(np.shape(theta)[:-1])
        with self._lock:
            self.n_calls += rows
            self.n_summaries += rows * n
        return self._model.simulate(theta, n, rng)

    def __getattr__(self, item):
        return getattr(self._model, item)


class NanBundleModel(NormalMeanModel):
    """Normal-mean model whose simulator returns NaN for every tenth bundle.

    Bundles are counted across calls, so a chain drawing one bundle per call
    and a particle system drawing N per call both see the same pattern.  The
    first ``clean_bundles`` bundles are left finite.
    """

    def __init__(self, *args, clean_bundles=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_bundles = 0
        self.clean_bundles = clean_bundles

    def simulate(self, theta, n, rng):
        out = super().simulate(theta, n, rng)
        bundles = out.reshape(-1, n, out.shape[-1])
        index = self.n_bundles + np.arange(bundles.shape[0])
        bundles[(index % 10 == 9) & (index >= self.clean_bundles)] = np.nan
        self.n_bundles += bundles.shape[0]
        return out


def _snapshot(rec):
    """Copies of every array a ``MoveRecord`` holds."""
    return [np.copy(a) for a in (rec.prop.theta, rec.prop.bundle, rec.prop.log_prior,
                                 rec.prop.log_pooled, rec.curr.theta, rec.curr.bundle,
                                 rec.curr.log_prior, rec.curr.log_pooled, rec.log_ratio,
                                 rec.u, rec.accepted)]


def assert_records_never_mutated(run):
    """``run(callback)`` hands out records; each must hold at the end what it held then."""
    records, snapshots = [], []
    run(lambda rec: (records.append(rec), snapshots.append(_snapshot(rec))))
    assert records
    for rec, snap in zip(records, snapshots):
        for now, then in zip(_snapshot(rec), snap):
            assert np.array_equal(now, then, equal_nan=True)
