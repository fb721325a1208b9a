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

    def pooled_evaluate(self, t_y, bundle):
        bundle = np.asarray(bundle, dtype=float)
        return np.full(bundle.shape[:-2], self.value)

    def log_pooled(self, t_y, bundle):
        bundle = np.asarray(bundle, dtype=float)
        return np.full(bundle.shape[:-2], np.log(self.value))

    def sup_value(self):
        return self.value

    def with_bandwidth(self, h):
        return self


class NanBundleModel(NormalMeanModel):
    """Normal-mean model whose simulator returns NaN for every tenth bundle.

    Bundles are counted across calls, so a chain drawing one bundle per call
    and a particle system drawing N per call both see the same pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_bundles = 0

    def simulate(self, theta, n, rng):
        out = super().simulate(theta, n, rng)
        bundles = out.reshape(-1, n, out.shape[-1])
        index = self.n_bundles + np.arange(bundles.shape[0])
        bundles[index % 10 == 9] = np.nan
        self.n_bundles += bundles.shape[0]
        return out
