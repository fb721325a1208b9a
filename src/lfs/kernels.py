"""Smoothing kernels and the pooled kernel over bundles of simulated summaries.

All kernel math lives here.  A kernel weights a summary-difference vector u by
a 1-D profile applied to the scaled distance d = ``distance(u) / h``.  The
profiles carry their standard normalizing constants so quadrature oracles can
treat them as genuine densities, but downstream samplers only ever use them up
to proportionality.

Multivariate summaries are reduced to a scalar through a configurable
(weighted) Euclidean distance before the 1-D profile; this reduction is a
representation choice of this suite, not something the smoothing construction
itself prescribes.
"""

import math

import numpy as np

from .errors import ConfigurationError

KERNEL_KINDS = ("uniform", "epanechnikov", "gaussian")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TINY = -650.0  # below this log a linear mean of gaussian values may have lost digits


class SummaryDistance:
    """Reduces summary-difference vectors to scalar distances.

    Parameters
    ----------
    norm : {"euclidean", "weighted-euclidean"}
    weights : array_like of positive reals, optional
        Per-dimension weights, required for "weighted-euclidean".
    """

    def __init__(self, norm="euclidean", weights=None):
        if norm not in ("euclidean", "weighted-euclidean"):
            raise ConfigurationError(f"unknown distance norm {norm!r}")
        if norm == "weighted-euclidean":
            if weights is None:
                raise ConfigurationError("weighted-euclidean needs per-dimension weights")
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 1 or np.any(weights <= 0) or not np.all(np.isfinite(weights)):
                raise ConfigurationError("distance weights must be positive finite reals")
        elif weights is not None:
            raise ConfigurationError("weights are only valid with weighted-euclidean")
        self.norm = norm
        self.weights = weights

    def of_difference(self, u):
        """Scalar distance of difference vector(s) u, shape (..., dim) or scalar."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            u = u[np.newaxis]
        if self.weights is not None and self.weights.shape[0] != u.shape[-1]:
            raise ConfigurationError(f"{self.weights.shape[0]} distance weights given for "
                                     f"summaries of dimension {u.shape[-1]}")
        sq = u * u if self.weights is None else self.weights * u * u
        # np.sum without its wrapper; a sum of one (nonnegative) term is that term
        return np.sqrt(sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1))


class SmoothingKernel:
    """Nonnegative symmetric weighting function with bandwidth h > 0.

    Profiles at scaled distance d = distance/h:

    ==============  =============================================
    uniform         1/(2h) if d <= 1 else 0
    epanechnikov    (3/(4h)) (1 - d^2) if d <= 1 else 0
    gaussian        (1/(h sqrt(2 pi))) exp(-d^2 / 2)
    ==============  =============================================

    h = 0 is rejected at construction: a point mass breaks every
    continuous-summary sampler, so the vanishing-bandwidth limit is a limit,
    not a runnable configuration.
    """

    def __init__(self, kind, bandwidth, distance=None):
        if kind not in KERNEL_KINDS:
            raise ConfigurationError(
                f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
        bandwidth = float(bandwidth)
        if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
            raise ConfigurationError(f"bandwidth must be a positive real, got {bandwidth}")
        self.kind = kind
        self.bandwidth = bandwidth
        self.distance = distance if distance is not None else SummaryDistance()

    def with_bandwidth(self, bandwidth):
        """Same kernel kind and distance at a different bandwidth."""
        return SmoothingKernel(self.kind, bandwidth, self.distance)

    # -- pointwise profile ---------------------------------------------------

    def evaluate(self, u):
        """Kernel value at difference vector(s) u; vectorized over leading axes."""
        return self._profile(self.distance.of_difference(u) / self.bandwidth)

    def sup_value(self):
        """The profile's maximum, attained at zero distance."""
        return float(self._profile(0.0))

    def _profile(self, d, relative=False):
        """The profile at scaled distance d, divided by its peak value when ``relative``."""
        h = self.bandwidth
        if self.kind == "uniform":
            return np.where(d <= 1.0, 1.0 if relative else 0.5 / h, 0.0)
        if self.kind == "epanechnikov":
            c = 1.0 if relative else 0.75 / h
            return np.where(d <= 1.0, c * np.maximum(1.0 - d * d, 0.0), 0.0)
        g = np.exp(-0.5 * d * d)
        return g if relative else g / (h * math.sqrt(2.0 * math.pi))

    def _log_profile(self, d):
        h = self.bandwidth
        if self.kind == "uniform":
            return np.where(d <= 1.0, -math.log(2.0 * h), -np.inf)[()]  # 0-d: a scalar
        if self.kind == "epanechnikov":
            with np.errstate(divide="ignore", invalid="ignore"):
                body = math.log(0.75 / h) + np.log1p(-(d * d))
            return np.where(d < 1.0, body, -np.inf)[()]
        return -0.5 * d * d - math.log(h) - _LOG_SQRT_2PI

    # -- pooled kernel over a bundle ------------------------------------------

    def log_pooled(self, t_y, bundle):
        """log of the arithmetic mean of the kernel over the bundle's S summaries.

        ``bundle`` is (S, dim) or (..., S, dim); -inf means every summary fell
        outside a compact kernel's support.  At S = 1 this is the log profile.
        """
        d = self._bundle_distances(t_y, bundle)
        if d.shape[-1] == 1:  # indexed first: a lone bundle's log profile is scalar math
            return self._log_profile(d[..., 0])
        # the mean kernel over its peak (np.mean without its wrapper): exactly k/S
        # (uniform), 0 or above 1e-16 / S (epanechnikov); gaussian underflow: log-sum-exp
        with np.errstate(divide="ignore"):
            rel = np.log(np.add.reduce(self._profile(d, relative=True), axis=-1) / d.shape[-1])
        out = np.asarray(rel + self._log_profile(0.0))
        if self.kind == "gaussian" and np.minimum.reduce(rel, axis=None) < _LOG_TINY:
            low = rel < _LOG_TINY
            logs = self._log_profile(d[low])
            out[low] = np.logaddexp.reduce(logs, axis=-1) - math.log(d.shape[-1])
        return out[()]  # a lone bundle's value as a numpy scalar, not a 0-d array

    def _bundle_distances(self, t_y, bundle):
        bundle = np.asarray(bundle, dtype=float)
        if bundle.ndim < 2:  # a scalar or a 1-D array is a bundle of scalar summaries
            bundle = bundle.reshape(-1, 1)
        if bundle.shape[-2] < 1:
            raise ConfigurationError("bundle must contain at least one summary (S >= 1)")
        return self.distance.of_difference(np.asarray(t_y, dtype=float) - bundle) / self.bandwidth

    def __repr__(self):
        return f"SmoothingKernel({self.kind!r}, h={self.bandwidth})"
