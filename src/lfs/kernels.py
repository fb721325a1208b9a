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
        if self.weights is None:
            return np.sqrt(np.sum(u * u, axis=-1))
        return np.sqrt(np.sum(self.weights * u * u, axis=-1))

    def between(self, a, b):
        return self.of_difference(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))

    def __eq__(self, other):
        if not isinstance(other, SummaryDistance):
            return NotImplemented
        if self.norm != other.norm:
            return False
        if self.weights is None:
            return other.weights is None
        return other.weights is not None and np.array_equal(self.weights, other.weights)


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

    def log_evaluate(self, u):
        """log evaluate(u), with -inf outside compact supports."""
        return self._log_profile(self.distance.of_difference(u) / self.bandwidth)

    def sup_value(self):
        """The profile's maximum, attained at zero distance."""
        h = self.bandwidth
        if self.kind == "uniform":
            return 0.5 / h
        if self.kind == "epanechnikov":
            return 0.75 / h
        return 1.0 / (h * math.sqrt(2.0 * math.pi))

    def _profile(self, d):
        h = self.bandwidth
        if self.kind == "uniform":
            return np.where(d <= 1.0, 0.5 / h, 0.0)
        if self.kind == "epanechnikov":
            return np.where(d <= 1.0, (0.75 / h) * np.maximum(1.0 - d * d, 0.0), 0.0)
        return np.exp(-0.5 * d * d) / (h * math.sqrt(2.0 * math.pi))

    def _log_profile(self, d):
        h = self.bandwidth
        if self.kind == "uniform":
            return np.where(d <= 1.0, -math.log(2.0 * h), -np.inf)
        if self.kind == "epanechnikov":
            inside = d < 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                body = math.log(0.75 / h) + np.log1p(-(d * d))
            return np.where(inside, body, -np.inf)
        return -0.5 * d * d - math.log(h) - _LOG_SQRT_2PI

    # -- pooled kernel over a bundle ------------------------------------------

    def pooled_evaluate(self, t_y, bundle):
        """Arithmetic mean of the kernel over the bundle's S summaries.

        ``bundle`` has shape (S, dim) or (..., S, dim); the mean is taken over
        the S axis.  For S = 1 this is the plain kernel value.
        """
        vals = self._bundle_values(t_y, bundle)
        return np.mean(vals, axis=-1)

    def log_pooled(self, t_y, bundle):
        """log pooled_evaluate, computed stably in log space (-inf on all-miss)."""
        d = self._bundle_distances(t_y, bundle)
        logs = self._log_profile(d)
        if logs.shape[-1] == 1:
            return logs[..., 0]  # the log-sum-exp of one term, bit for bit
        m = np.max(logs, axis=-1)
        with np.errstate(invalid="ignore"):
            body = m + np.log(np.mean(np.exp(logs - m[..., np.newaxis]), axis=-1))
        return np.where(m == -np.inf, -np.inf, body)

    def _bundle_distances(self, t_y, bundle):
        bundle = np.asarray(bundle, dtype=float)
        if bundle.ndim == 0:
            bundle = bundle.reshape(1, 1)
        elif bundle.ndim == 1:
            # a 1-D array is a bundle of S scalar summaries
            bundle = bundle[:, np.newaxis]
        if bundle.shape[-2] < 1:
            raise ConfigurationError("bundle must contain at least one summary (S >= 1)")
        t_y = np.atleast_1d(np.asarray(t_y, dtype=float))
        return self.distance.of_difference(t_y - bundle) / self.bandwidth

    def _bundle_values(self, t_y, bundle):
        return self._profile(self._bundle_distances(t_y, bundle))

    def __eq__(self, other):
        if not isinstance(other, SmoothingKernel):
            return NotImplemented
        return (self.kind == other.kind and self.bandwidth == other.bandwidth
                and self.distance == other.distance)

    def __repr__(self):
        return f"SmoothingKernel({self.kind!r}, h={self.bandwidth})"
