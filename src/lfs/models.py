"""Toy models: prior, data-generating simulator, summary map and analytic oracles.

Models are a plug-in interface (prior sample/logdensity, simulate, optional
oracle) so genuinely intractable simulators can be added.  The two built-ins
are deliberately tractable: sampler correctness is only checkable against a
known target.

* ``NormalMeanModel`` — prior N(mu0, sigma0^2), summary t | theta ~ N(theta,
  tau^2).  Closed-form conjugate oracle under the Gaussian kernel (the kernel
  convolution just inflates the likelihood variance to tau^2 + h^2);
  quadrature-grade oracle for the other kernels.
* ``BernoulliCountModel`` — prior Uniform(0,1), summary t = successes out of
  m trials.  A Uniform kernel with h < 1 accepts only the exact integer match
  t = t_y, for which the smoothed posterior is exactly Beta(t_y+1, m-t_y+1);
  other kernels get a summation-based oracle.
"""

import functools
import math

import numpy as np
from scipy import integrate, stats

from .errors import CapabilityError, ConfigurationError, DomainError
from .kernels import _LOG_SQRT_2PI

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


class AnalyticOracle:
    """Exact (closed-form or quadrature-grade) smoothed marginal posterior.

    Callables are vectorized over theta.  ``posterior_density`` integrates to
    one; ``cdf`` is non-decreasing from 0 to 1.  ``moments()`` returns
    (mean, variance) and runs only when ``posterior_mean`` or
    ``posterior_variance`` is first read.
    """

    def __init__(self, posterior_density, cdf, moments):
        self.posterior_density = posterior_density
        self.cdf = cdf
        self._moments_fn = moments

    @functools.cached_property
    def _moments(self):
        mean, var = self._moments_fn()
        return float(mean), float(var)

    @property
    def posterior_mean(self):
        return self._moments[0]

    @property
    def posterior_variance(self):
        return self._moments[1]


class Model:
    """Base interface: prior, simulator and optional analytic oracle.

    Instances are immutable after construction; ``simulate`` may be called
    concurrently as long as each caller brings its own random stream.
    """

    name = "abstract"
    param_dim = 1
    summary_dim = 1

    def prior_sample(self, rng, shape=()):
        """Prior draws of shape ``shape + (param_dim,)``."""
        raise NotImplementedError

    def prior_logdensity(self, theta):
        """Log prior density of theta (..., param_dim), shape (...); -inf off support."""
        raise NotImplementedError

    def prior_sd(self):
        """Per-dimension prior standard deviation (used for proposal defaults)."""
        raise NotImplementedError

    def simulate(self, theta, n, rng):
        """n conditionally independent summary vectors per parameter value.

        theta (..., param_dim) gives shape (..., n, summary_dim); a single
        theta of shape (param_dim,) gives (n, summary_dim).
        """
        raise NotImplementedError

    def oracle(self, t_y, kernel):
        raise CapabilityError(f"model {self.name!r} has no analytic oracle")

    def hyperparameters(self):
        return {}


def _as_theta(theta, param_dim):
    """theta as a float array of shape (..., param_dim); DomainError otherwise."""
    th = np.asarray(theta, dtype=float)
    if th.shape[-1:] != (param_dim,):
        raise DomainError(f"expected theta of shape (..., {param_dim}), got {th.shape}")
    return th


class NormalMeanModel(Model):
    """Normal location model: theta ~ N(mu0, sigma0^2), t | theta ~ N(theta, tau^2)."""

    name = "normal-mean"

    def __init__(self, prior_mean=0.0, prior_sd_value=1.0, tau=1.0):
        if prior_sd_value <= 0 or tau <= 0:
            raise ConfigurationError("prior sd and tau must be positive")
        self.prior_mean = float(prior_mean)
        self._prior_sd = float(prior_sd_value)
        self.tau = float(tau)

    def prior_sample(self, rng, shape=()):
        return rng.normal(self.prior_mean, self._prior_sd, size=(*shape, 1))

    def prior_logdensity(self, theta):
        th = _as_theta(theta, self.param_dim)[..., 0]
        z = (th - self.prior_mean) / self._prior_sd
        body = -0.5 * z * z - math.log(self._prior_sd) - _LOG_SQRT_2PI
        # an infinite theta already gives -inf; fmax maps a NaN theta's NaN to -inf
        return np.fmax(body, -np.inf)

    def prior_sd(self):
        return np.array([self._prior_sd])

    def simulate(self, theta, n, rng):
        th = _as_theta(theta, self.param_dim)
        if not np.isfinite(th).all():
            raise DomainError("non-finite theta is outside the prior's support")
        return th[..., np.newaxis, :] + self.tau * rng.standard_normal((*th.shape[:-1], n, 1))

    def smoothed_loglik(self, thetas, t_y, kernel):
        """log of the kernel-smoothed likelihood  integral K_h(t_y - t) f(t|theta) dt.

        Closed form for the gaussian and uniform kernels; 64-node
        Gauss-Legendre for epanechnikov (smooth compact integrand, the rule is
        exact to machine precision here).
        """
        thetas = np.asarray(thetas, dtype=float)
        t_y = float(np.asarray(t_y).reshape(()))
        h = kernel.bandwidth
        tau = self.tau
        if kernel.kind == "gaussian":
            s2 = tau * tau + h * h
            return -0.5 * (t_y - thetas) ** 2 / s2 - 0.5 * math.log(2.0 * math.pi * s2)
        if kernel.kind == "uniform":
            hi = stats.norm.cdf((t_y + h - thetas) / tau)
            lo = stats.norm.cdf((t_y - h - thetas) / tau)
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(hi - lo, 0.0)) - math.log(2.0 * h)
        # epanechnikov: integrate K_h(u) phi(t_y - u; theta, tau) over u in [-h, h]
        u = h * _GL_NODES
        kern = 0.75 / h * (1.0 - (u / h) ** 2)
        vals = stats.norm.pdf(t_y - u[:, np.newaxis], thetas[np.newaxis, :], tau)
        out = (h * _GL_WEIGHTS) @ (kern[:, np.newaxis] * vals)
        with np.errstate(divide="ignore"):
            return np.log(out)

    def oracle(self, t_y, kernel):
        t_y = float(np.asarray(t_y).reshape(()))
        if kernel.kind == "gaussian":
            lik_var = self.tau**2 + kernel.bandwidth**2
            prec = 1.0 / self._prior_sd**2 + 1.0 / lik_var
            post_var = 1.0 / prec
            post_mean = post_var * (self.prior_mean / self._prior_sd**2 + t_y / lik_var)
            post_sd = math.sqrt(post_var)
            return AnalyticOracle(
                posterior_density=lambda th: stats.norm.pdf(th, post_mean, post_sd),
                cdf=lambda th: stats.norm.cdf(th, post_mean, post_sd),
                moments=lambda: (post_mean, post_var),
            )
        lo = min(self.prior_mean, t_y) - 12.0 * self._prior_sd
        hi = max(self.prior_mean, t_y) + 12.0 * self._prior_sd

        def unnorm(th):
            th = np.atleast_1d(np.asarray(th, dtype=float))
            lp = stats.norm.logpdf(th, self.prior_mean, self._prior_sd)
            return np.exp(lp + self.smoothed_loglik(th, t_y, kernel))

        return _grid_oracle(unnorm, lo, hi)

    def hyperparameters(self):
        return {"prior_mean": self.prior_mean, "prior_sd": self._prior_sd, "tau": self.tau}


class BernoulliCountModel(Model):
    """Success-count model: theta ~ Uniform(0,1), t | theta ~ Binomial(m, theta)."""

    name = "bernoulli-count"

    def __init__(self, trials=20):
        trials = int(trials)
        if trials < 1:
            raise ConfigurationError("trial count must be a positive integer")
        self.trials = trials

    def prior_sample(self, rng, shape=()):
        return rng.uniform(0.0, 1.0, size=(*shape, 1))

    def prior_logdensity(self, theta):
        th = _as_theta(theta, self.param_dim)[..., 0]
        return np.where((th >= 0.0) & (th <= 1.0), 0.0, -np.inf)

    def prior_sd(self):
        return np.array([1.0 / math.sqrt(12.0)])

    def simulate(self, theta, n, rng):
        th = _as_theta(theta, self.param_dim)
        if not ((th >= 0.0) & (th <= 1.0)).all():
            raise DomainError("theta outside [0, 1]")
        return rng.binomial(self.trials, th[..., np.newaxis, :],
                            size=(*th.shape[:-1], n, 1)).astype(float)

    def smoothed_loglik(self, thetas, t_y, kernel):
        """log sum_t K_h(t_y - t) f(t|theta) over the finite summary support.

        The pmf is evaluated only where the kernel weight is nonzero; the other
        rows stay 0, so each of their terms is the same +0 as before.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        t_y = float(np.asarray(t_y).reshape(()))
        ts = np.arange(self.trials + 1, dtype=float)
        kvals = kernel.evaluate((t_y - ts)[:, np.newaxis])
        near = kvals != 0.0
        pmf = np.zeros((ts.size, thetas.size))
        pmf[near] = stats.binom.pmf(ts[near, np.newaxis], self.trials, thetas[np.newaxis, :])
        with np.errstate(divide="ignore"):
            return np.log(kvals @ pmf)

    def oracle(self, t_y, kernel):
        t_y = float(np.asarray(t_y).reshape(()))
        exact_match = (kernel.kind == "uniform" and kernel.bandwidth < 1.0
                       and float(t_y).is_integer())
        if exact_match:
            a, b = t_y + 1.0, self.trials - t_y + 1.0
            dist = stats.beta(a, b)
            return AnalyticOracle(
                posterior_density=dist.pdf, cdf=dist.cdf,
                moments=lambda: (dist.mean(), dist.var()),
            )

        def unnorm(th):
            th = np.atleast_1d(np.asarray(th, dtype=float))
            return np.exp(self.smoothed_loglik(th, t_y, kernel))

        return _grid_oracle(unnorm, 0.0, 1.0)

    def hyperparameters(self):
        return {"trials": self.trials}


def _grid_oracle(unnorm, lo, hi, n_grid=50_001):
    """Quadrature-grade oracle from an unnormalized density on [lo, hi].

    The normalizer uses adaptive quadrature (abs tol 1e-9 target, well below
    any Monte Carlo error in the test suite); the cdf is cumulative trapezoid
    on a dense grid with interpolation.  The moments are two more quadratures,
    run when first read.
    """
    def quad(f):
        return integrate.quad(f, lo, hi, epsabs=1e-12, limit=400)[0]

    z = quad(lambda x: float(unnorm(x)[0]))
    if not z > 0:
        raise CapabilityError("oracle normalization failed: zero mass on the support")

    def moments():
        mean = quad(lambda x: x * float(unnorm(x)[0])) / z
        return mean, quad(lambda x: x * x * float(unnorm(x)[0])) / z - mean * mean

    grid = np.linspace(lo, hi, n_grid)
    dens = unnorm(grid) / z
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cum = np.clip(cum / cum[-1], 0.0, 1.0)

    def density(th):
        th = np.asarray(th, dtype=float)
        return np.asarray(unnorm(np.atleast_1d(th)) / z).reshape(th.shape)

    def cdf(th):
        th = np.asarray(th, dtype=float)
        return np.interp(th, grid, cum, left=0.0, right=1.0)

    return AnalyticOracle(density, cdf, moments)


MODEL_NAMES = ("normal-mean", "bernoulli-count")


def make_model(name, **hyper):
    """Build a model by its registry name with keyword hyperparameters."""
    if name == "normal-mean":
        return NormalMeanModel(
            prior_mean=hyper.get("prior_mean", 0.0),
            prior_sd_value=hyper.get("prior_sd", 1.0),
            tau=hyper.get("tau", 1.0),
        )
    if name == "bernoulli-count":
        return BernoulliCountModel(trials=hyper.get("trials", 20))
    raise ConfigurationError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
