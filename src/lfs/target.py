"""Unnormalized target-density computations shared by every sampler.

Two readings of the same quantity live here.  The joint reading is the
augmented density over (theta, bundle) with the simulator factor deliberately
omitted: every implemented algorithm proposes bundles from the simulator
itself, so the intractable product of data densities cancels between target
and proposal, and what survives in every acceptance ratio and importance
weight is exactly ``log(pooled kernel) + log(prior)``.  The marginal reading,
the unbiased Monte Carlo estimate of the unnormalized smoothed marginal, is
the same quantity on a fresh bundle: the ``log_num`` of a ``propose`` state,
which is how every sampler builds its (theta, bundle) states.  Having one
implementation for both is what makes the joint-target and marginal-target
bookkeepings of the samplers bit-identical.

All density work is in log space with -inf for exact zeros: compactly
supported kernels produce genuine zeros, and products of many densities
underflow in linear space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(slots=True)
class AugmentedState:
    """Parameters with their simulated bundles and cached log prior and log pooled kernel.

    The one state type, batched over leading axes: theta (..., p), bundle
    (..., S, d), ``log_prior`` and ``log_pooled`` (...).  A lone chain has no
    leading axis; a chain batch, a particle population or a batch of proposals
    has one.  ``log_pooled`` is only meaningful at the bandwidth it was computed
    at; holders refresh it whenever their bandwidth changes.  -inf means every
    summary in a bundle missed the kernel's support, or theta left the prior's.
    """

    theta: np.ndarray
    bundle: np.ndarray
    log_prior: np.ndarray
    log_pooled: np.ndarray

    @property
    def log_num(self):
        """log[pooled kernel x prior], the quantity every ratio and weight is built from."""
        return self.log_pooled + self.log_prior

    def take(self, rows):
        """The state of the selected rows (indices or a mask), as new arrays."""
        return AugmentedState(self.theta[rows], self.bundle[rows], self.log_prior[rows],
                              self.log_pooled[rows])

    def where(self, mask, other):
        """``other``'s rows where ``mask``, else this state's, as new arrays.  A mask that
        is all true or all false (a lone chain's numpy bool) returns ``other`` or ``self``."""
        if mask.ndim == 0:
            return other if mask else self
        n = np.count_nonzero(mask)
        if n in (0, mask.size):
            return other if n else self
        rows = mask[..., np.newaxis]
        return AugmentedState(np.where(rows, other.theta, self.theta),
                              np.where(rows[..., np.newaxis], other.bundle, self.bundle),
                              np.where(mask, other.log_prior, self.log_prior),
                              np.where(mask, other.log_pooled, self.log_pooled))


@dataclass
class MoveRecord:
    """One realized Metropolis-Hastings move, handed to instrumentation callbacks.

    A lone chain's iteration holds scalars, a chain batch's one row per chain (a
    row whose proposal left the prior's support has u = 1 and is rejected), and
    an SMC step one row per particle whose proposal lies in the prior's support.
    ``curr`` is the state the proposal was weighed against (the fresh estimate,
    for the fresh variant), and ``mh_step(prop.log_num, curr.log_num,
    log_q_ratio, u)`` replays ``(log_ratio, accepted)``.
    """

    step: int
    prop: AugmentedState
    curr: AugmentedState
    log_ratio: np.ndarray
    u: np.ndarray
    accepted: np.ndarray


def check_bundle_size(S):
    """The rule every sampler check applies to S, the summaries simulated per theta."""
    if S < 1:
        raise ConfigurationError("S must be >= 1")


def check_s_grid(name, grid):
    """The rule on an experiment's S grid: at least one S, each a valid bundle size,
    strictly increasing (a repeated S would collapse two populations into one)."""
    if not grid:
        raise ConfigurationError(f"{name} must hold at least one S")
    for S in grid:
        check_bundle_size(S)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing, got {list(grid)}")


def simulate_checked(model, theta, S, rng, stream=None, iteration=None):
    """``model.simulate(theta, S, rng)`` with its output checked, as ``propose`` simulates.

    A bundle of the wrong shape, or holding a NaN or infinite summary, raises
    ``DomainError`` instead of becoming a silent kernel miss or a NaN weight.
    ``stream`` is the ``(seed, *path)`` that ``rng`` came from and
    ``iteration`` the MCMC iteration (0 for the chain's initialization); the
    error names them, so ``substream(*stream)`` replays the bad draw.
    """
    expected = (*np.shape(theta)[:-1], S, model.summary_dim)
    return _check_bundle(model, model.simulate(theta, S, rng), expected, stream, iteration)


def propose(model, kernel, t_y, S, theta, rng, stream=None, iteration=None, fill=None,
            log_prior=None):
    """The ``AugmentedState`` of theta (p,) or (n, p) with fresh bundles: every sampler's states.

    The log prior is evaluated unless given.  Only rows inside its support are
    simulated; the others keep ``fill``'s bundle (without ``fill``, all rows are).
    ``rng`` is one generator, or one per row with ``stream`` listing their paths:
    row k then draws what it draws alone, and a bad row's error names its stream.
    """
    if log_prior is None:
        log_prior = model.prior_logdensity(theta)
    if theta.ndim == 1:  # a lone theta: no row bookkeeping
        bundle = (simulate_checked(model, theta, S, rng, stream, iteration)
                  if fill is None or log_prior > -np.inf else fill)
        return AugmentedState(theta, bundle, log_prior, kernel.log_pooled(t_y, bundle))
    rows = np.arange(len(theta)) if fill is None else (log_prior > -np.inf).nonzero()[0]
    every = rows.size == len(theta)
    if isinstance(rng, np.random.Generator):
        bundle = simulate_checked(model, theta if every else theta[rows], S, rng, stream, iteration)
    else:
        bundles = [model.simulate(theta[k], S, rng[k]) for k in rows]
        expected = (S, model.summary_dim)
        bundle = np.array(bundles) if all(np.shape(b) == expected for b in bundles) else None
        if bundle is None or np.count_nonzero(np.isfinite(bundle)) < bundle.size:
            for k, b in zip(rows, bundles):  # the first bad row raises
                _check_bundle(model, b, expected, stream[k], iteration)
    if not every:  # the reshape: a per-row stack of no rows is (0,)
        bundle, simulated = fill.copy(), bundle
        bundle[rows] = simulated.reshape(rows.size, *fill.shape[1:])
    return AugmentedState(theta, bundle, log_prior, kernel.log_pooled(t_y, bundle))


def _check_bundle(model, bundle, expected, stream, iteration):
    """``bundle`` if it has shape ``expected`` and only finite values; else the error above."""
    if np.shape(bundle) != expected:
        problem = f"summaries of shape {np.shape(bundle)}, expected {expected}"
    else:
        finite = np.isfinite(bundle)
        if np.count_nonzero(finite) == finite.size:  # finite.all(), without its method wrapper
            return bundle
        problem = (f"{np.count_nonzero(~finite.all(axis=-1))} non-finite summaries out of "
                   f"{bundle.size // expected[-1]}")
    where = [f"seed {stream[0]}, substream {tuple(stream[1:])!r}"] if stream is not None else []
    where += [f"iteration {iteration}"] if iteration is not None else []
    raise DomainError(f"model {model.name!r} simulated {problem}"
                      + (f" ({', '.join(where)})" if where else ""))


def joint_logdensity_unnorm(theta, bundle, t_y, kernel, model):
    """log[pooled kernel x prior] at theta (..., p), bundle (..., S, d); -inf is zero mass."""
    return kernel.log_pooled(t_y, bundle) + model.prior_logdensity(theta)


def log_quotient(log_num, log_den):
    """log(num / den) from the two logs, vectorized; two -inf values give -inf."""
    both_dead = (log_num == -np.inf) & (log_den == -np.inf)
    if isinstance(both_dead, np.ndarray):
        return log_num - np.where(both_dead, 0.0, log_den)
    return log_num - (0.0 if both_dead else log_den)  # scalars: np.where costs the most


def mh_step(log_num_prop, log_num_curr, log_q_ratio, u):
    """The Metropolis-Hastings test on the augmented (theta, bundle) space.

    Maps (log_num_prop, log_num_curr, log q(prop -> curr) - log q(curr -> prop),
    u) to (log_ratio, accept), vectorized and drawing no randomness.  Both
    readings of the ratio (marginal estimate and joint density) share it.  Two
    -inf values give -inf: the move is rejected.
    """
    log_ratio = log_quotient(log_num_prop, log_num_curr) + log_q_ratio
    # u < 1, so a ratio >= 1 always accepts; the clip keeps exp finite (min is a cheaper
    # np.minimum on scalars, a NaN included)
    clip = np.minimum if isinstance(log_ratio, np.ndarray) else min
    return log_ratio, u < np.exp(clip(log_ratio, 0.0))


def mh_move(curr, prop, symmetric, u):
    """One MH move from ``curr`` towards ``prop``: returns (next state, log_ratio, accepted).

    q is symmetric (it cancels) or the prior independence proposal, whose ratio
    q(prop -> curr) / q(curr -> prop) is the prior ratio, read off the cached
    log priors.  ``u`` is drawn by the caller.  A proposal outside the prior's
    support has log_num -inf and is rejected.
    """
    log_q_ratio = 0.0 if symmetric else curr.log_prior - prop.log_prior
    log_ratio, accepted = mh_step(prop.log_num, curr.log_num, log_q_ratio, u)
    return curr.where(accepted, prop), log_ratio, accepted
