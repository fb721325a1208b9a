"""Unnormalized target-density computations shared by every sampler.

Two readings of the same quantity live here.  The joint reading is the
augmented density over (theta, bundle) with the simulator factor deliberately
omitted: every implemented algorithm proposes bundles from the simulator
itself, so the intractable product of data densities cancels between target
and proposal, and what survives in every acceptance ratio and importance
weight is exactly ``log(pooled kernel) + log(prior)``.  The marginal reading
is the Monte Carlo estimate of the smoothed marginal posterior built from a
fresh bundle — the same expression evaluated on a bundle the caller did not
choose.  Having one implementation for both is what makes the joint-target
and marginal-target bookkeepings of the samplers bit-identical.

All density work is in log space with -inf for exact zeros: compactly
supported kernels produce genuine zeros, and products of many densities
underflow in linear space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class AugmentedState:
    """A parameter with its simulated bundle and cached log[pooled kernel x prior].

    The one state type: a chain's current state, or a proposal awaiting the MH
    step.  ``log_num`` is only meaningful at the bandwidth it was computed at;
    holders refresh it whenever their bandwidth changes.  -inf means every
    summary in the bundle missed the kernel's support.
    """

    theta: np.ndarray
    bundle: np.ndarray
    log_num: float


def simulate_checked(model, theta, S, rng):
    """``model.simulate(theta, S, rng)`` for every sampler, with its output checked.

    A bundle of the wrong shape, or holding a NaN or infinite summary, raises
    ``DomainError`` instead of becoming a silent kernel miss or a NaN weight.
    """
    bundle = model.simulate(theta, S, rng)
    expected = (*np.shape(theta)[:-1], S, model.summary_dim)
    if np.shape(bundle) != expected:
        raise DomainError(f"model {model.name!r} simulated summaries of shape "
                          f"{np.shape(bundle)}, expected {expected}")
    finite = np.isfinite(bundle)
    if not finite.all():
        n_bad = int(np.count_nonzero(~finite.all(axis=-1)))
        raise DomainError(f"model {model.name!r} simulated {n_bad} non-finite "
                          f"summaries out of {bundle.size // expected[-1]}")
    return bundle


def joint_logdensity_unnorm(theta, bundle, t_y, kernel, model):
    """log[pooled kernel x prior] at (theta, bundle); -inf signals zero mass."""
    return float(kernel.log_pooled(t_y, bundle)) + float(model.prior_logdensity(theta))


def mh_step(log_num_prop, log_num_curr, log_q_ratio, u):
    """The Metropolis-Hastings step on the augmented (theta, bundle) space.

    Maps (log_num_prop, log_num_curr, log q(prop -> curr) - log q(curr -> prop),
    u) to (log_ratio, accept), vectorized: a chain is a batch of one and the
    joint-move mutation a batch of N.  Both readings of the ratio (marginal
    estimate and joint density) share this one implementation.  It draws no
    randomness.  Two -inf values give -inf: the move is rejected.
    """
    both_dead = (log_num_prop == -np.inf) & (log_num_curr == -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        log_ratio = np.where(both_dead, -np.inf, (log_num_prop - log_num_curr) + log_q_ratio)
        accept = (log_ratio >= 0.0) | (u < np.exp(log_ratio))
    return log_ratio, accept


def marginal_logestimate(theta, S, t_y, kernel, model, rng):
    """Unbiased Monte Carlo estimate of the unnormalized smoothed marginal.

    Simulates a fresh bundle of S summaries at theta and returns
    ``(log estimate, bundle)``; the bundle is returned so samplers can keep it
    as state.  The estimate is unbiased for every S >= 1; its variance falls
    as S grows.
    """
    if model.prior_logdensity(theta) == -np.inf:
        raise DomainError(f"theta={np.asarray(theta)} outside the prior's support")
    bundle = simulate_checked(model, theta, S, rng)
    return joint_logdensity_unnorm(theta, bundle, t_y, kernel, model), bundle
