"""Generalized likelihood-free MCMC for any S >= 1, in two variants.

``carried`` (the exact sampler): the simulated bundle travels with the chain
state and its cached pooled-kernel value is reused in the acceptance
denominator.  This is a pseudo-marginal scheme — it targets the augmented
joint posterior over (theta, bundle) by construction, so discarding bundles
yields exact smoothed-marginal draws for every S.

``fresh`` (the biased reference variant): the denominator is re-estimated
from a brand-new bundle at the current state on every iteration ("Monte Carlo
within Metropolis").  The acceptance probability is then a ratio of two
independent unbiased estimates, which is itself biased for finite S; the
chain's stationary distribution only approaches the smoothed marginal as S
grows.  It exists to make that bias observable and is labeled as biased in
all emitted metadata.

Both variants share one acceptance computation: the marginal-estimate reading
and the joint-density reading of the ratio are the same expression, so there
is exactly one code path for it.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhaustedError, ConfigurationError, DomainError
from .kernels import _LOG_SQRT_2PI
from .rng import substream
from .target import (AugmentedState, MoveRecord, joint_logdensity_unnorm, mh_step,
                     simulate_checked)

CARRIED_BUNDLE = "carried"
FRESH_DENOMINATOR = "fresh"
MCMC_VARIANTS = (CARRIED_BUNDLE, FRESH_DENOMINATOR)

PROPOSAL_KINDS = ("random-walk", "prior")


@dataclass
class ProposalSpec:
    """Parameter-space proposal q(theta_curr, .).

    ``random-walk``: Gaussian with per-dimension step sd (symmetric).
    ``prior``: independence proposal from the model's prior.

    A ``None`` step sd means half the prior sd per dimension (``step``) — a
    documented default so experiments stay reproducible.  ``sample`` and
    ``logdensity`` are vectorized over leading axes: theta (..., param_dim)
    is a batch, (param_dim,) a single point.
    """

    kind: str = "random-walk"
    step_sd: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in PROPOSAL_KINDS:
            raise ConfigurationError(
                f"unknown proposal kind {self.kind!r}; expected one of {PROPOSAL_KINDS}")
        if self.step_sd is not None:
            self.step_sd = np.atleast_1d(np.asarray(self.step_sd, dtype=float))
            if not np.all((self.step_sd > 0) & np.isfinite(self.step_sd)):
                raise ConfigurationError(
                    f"proposal step sd must be positive and finite, got {self.step_sd}")

    def step(self, model):
        """The random-walk step sd: ``step_sd``, or half the prior sd when unset."""
        return model.prior_sd() / 2.0 if self.step_sd is None else self.step_sd

    @property
    def symmetric(self):
        """q(a -> b) == q(b -> a) exactly, so q cancels from every MH ratio."""
        return self.kind == "random-walk"

    def sample(self, theta, model, rng):
        if self.kind == "prior":
            return model.prior_sample(rng, np.shape(theta)[:-1])
        return theta + self.step(model) * rng.standard_normal(np.shape(theta))

    def logdensity(self, frm, to, model):
        """log q(frm -> to); pointwise evaluable for both kinds."""
        if self.kind == "prior":
            return model.prior_logdensity(to)
        step = self.step(model)
        z = (np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)) / step
        return np.sum(-0.5 * z * z - np.log(step) - _LOG_SQRT_2PI, axis=-1)

    def log_q_ratio(self, curr, prop, model):
        """log q(prop -> curr) - log q(curr -> prop); exactly 0.0 when symmetric."""
        if self.symmetric:
            return 0.0
        return self.logdensity(prop, curr, model) - self.logdensity(curr, prop, model)


@dataclass
class McmcOutput:
    iterations: np.ndarray       # kept iteration indices, 1-based
    thetas: np.ndarray           # (n_kept, param_dim)
    accepted: np.ndarray         # bool flags for the kept iterations
    log_nums: np.ndarray
    acceptance_rate: float
    variant: str
    n_iter: int


def _simulated_state(theta, model, kernel, t_y, S, rng, stream, iteration):
    bundle = simulate_checked(model, theta, S, rng, stream, iteration)
    log_num = joint_logdensity_unnorm(theta, bundle, t_y, kernel, model)
    return AugmentedState(theta, bundle, log_num)


def initialize_chain(model, kernel, t_y, S, rng, init=None, init_budget=100_000,
                     stream=None):
    """Draw a starting state with nonzero pooled kernel (budgeted).

    With ``init`` the parameter is fixed and only its bundle is redrawn.
    ``stream`` is the ``(seed, *path)`` of ``rng``, named by simulator errors.
    """
    if init is not None:
        init = np.atleast_1d(np.asarray(init, dtype=float))
        if model.prior_logdensity(init) == -np.inf:
            raise DomainError(f"init theta={init} outside the prior's support")
    for _ in range(init_budget):
        theta = model.prior_sample(rng) if init is None else init
        state = _simulated_state(theta, model, kernel, t_y, S, rng, stream, 0)
        if state.log_num > -np.inf:
            return state
    where = "from the prior" if init is None else f"at init theta={init}"
    raise BudgetExhaustedError(
        f"chain initialization found no state with nonzero kernel {where} "
        f"in {init_budget} draws", proposals_used=init_budget)


def check_arguments(variant, n_iter, burn_in, thin):
    """The checks ``run_mcmc`` makes on its scalar arguments."""
    if variant not in MCMC_VARIANTS:
        raise ConfigurationError(f"unknown MCMC variant {variant!r}")
    if not (n_iter > burn_in >= 0):
        raise ConfigurationError("need n_iter > burn_in >= 0")
    if thin < 1:
        raise ConfigurationError("thin must be >= 1")


def run_mcmc(model, kernel, t_y, S, variant, proposal, n_iter, burn_in, seed, *,
             init=None, thin=1, chain_id=0, init_budget=100_000,
             on_iteration: Optional[Callable[[MoveRecord], None]] = None):
    """Run one chain; returns the post-burn-in, thinned trajectory.

    The whole chain lives on the substream (seed, "mcmc", "chain", chain_id),
    so independent chains on distinct ids are reproducible regardless of
    scheduling.
    """
    check_arguments(variant, n_iter, burn_in, thin)

    stream = (seed, "mcmc", "chain", chain_id)
    rng = substream(*stream)
    state = initialize_chain(model, kernel, t_y, S, rng, init=init, init_budget=init_budget,
                             stream=stream)

    kept_iters, kept_thetas, kept_flags, kept_lognums = [], [], [], []
    n_accepted = 0

    for n in range(1, n_iter + 1):
        theta_prop = proposal.sample(state.theta, model, rng)
        accepted = False
        if model.prior_logdensity(theta_prop) > -np.inf:
            prop = _simulated_state(theta_prop, model, kernel, t_y, S, rng, stream, n)
            if variant == FRESH_DENOMINATOR:
                # latest estimate at the (unchanged) current parameter
                state = _simulated_state(state.theta, model, kernel, t_y, S, rng, stream, n)
            u = rng.uniform()
            log_q_ratio = proposal.log_q_ratio(state.theta, prop.theta, model)
            log_ratio, accepted = mh_step(prop.log_num, state.log_num, log_q_ratio, u)
            if on_iteration is not None:
                on_iteration(MoveRecord(n, prop, state, float(log_ratio), u, bool(accepted)))
            if accepted:
                state = prop
                n_accepted += 1
        if n > burn_in and (n - burn_in - 1) % thin == 0:
            kept_iters.append(n)
            kept_thetas.append(state.theta.copy())
            kept_flags.append(accepted)
            kept_lognums.append(state.log_num)

    return McmcOutput(
        iterations=np.asarray(kept_iters, dtype=np.int64),
        thetas=np.asarray(kept_thetas, dtype=float),
        accepted=np.asarray(kept_flags, dtype=bool),
        log_nums=np.asarray(kept_lognums, dtype=float),
        acceptance_rate=n_accepted / n_iter,
        variant=variant, n_iter=n_iter,
    )
