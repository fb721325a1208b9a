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

Both variants, like SMC's joint-move mutation, make the one MH move
``target.mh_move`` on one batched ``AugmentedState``, and draw every bundle
(the initial one, the proposal's and the fresh re-estimate) through
``target.propose``.  ``run_chains`` runs C chains in lockstep, each drawing on
its own substream exactly what it draws alone; ``run_mcmc`` is its batch of one.
"""

import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhaustedError, ConfigurationError, DomainError
from .kernels import _LOG_SQRT_2PI
from .rng import substream
from .target import AugmentedState, MoveRecord, check_bundle_size, mh_move, propose
from .target import joint_logdensity_unnorm  # noqa: F401 (unused; perfbench's self-test patches it)

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
        """A proposal per row of theta, from ``rng``, or from ``rng[k]`` for row k when
        ``rng`` is a list (a chain batch): each draws what it draws for its row alone."""
        if not isinstance(rng, np.random.Generator):
            if self.kind == "prior":
                return np.array([model.prior_sample(r) for r in rng])
            noise = np.array([r.standard_normal(np.shape(theta)[-1]) for r in rng])
        elif self.kind == "prior":
            return model.prior_sample(rng, np.shape(theta)[:-1])
        else:
            noise = rng.standard_normal(np.shape(theta))
        return theta + self.step(model) * noise

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


def initialize_chain(model, kernel, t_y, S, rng, init=None, init_budget=100_000,
                     stream=None):
    """Draw a starting ``AugmentedState`` with nonzero pooled kernel (budgeted).

    With ``init`` the parameter is fixed and only its bundle is redrawn.
    ``stream`` is the ``(seed, *path)`` of ``rng``, named by simulator errors.
    """
    if init is not None:
        init = np.atleast_1d(np.asarray(init, dtype=float))
        if model.prior_logdensity(init) == -np.inf:
            raise DomainError(f"init theta={init} outside the prior's support")
    for _ in range(init_budget):
        theta = model.prior_sample(rng) if init is None else init
        state = propose(model, kernel, t_y, S, theta, rng, stream, 0)
        if state.log_num > -np.inf:
            return state
    where = "from the prior" if init is None else f"at init theta={init}"
    raise BudgetExhaustedError(
        f"chain initialization found no state with nonzero kernel {where} "
        f"in {init_budget} draws", proposals_used=init_budget)


def check_arguments(variant, n_iter, burn_in, thin):
    """The checks ``run_chains`` makes on its scalar arguments besides S."""
    if variant not in MCMC_VARIANTS:
        raise ConfigurationError(f"unknown MCMC variant {variant!r}")
    if not (n_iter > burn_in >= 0):
        raise ConfigurationError("need n_iter > burn_in >= 0")
    if thin < 1:
        raise ConfigurationError("thin must be >= 1")


def run_chains(model, kernel, t_y, S, variant, proposal, n_iter, burn_in, chains, *,
               thin=1, init=None, init_budget=100_000,
               on_iteration: Optional[Callable[[MoveRecord], None]] = None):
    """Run C chains in lockstep; returns one ``McmcOutput`` per (seed, chain_id) pair.

    Chain k lives on the substream (seed, "mcmc", "chain", chain_id) of
    ``chains[k]`` and draws what it draws alone, in the same order: the
    proposal; then, only inside the prior's support, its simulation, the fresh
    re-simulation and the uniform.  The batch is one ``AugmentedState`` with
    rows (C, ...); a lone chain has no leading axis (numpy scalars are cheaper
    than (1,) arrays).  A row whose proposal leaves the support has log prior
    -inf and is rejected by ``mh_move``.  ``init`` starts every chain at one
    theta.  Each iteration with a live proposal hands ``on_iteration`` its
    ``MoveRecord``.
    """
    check_bundle_size(S)
    check_arguments(variant, n_iter, burn_in, thin)
    if proposal.kind == "random-walk":  # the default step, resolved once per run
        proposal = replace(proposal, step_sd=proposal.step(model))
    try:
        streams = [(seed, "mcmc", "chain", operator.index(k)) for seed, k in chains]
        rngs = [substream(*stream) for stream in streams]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"chains must be (seed, chain_id) integer pairs: {exc}") from None
    if not rngs:
        raise ConfigurationError("chains must hold at least one (seed, chain_id) pair")
    C = len(rngs)
    count, draw, origin = ((bool, rngs[0], streams[0]) if C == 1
                           else (np.count_nonzero, rngs, streams))
    states = [initialize_chain(model, kernel, t_y, S, rng, init, init_budget, stream)
              for rng, stream in zip(rngs, streams)]
    state = states[0] if C == 1 else AugmentedState(*map(np.array, zip(*(
        (s.theta, s.bundle, s.log_prior, s.log_pooled) for s in states))))
    symmetric = proposal.symmetric
    kept = np.arange(burn_in + 1, n_iter + 1, thin, dtype=np.int64)
    kept_thetas, kept_lognums = np.empty((kept.size, C, model.param_dim)), np.empty((kept.size, C))
    flags = np.zeros((n_iter + 1, C), dtype=bool)
    for n in range(1, n_iter + 1):
        theta_prop = proposal.sample(state.theta, model, draw)
        # the support check's value is the proposal's log prior
        log_prior_prop = model.prior_logdensity(theta_prop)
        live = log_prior_prop > -np.inf
        if count(live):
            prop = propose(model, kernel, t_y, S, theta_prop, draw, origin, n, state.bundle,
                           log_prior_prop)
            if variant == FRESH_DENOMINATOR:
                # latest estimate at the current parameters, in the rows with a live proposal
                fresh = propose(model, kernel, t_y, S, state.theta, draw, origin, n, state.bundle,
                                state.log_prior if count(live) == C  # lone: True == 1
                                else np.where(live, state.log_prior, -np.inf))
                fresh.log_prior, state = state.log_prior, fresh  # its log prior, unmasked
            u = (draw.random() if C == 1 else  # uniform()'s draw, without its 0 + 1 * x
                 np.array([rng.random() if ok else 1.0 for rng, ok in zip(rngs, live)]))
            curr = state
            state, log_ratio, accepted = mh_move(curr, prop, symmetric, u)
            if on_iteration is not None:
                on_iteration(MoveRecord(n, prop, curr, log_ratio, u, accepted))
            flags[n] = accepted
        if n > burn_in and (n - burn_in - 1) % thin == 0:
            j = (n - burn_in - 1) // thin
            kept_thetas[j], kept_lognums[j] = state.theta, state.log_num
    return [McmcOutput(kept.copy(), kept_thetas[:, k].copy(), flags[kept, k],
                       kept_lognums[:, k].copy(), int(np.count_nonzero(flags[:, k])) / n_iter,
                       variant, n_iter) for k in range(C)]


def run_mcmc(model, kernel, t_y, S, variant, proposal, n_iter, burn_in, seed, *,
             init=None, thin=1, chain_id=0, init_budget=100_000,
             on_iteration: Optional[Callable[[MoveRecord], None]] = None):
    """Run one chain; returns the post-burn-in, thinned trajectory.

    The whole chain lives on the substream (seed, "mcmc", "chain", chain_id),
    so independent chains on distinct ids are reproducible regardless of
    scheduling.  It is ``run_chains`` on that one chain; its records hold scalars.
    """
    return run_chains(model, kernel, t_y, S, variant, proposal, n_iter, burn_in,
                      [(seed, chain_id)], thin=thin, init=init, init_budget=init_budget,
                      on_iteration=on_iteration)[0]
