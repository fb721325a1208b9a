"""Likelihood-free SMC sampler over a decreasing-bandwidth sequence.

The particle population is pushed through the sequence of smoothed posteriors
indexed by bandwidths h_1 > h_2 > ... > h_n, with two weight formulations:

``joint-move``
    The augmented-space construction: the incremental weight for a mutation
    kernel that leaves the new distribution invariant, paired with its
    time-reversal backward kernel, reduces to the pooled-kernel ratio at the
    two bandwidths evaluated on the *pre-move* particle (reweight-then-move).
    Mutation is one carried-bundle MCMC step per particle.

``backward``
    The population-sampler construction: particles are mutated by a pointwise
    evaluable kernel, receive a fresh bundle, and are weighted by the ratio of
    the fresh marginal estimate to the weighted mutation mixture over the
    previous population.  No estimate of the *previous* step's marginal
    appears anywhere in this weight, which is what makes it unbiased for
    every S >= 1.  Optional probabilistic particle rejection drops low-weight
    particles while preserving expected weight.

Each step's randomness comes from substreams keyed by (seed, "smc", "step",
k, phase); phases execute in a fixed order over particles, so a run is a
deterministic function of the seed.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ParticleCollapseError
from .kernels import _LOG_SQRT_2PI
from .rng import substream
from .target import AugmentedState, MoveRecord, log_quotient, mh_step, simulate_checked

JOINT_MCMC_MOVE = "joint-move"
BACKWARD_KERNEL = "backward"
SMC_VARIANTS = (JOINT_MCMC_MOVE, BACKWARD_KERNEL)

# parent x child pairs per work block of the backward mixture denominator
_MIXTURE_BLOCK_PAIRS = 1 << 16


@dataclass
class BandwidthSchedule:
    """Strictly decreasing, positive bandwidths h_1 > ... > h_n."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ConfigurationError("schedule needs at least one bandwidth")
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ConfigurationError("bandwidths must be positive reals")
        if np.any(np.diff(self.values) >= 0):
            raise ConfigurationError("bandwidths must be strictly decreasing")

    @classmethod
    def geometric(cls, h_start, h_end, n_steps):
        if n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if n_steps == 1:
            return cls(np.array([float(h_end)]))
        if not h_start > h_end > 0:
            raise ConfigurationError("need h_start > h_end > 0")
        return cls(np.geomspace(h_start, h_end, n_steps))

    @property
    def n_steps(self):
        return self.values.size


@dataclass
class SmcVariantSpec:
    kind: str
    rejection_threshold: Optional[float] = None

    def __post_init__(self):
        if self.kind not in SMC_VARIANTS:
            raise ConfigurationError(f"unknown SMC variant {self.kind!r}")
        if self.rejection_threshold is not None:
            if self.kind != BACKWARD_KERNEL:
                raise ConfigurationError(
                    "rejection_threshold is only valid for the backward variant")
            if not 0.0 < self.rejection_threshold < 1.0:
                raise ConfigurationError("rejection_threshold must lie in (0, 1)")


@dataclass
class SmcOutput:
    thetas: np.ndarray             # (N, param_dim)
    weights: np.ndarray            # normalized
    log_weights: np.ndarray        # normalized, log scale
    ess_trace: np.ndarray          # per step, length n_steps
    acceptance_trace: np.ndarray   # joint-move mutation acceptance per step (k >= 2)
    resampled_steps: np.ndarray
    schedule: BandwidthSchedule
    variant: str
    seed: int


def ess(weights):
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    return 1.0 / float(np.sum(w * w))


def normalize_log_weights(log_w, step=None):
    """Normalized linear weights from log weights; fails loudly on collapse or NaN."""
    m = float(np.max(log_w))
    if math.isnan(m):  # np.max propagates any NaN
        raise ParticleCollapseError("NaN particle log weight", step=step)
    if m == -np.inf:
        raise ParticleCollapseError("all particle weights are zero", step=step)
    w = np.exp(log_w - m)
    return w / np.sum(w)


def systematic_indices(weights, rng):
    """Systematic resampling: offspring indices with E[count_i] = N * w_i.

    One uniform positions an equally spaced comb over the cumulative weights;
    with exactly uniform weights every particle gets exactly one offspring.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    positions = (rng.uniform() + np.arange(n)) / n
    cum = np.cumsum(w)
    cum[-1] = 1.0  # guard against roundoff at the top
    return np.searchsorted(cum, positions)


def incremental_weight_joint(log_pooled_new, log_pooled_prev):
    """Reduced joint-space incremental weight: pooled-kernel ratio on the pre-move bundle.

    With a mutation kernel invariant for the new distribution and its
    time-reversal as backward kernel, everything else in the general form
    cancels and the weight is the bandwidth-tightening factor alone, from the
    pre-move bundles' log pooled kernel at the new and the previous bandwidth,
    vectorized over particles.  -inf when the tightened kernel kills the particle.
    """
    return log_quotient(log_pooled_new, log_pooled_prev)


def incremental_weight_joint_general(log_pooled_new, log_prior_new, log_backward,
                                     log_pooled_prev, log_prior_prev, log_forward):
    """General augmented-space incremental weight, log scale.

    numerator   = pooled(h_new) * prior(theta_new) * L(theta_new -> theta_prev)
    denominator = pooled(h_prev) * prior(theta_prev) * M(theta_prev -> theta_new)

    This single expression is what both the marginal-estimate bookkeeping and
    the joint-density bookkeeping assemble; the simulator factors cancel
    between target and factorized mutation kernel and never appear.
    Vectorized over particles.
    """
    num = (log_pooled_new + log_prior_new) + log_backward
    den = (log_pooled_prev + log_prior_prev) + log_forward
    return log_quotient(num, den)


def mixture_logdensity(prev_thetas, prev_log_weights, new_thetas, mutation, model):
    """log sum_j W_j M(theta_j -> theta'), vectorized over the new points.

    ``prev_log_weights`` are normalized log weights.  For the prior-independence
    mutation the mixture collapses to the prior density.

    The random-walk mixture is an exact log-sum-exp over every parent with a
    nonzero weight: no term is truncated or approximated.  It runs over
    blocks of new points, so memory is O(N_prev + M): besides copies of the
    inputs it holds at most two work buffers of max(``_MIXTURE_BLOCK_PAIRS``,
    N_prev) doubles, 512 KiB each up to N_prev = 65,536, whatever M and the
    parameter dimension.  A new point gets -inf exactly when every previous
    weight is zero.
    """
    new_thetas = np.atleast_2d(np.asarray(new_thetas, dtype=float))
    if mutation.kind == "prior":
        return model.prior_logdensity(new_thetas)
    prev_thetas = np.atleast_2d(np.asarray(prev_thetas, dtype=float))
    n_new, d = new_thetas.shape
    step = np.broadcast_to(mutation.resolved(model).step_sd, (d,))
    out = np.full(n_new, -np.inf)
    live = ~np.isneginf(prev_log_weights)
    n_live = int(np.count_nonzero(live))
    if n_live == 0:
        return out
    # coordinates scaled by sqrt(2) * step, so a squared difference is 0.5 * z^2;
    # parents lie along the contiguous axis of every work row
    scale = math.sqrt(2.0) * step
    parents = np.ascontiguousarray((prev_thetas[live] / scale).T)   # (d, N_live)
    children = new_thetas / scale                                    # (M, d)
    log_w = prev_log_weights[live]
    rows = max(1, _MIXTURE_BLOCK_PAIRS // n_live)
    buf = np.empty((min(rows, n_new), n_live))
    tmp = np.empty_like(buf) if d > 1 else None
    with np.errstate(invalid="ignore"):  # only rows whose every term overflows
        for start in range(0, n_new, rows):
            child = children[start:start + rows]
            b = buf[:child.shape[0]]
            np.subtract(child[:, :1], parents[0], out=b)
            np.multiply(b, b, out=b)
            for k in range(1, d):
                t = tmp[:child.shape[0]]
                np.subtract(child[:, k:k + 1], parents[k], out=t)
                np.multiply(t, t, out=t)
                b += t
            b -= log_w                      # minus the log terms, log W_j - 0.5 z^2
            low = np.min(b, axis=1)         # minus each row's largest term
            np.subtract(low[:, np.newaxis], b, out=b)
            np.exp(b, out=b)
            out[start:start + child.shape[0]] = np.where(
                np.isposinf(low), -np.inf, np.log(np.sum(b, axis=1)) - low)
    return out - (np.sum(np.log(step)) + d * _LOG_SQRT_2PI)


def incremental_weight_backward(new_thetas, log_num_new, prev_thetas, prev_log_weights,
                                mutation, model):
    """Backward-kernel (mixture-denominator) incremental weights, log scale.

    ``log_num_new`` (M,) holds the fresh marginal estimates at new_thetas
    (M, param_dim).  The denominator is the mutation mixture over the previous
    population with normalized log weights — no simulator call and no estimate
    of the previous step's marginal is involved.
    """
    log_mix = mixture_logdensity(prev_thetas, prev_log_weights, new_thetas, mutation, model)
    if np.any((log_mix == -np.inf) & (log_num_new > -np.inf)):
        raise ParticleCollapseError("mutation mixture vanished: every previous weight is zero")
    return log_quotient(log_num_new, log_mix)


@dataclass
class ParticleSystem:
    """Weighted particle population with its bandwidth-schedule position."""

    thetas: np.ndarray             # (N, param_dim)
    bundles: np.ndarray            # (N, S, summary_dim)
    log_weights: np.ndarray
    log_pooled: np.ndarray         # at the current bandwidth
    log_prior: np.ndarray
    k: int

    def normalized_weights(self):
        return normalize_log_weights(self.log_weights, step=self.k)

    def replace(self, rows, thetas, bundles, log_pooled, log_prior):
        """Overwrite the selected rows (accepted or mutated particles) in place."""
        self.thetas[rows] = thetas[rows]
        self.bundles[rows] = bundles[rows]
        self.log_pooled[rows] = log_pooled[rows]
        self.log_prior[rows] = log_prior[rows]

    def resample(self, indices):
        self.thetas = self.thetas[indices]
        self.bundles = self.bundles[indices]
        self.log_pooled = self.log_pooled[indices]
        self.log_prior = self.log_prior[indices]
        self.log_weights = np.full(len(indices), -math.log(len(indices)))


def apply_particle_rejection(weights, threshold, rng):
    """Probabilistic rejection of low-weight particles, unbiased in expectation.

    Normalized weight w below c/N survives with probability w*N/c and is
    boosted to c/N; otherwise it becomes exactly zero (the particle is dead
    until the next resample replaces it).  E[new weight] = w either way.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    cutoff = threshold / n
    u = rng.uniform(size=n)
    below = w < cutoff
    survive = u * cutoff < w
    return np.where(below, np.where(survive, cutoff, 0.0), w)


def run_smc(model, kernel, schedule, S, N, variant, mutation, seed, t_y, *,
            ess_threshold=0.5,
            on_mutation: Optional[Callable[[MoveRecord], None]] = None):
    """Run the SMC sampler; returns the final weighted population at h_n.

    Parameters
    ----------
    kernel : SmoothingKernel
        Supplies the kind and summary distance; its bandwidth is overridden
        by the schedule at every step.
    variant : SmcVariantSpec or str
        "joint-move" or "backward" (optionally with a rejection threshold).
    mutation : ProposalSpec
        MCMC proposal (joint-move) / mutation kernel (backward).
    ess_threshold : float in (0, 1]
        Resample whenever ESS < ess_threshold * N.
    on_mutation : callable, optional
        Called with each joint-move step's ``MoveRecord``.  The backward
        variant makes no MH move, so passing it there is a ConfigurationError.
    """
    if isinstance(variant, str):
        variant = SmcVariantSpec(variant)
    if N < 2:
        raise ConfigurationError("need at least two particles")
    if S < 1:
        raise ConfigurationError("S must be >= 1")
    if not 0.0 < ess_threshold <= 1.0:
        raise ConfigurationError("ess_threshold must lie in (0, 1]")
    if on_mutation is not None and variant.kind != JOINT_MCMC_MOVE:
        raise ConfigurationError("on_mutation records MH moves; only joint-move SMC makes them")
    mutation = mutation.resolved(model)
    hs = schedule.values

    # step 1: prior draws, bundles, weights proportional to the pooled kernel
    rng_init = substream(seed, "smc", "init")
    thetas = model.prior_sample(rng_init, (N,))
    bundles = simulate_checked(model, thetas, S, rng_init)
    log_pooled = kernel.with_bandwidth(hs[0]).log_pooled(t_y, bundles)
    log_prior = model.prior_logdensity(thetas)
    system = ParticleSystem(thetas, bundles, log_pooled.copy(), log_pooled, log_prior, k=1)

    norm_w = system.normalized_weights()
    ess_trace = [ess(norm_w)]
    acceptance_trace = []
    resampled_steps = []

    for k in range(2, schedule.n_steps + 1):
        system.k = k
        kern = kernel.with_bandwidth(hs[k - 1])
        if variant.kind == JOINT_MCMC_MOVE:
            # reweight with the bandwidth-tightening factor on the pre-move bundles
            log_pooled = kern.log_pooled(t_y, system.bundles)
            system.log_weights = system.log_weights + incremental_weight_joint(
                log_pooled, system.log_pooled)
            system.log_pooled = log_pooled
            norm_w = system.normalized_weights()
        else:
            # the pre-resample weighted population is the mixture reference; it is
            # read before replace() below overwrites system.thetas in place
            prev_thetas = system.thetas
            with np.errstate(divide="ignore"):
                prev_logw = np.log(norm_w)

        if ess(norm_w) < ess_threshold * N:
            idx = systematic_indices(norm_w, substream(seed, "smc", "step", k, "resample"))
            system.resample(idx)
            norm_w = system.normalized_weights()
            resampled_steps.append(k)

        # one proposal per particle; rows outside the prior keep their bundle
        rng = substream(seed, "smc", "step", k, "mutate")
        thetas = mutation.sample(system.thetas, model, rng)
        log_prior = model.prior_logdensity(thetas)
        live = log_prior > -np.inf
        bundles = system.bundles.copy()
        bundles[live] = simulate_checked(model, thetas[live], S, rng)
        log_pooled = np.where(live, kern.log_pooled(t_y, bundles), -np.inf)

        if variant.kind == JOINT_MCMC_MOVE:
            # one carried-bundle MH step per particle, invariant for the new target
            log_num_prop = log_pooled + log_prior
            log_num = system.log_pooled + system.log_prior
            u = rng.uniform(size=N)
            log_ratio, accept = mh_step(log_num_prop, log_num,
                                        mutation.log_q_ratio(system.thetas, thetas, model), u)
            accept &= live
            if on_mutation is not None:
                on_mutation(MoveRecord(
                    k, AugmentedState(thetas[live], bundles[live], log_num_prop[live]),
                    AugmentedState(system.thetas[live], system.bundles[live], log_num[live]),
                    log_ratio[live], u[live], accept[live]))
            system.replace(accept, thetas, bundles, log_pooled, log_prior)
            acceptance_trace.append(float(np.mean(accept)))
        else:
            incr = incremental_weight_backward(thetas, log_pooled + log_prior,
                                               prev_thetas, prev_logw, mutation, model)
            system.replace(slice(None), thetas, bundles, log_pooled, log_prior)
            system.log_weights = system.log_weights + incr
            norm_w = system.normalized_weights()
            if variant.rejection_threshold is not None:
                thresholded = apply_particle_rejection(
                    norm_w, variant.rejection_threshold,
                    substream(seed, "smc", "step", k, "threshold"))
                with np.errstate(divide="ignore"):
                    system.log_weights = np.log(thresholded)
                norm_w = system.normalized_weights()
        ess_trace.append(ess(norm_w))

    with np.errstate(divide="ignore"):
        log_norm = np.log(norm_w)
    return SmcOutput(
        thetas=system.thetas, weights=norm_w, log_weights=log_norm,
        ess_trace=np.asarray(ess_trace), acceptance_trace=np.asarray(acceptance_trace),
        resampled_steps=np.asarray(resampled_steps, dtype=np.int64),
        schedule=schedule, variant=variant.kind, seed=seed,
    )
