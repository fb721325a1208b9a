"""Generalized likelihood-free rejection sampler for any S >= 1.

Each proposal draws a parameter from the prior and a bundle of S summaries
from the simulator, then accepts with probability equal to the pooled kernel
value divided by the kernel's supremum — the tightest dominating constant, so
"accept with probability proportional to the pooled kernel" becomes a genuine
probability without wasting acceptances.  Accepted (theta, bundle) pairs are
exact joint-target draws, so the thetas alone are exact draws from the
smoothed marginal posterior, for every S.

Work is split into fixed-size proposal blocks, each on its own substream
keyed by (seed, "reject", "block", b).  One loop consumes the blocks
strictly in block order for every worker count, so the output is
byte-identical for every worker count.  With one worker each block is
evaluated as the loop reaches it; with more, a pool of ``workers`` threads
evaluates up to ``2 * workers`` blocks ahead.
"""

import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, ConfigurationError
from .rng import substream
from .target import check_bundle_size, propose

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 10**8
DEFAULT_BLOCK_SIZE = 4096
LOG_EVERY = 2_000_000  # proposals between progress log lines
MAX_WORKERS = 64  # the pool starts up to one thread per worker


@dataclass
class RejectionOutput:
    """Accepted draws plus the proposal bookkeeping behind them."""

    thetas: np.ndarray            # (n_accept, param_dim)
    bundles: np.ndarray           # (n_accept, S, summary_dim)
    proposals_used: int

    @property
    def n_accepted(self):
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self):
        return self.n_accepted / self.proposals_used


def _evaluate_block(model, kernel, t_y, S, seed, block, block_size):
    """Propose one block on its own substream; returns (thetas, bundles, accept mask)."""
    rng = substream(seed, "reject", "block", block)
    prop = propose(model, kernel, t_y, S, model.prior_sample(rng, (block_size,)), rng)
    u = rng.uniform(size=block_size)
    with np.errstate(divide="ignore"):  # u = 0 gives log 0 = -inf: accepted, as u * sup < pooled
        accept = np.log(u) + np.log(kernel.sup_value()) < prop.log_pooled
    return prop.theta, prop.bundle, accept


def _in_block_order(pool, evaluate, n_blocks, ahead):
    """``evaluate(b)`` for b = 0, 1, ... in order, with up to ``ahead`` blocks in flight."""
    pending = deque()
    for block in range(n_blocks):
        for nxt in range(block + len(pending), min(block + ahead, n_blocks)):
            pending.append(pool.submit(evaluate, nxt))
        yield pending.popleft().result()


def check_arguments(n_accept, budget, block_size, workers):
    """The checks ``run_rejection`` makes on its scalar arguments besides S."""
    if n_accept < 1:
        raise ConfigurationError("n_accept must be >= 1")
    if block_size < 1 or budget < 1:
        raise ConfigurationError("block_size and budget must be positive")
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")


def run_rejection(model, kernel, t_y, S, n_accept, seed, *,
                  budget=DEFAULT_BUDGET, workers=1, block_size=DEFAULT_BLOCK_SIZE):
    """Run the rejection sampler until ``n_accept`` acceptances.

    Parameters
    ----------
    model, kernel, t_y : target ingredients.
    S : int
        Simulated datasets per proposal.
    n_accept : int
        Number of accepted draws to return.
    seed : int
        Run seed; output is a deterministic function of it.
    budget : int
        Maximum proposals before failing loudly (small bandwidths can make
        acceptance arbitrarily rare; the sampler must not hang).
    workers : int
        Worker threads evaluating proposal blocks, 1..``MAX_WORKERS``; does
        not affect output.

    Raises
    ------
    BudgetExhaustedError
        If the proposal budget runs out first.
    """
    check_bundle_size(S)
    check_arguments(n_accept, budget, block_size, workers)

    def evaluate(block):
        return _evaluate_block(model, kernel, t_y, S, seed, block, block_size)

    acc_thetas, acc_bundles = [], []
    n_found = 0
    next_log = LOG_EVERY
    n_blocks = -(-budget // block_size)  # ceil
    pool = ThreadPoolExecutor(max_workers=workers)
    # a lone pool thread would add thread handoffs to every block and gain nothing
    results = (map(evaluate, range(n_blocks)) if workers == 1
               else _in_block_order(pool, evaluate, n_blocks, 2 * workers))
    try:
        for block, (thetas, bundles, accept) in enumerate(results):
            allowed = min(block_size, budget - block * block_size)
            idx = np.flatnonzero(accept[:allowed])
            if idx.size:
                acc_thetas.append(thetas[idx])
                acc_bundles.append(bundles[idx])
                n_found += idx.size
            if n_found >= n_accept:
                # position (1-based) of the n_accept-th acceptance inside this block
                within = int(idx[idx.size - (n_found - n_accept) - 1]) + 1
                return RejectionOutput(thetas=np.concatenate(acc_thetas)[:n_accept],
                                       bundles=np.concatenate(acc_bundles)[:n_accept],
                                       proposals_used=block * block_size + within)
            done = block * block_size + allowed
            if done >= next_log:
                next_log += LOG_EVERY
                logger.info("rejection: %d proposals, %d/%d accepted", done, n_found, n_accept)
    finally:
        pool.shutdown(cancel_futures=True)  # waits for running blocks: no thread outlives the call

    raise BudgetExhaustedError(
        f"rejection budget of {budget} proposals exhausted with "
        f"{n_found}/{n_accept} acceptances",
        proposals_used=budget, accepted=n_found)
