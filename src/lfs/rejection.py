"""Generalized likelihood-free rejection sampler for any S >= 1.

Each proposal draws a parameter from the prior and a bundle of S summaries
from the simulator, then accepts with probability equal to the pooled kernel
value divided by the kernel's supremum — the tightest dominating constant, so
"accept with probability proportional to the pooled kernel" becomes a genuine
probability without wasting acceptances.  Accepted (theta, bundle) pairs are
exact joint-target draws, so the thetas alone are exact draws from the
smoothed marginal posterior, for every S.

Work is split into fixed-size proposal blocks, each on its own substream
keyed by (seed, "reject", "block", b).  Blocks may be evaluated by any number
of worker threads but are consumed strictly in block order, so the output is
byte-identical for every worker count.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, ConfigurationError
from .rng import substream
from .target import simulate_checked

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 10**8
DEFAULT_BLOCK_SIZE = 4096


@dataclass
class RejectionOutput:
    """Accepted draws plus the proposal bookkeeping behind them."""

    thetas: np.ndarray            # (n_accept, param_dim)
    bundles: np.ndarray           # (n_accept, S, summary_dim)
    proposals_used: int
    seed: int = 0

    @property
    def n_accepted(self):
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self):
        return self.n_accepted / self.proposals_used


def _evaluate_block(model, kernel, t_y, S, seed, block, block_size):
    """Propose one block on its own substream; returns (thetas, bundles, accept mask)."""
    rng = substream(seed, "reject", "block", block)
    thetas = model.prior_sample(rng, (block_size,))
    bundles = simulate_checked(model, thetas, S, rng)
    pooled = kernel.pooled_evaluate(t_y, bundles)
    u = rng.uniform(size=block_size)
    return thetas, bundles, u * kernel.sup_value() < pooled


def run_rejection(model, kernel, t_y, S, n_accept, seed, *,
                  budget=DEFAULT_BUDGET, workers=1, block_size=DEFAULT_BLOCK_SIZE,
                  log_every=2_000_000):
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
        Worker threads evaluating proposal blocks; does not affect output.

    Raises
    ------
    BudgetExhaustedError
        If the proposal budget runs out first.
    """
    if n_accept < 1:
        raise ConfigurationError("n_accept must be >= 1")
    if S < 1:
        raise ConfigurationError("S must be >= 1")
    if workers < 1 or block_size < 1 or budget < 1:
        raise ConfigurationError("workers, block_size and budget must be positive")

    acc_thetas, acc_bundles = [], []
    n_found = 0
    proposals_used = 0
    next_log = log_every

    def finish(final_block, within):
        nonlocal proposals_used
        proposals_used = final_block * block_size + within
        thetas = np.concatenate(acc_thetas)[:n_accept]
        bundles = np.concatenate(acc_bundles)[:n_accept]
        return RejectionOutput(thetas=thetas, bundles=bundles,
                               proposals_used=proposals_used, seed=seed)

    def handle(block, result):
        """Consume one block (in order). Returns output when n_accept is reached."""
        nonlocal n_found, next_log
        thetas, bundles, accept = result
        allowed = min(block_size, budget - block * block_size)
        accept = accept[:allowed]
        idx = np.flatnonzero(accept)
        if idx.size:
            acc_thetas.append(thetas[idx])
            acc_bundles.append(bundles[idx])
            n_found += idx.size
        if n_found >= n_accept:
            # position (1-based) of the n_accept-th acceptance inside this block
            last_needed = idx[idx.size - (n_found - n_accept) - 1]
            return finish(block, int(last_needed) + 1)
        done = block * block_size + allowed
        if done >= next_log:
            next_log += log_every
            logger.info("rejection: %d proposals, %d/%d accepted", done, n_found, n_accept)
        return None

    n_blocks = -(-budget // block_size)  # ceil

    if workers == 1:
        for block in range(n_blocks):
            out = handle(block, _evaluate_block(model, kernel, t_y, S, seed, block, block_size))
            if out is not None:
                return out
    else:
        window = 2 * workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = {
                b: pool.submit(_evaluate_block, model, kernel, t_y, S, seed, b, block_size)
                for b in range(min(window, n_blocks))
            }
            block = 0
            while block < n_blocks:
                result = pending.pop(block).result()
                nxt = block + len(pending) + 1
                if nxt < n_blocks:
                    pending[nxt] = pool.submit(
                        _evaluate_block, model, kernel, t_y, S, seed, nxt, block_size)
                out = handle(block, result)
                if out is not None:
                    for fut in pending.values():
                        fut.cancel()
                    return out
                block += 1

    raise BudgetExhaustedError(
        f"rejection budget of {budget} proposals exhausted with "
        f"{n_found}/{n_accept} acceptances",
        proposals_used=budget, accepted=n_found)
