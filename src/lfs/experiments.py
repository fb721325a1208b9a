"""The three headline experiments.

``equivalence``   — instruments the dual bookkeeping of the MCMC acceptance
                    ratio (marginal-estimate reading vs joint-density reading)
                    and of the SMC incremental weight (marginal assembly vs
                    factorized joint assembly) on real sampler runs, and
                    cross-checks all four samplers' moments against each other.
``mcwm-bias``     — shows the fresh-denominator (Monte Carlo within
                    Metropolis) chain drifting from the target for small S
                    while the carried-bundle chain does not.
``s-invariance``  — shows the rejection and carried-bundle MCMC marginal
                    output distribution does not depend on S.

Each experiment returns a JSON-serializable report with a top-level
``passed`` flag.
"""

import numpy as np

from .diagnostics import (bootstrap_mean_diff_ci, ks_2sample_permutation,
                          ks_statistic, weighted_moments)
from .mcmc import CARRIED_BUNDLE, FRESH_DENOMINATOR, ProposalSpec, run_mcmc
from .rejection import run_rejection
from .rng import derive_seed, substream
from .smc import (BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule,
                  incremental_weight_joint_general, run_smc)
from .target import joint_logdensity_unnorm, mh_step


def _ratio_or_neginf(num, den):
    if num == -np.inf and den == -np.inf:
        return -np.inf
    return num - den


def _discrepancy(a, b):
    return 0.0 if a == b else abs(a - b)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def dual_bookkeeping_mcmc(config, seed=None):
    """Run a carried-bundle chain assembling the acceptance ratio both ways.

    Marginal reading: ratio of Monte Carlo marginal estimates (each the value
    of the target function on a simulated bundle).  Joint reading: ratio of
    augmented joint densities with the simulator factors cancelled.  Both
    readings are assembled from the same per-iteration quantities through the
    single shared code path, so the discrepancy must be exactly zero.
    """
    model = config.build_model()
    kernel = config.build_kernel()
    proposal = config.build_proposal().resolved(model)
    t_y = config.run.t_y
    seed = config.run.seed if seed is None else seed
    n_iter = config.experiment.equivalence_iters

    worst = {"value": 0.0, "iteration": None}
    mismatch_with_production = {"value": 0.0, "iteration": None}

    def check(rec):
        prop, curr = rec.prop, rec.curr
        lhat_prop = joint_logdensity_unnorm(prop.theta, prop.bundle, t_y, kernel, model)
        lhat_curr = joint_logdensity_unnorm(curr.theta, curr.bundle, t_y, kernel, model)
        log_q_ratio = proposal.log_q_ratio(curr.theta, prop.theta, model)
        ratio_marginal = float(mh_step(lhat_prop, lhat_curr, log_q_ratio, rec.u)[0])
        num_prop = joint_logdensity_unnorm(prop.theta, prop.bundle, t_y, kernel, model)
        num_curr = joint_logdensity_unnorm(curr.theta, curr.bundle, t_y, kernel, model)
        ratio_joint = float(mh_step(num_prop, num_curr, log_q_ratio, rec.u)[0])
        d = _discrepancy(ratio_marginal, ratio_joint)
        if d > worst["value"]:
            worst.update(value=d, iteration=rec.iteration)
        p = _discrepancy(ratio_marginal, rec.log_ratio)
        if p > mismatch_with_production["value"]:
            mismatch_with_production.update(value=p, iteration=rec.iteration)

    run_mcmc(model, kernel, t_y, config.run.s, CARRIED_BUNDLE, proposal,
             n_iter, 0, seed, chain_id=config.mcmc.chain_id, on_iteration=check)
    return {
        "iterations": n_iter,
        "max_discrepancy": worst["value"],
        "worst_iteration": worst["iteration"],
        "max_mismatch_with_production": mismatch_with_production["value"],
    }


def dual_bookkeeping_smc(config, seed=None):
    """Joint-move SMC run assembling each mutation move's incremental weight
    both ways (marginal-estimate grouping vs factorized-joint grouping)."""
    model = config.build_model()
    kernel = config.build_kernel()
    mutation = config.build_mutation().resolved(model)
    t_y = config.run.t_y
    seed = config.run.seed if seed is None else seed
    n_particles = config.experiment.equivalence_particles
    n_steps = config.experiment.equivalence_steps
    schedule = BandwidthSchedule.geometric(4.0 * config.kernel.h, config.kernel.h, n_steps)

    worst = {"value": 0.0, "step": None}
    count = {"n": 0}

    def check(rec):
        count["n"] += 1
        kern_new = kernel.with_bandwidth(rec.h_new)
        kern_prev = kernel.with_bandwidth(rec.h_prev)
        log_m = float(mutation.logdensity(rec.theta_curr, rec.theta_prop, model))
        log_l = float(mutation.logdensity(rec.theta_prop, rec.theta_curr, model))
        # marginal bookkeeping: estimates of the two smoothed marginals
        lhat_new = joint_logdensity_unnorm(rec.theta_prop, rec.bundle_prop,
                                           t_y, kern_new, model)
        lhat_prev = joint_logdensity_unnorm(rec.theta_curr, rec.bundle_curr,
                                            t_y, kern_prev, model)
        w_marginal = _ratio_or_neginf(lhat_new + log_l, lhat_prev + log_m)
        # joint bookkeeping: pooled kernel and prior assembled separately
        w_joint = incremental_weight_joint_general(
            float(kern_new.log_pooled(t_y, rec.bundle_prop)),
            float(model.prior_logdensity(rec.theta_prop)), log_l,
            float(kern_prev.log_pooled(t_y, rec.bundle_curr)),
            float(model.prior_logdensity(rec.theta_curr)), log_m)
        d = _discrepancy(w_marginal, w_joint)
        if d > worst["value"]:
            worst.update(value=d, step=rec.step)

    run_smc(model, kernel, schedule, config.run.s, n_particles, JOINT_MCMC_MOVE,
            mutation, seed, t_y, ess_threshold=config.smc.ess_threshold,
            on_mutation=check)
    return {
        "moves_checked": count["n"],
        "max_discrepancy": worst["value"],
        "worst_step": worst["step"],
    }


def _sampler_moments(config, sampler, S, seed):
    """One replicate of one sampler; returns (mean, variance) of the output."""
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    exp = config.experiment
    if sampler == "rejection":
        out = run_rejection(model, kernel, t_y, S, exp.cross_samples, seed,
                            budget=config.rejection.budget)
        mean, var = weighted_moments(out.thetas)
    elif sampler == "mcmc-carried":
        n_iter = exp.cross_mcmc_iters
        out = run_mcmc(model, kernel, t_y, S, CARRIED_BUNDLE, config.build_proposal(),
                       n_iter, n_iter // 10, seed)
        mean, var = weighted_moments(out.thetas)
    else:
        variant = JOINT_MCMC_MOVE if sampler == "smc-joint" else BACKWARD_KERNEL
        schedule = BandwidthSchedule.geometric(4.0 * config.kernel.h, config.kernel.h,
                                               exp.cross_smc_steps)
        out = run_smc(model, kernel, schedule, S, exp.cross_smc_particles, variant,
                      config.build_mutation(), seed, t_y,
                      ess_threshold=config.smc.ess_threshold)
        mean, var = weighted_moments(out.thetas, out.weights)
    return float(mean[0]), float(var[0])


CROSS_SAMPLERS = ("rejection", "mcmc-carried", "smc-joint", "smc-backward")


def cross_sampler_table(config, seed=None):
    """All four samplers on the same target: moments must agree pairwise
    within 3x combined (replicate-based) standard errors, for each S."""
    seed = config.run.seed if seed is None else seed
    exp = config.experiment
    table = {}
    all_ok = True
    for S in exp.cross_s_grid:
        cell = {}
        for sampler in CROSS_SAMPLERS:
            stats = [_sampler_moments(config, sampler, S,
                                      derive_seed(seed, "cross", sampler, S, r))
                     for r in range(exp.cross_replicates)]
            means = np.array([s[0] for s in stats])
            variances = np.array([s[1] for s in stats])
            cell[sampler] = {
                "mean": float(means.mean()),
                "mean_se": float(means.std(ddof=1) / np.sqrt(means.size)),
                "variance": float(variances.mean()),
                "variance_se": float(variances.std(ddof=1) / np.sqrt(variances.size)),
            }
        pairs = {}
        for i, a in enumerate(CROSS_SAMPLERS):
            for b in CROSS_SAMPLERS[i + 1:]:
                mean_tol = 3.0 * float(np.hypot(cell[a]["mean_se"], cell[b]["mean_se"]))
                var_tol = 3.0 * float(np.hypot(cell[a]["variance_se"], cell[b]["variance_se"]))
                mean_gap = abs(cell[a]["mean"] - cell[b]["mean"])
                var_gap = abs(cell[a]["variance"] - cell[b]["variance"])
                ok = bool(mean_gap <= mean_tol and var_gap <= var_tol)
                pairs[f"{a}|{b}"] = {
                    "mean_gap": mean_gap, "mean_tolerance": mean_tol,
                    "variance_gap": var_gap, "variance_tolerance": var_tol,
                    "ok": ok,
                }
                all_ok = all_ok and ok
        table[f"S={S}"] = {"samplers": cell, "pairs": pairs}
    return {"table": table, "ok": all_ok}


def experiment_equivalence(config, seed=None):
    """Dual-bookkeeping discrepancies (must be exactly zero) plus the
    cross-sampler moment comparison over the configured S grid."""
    mcmc_part = dual_bookkeeping_mcmc(config, seed)
    smc_part = dual_bookkeeping_smc(config, seed)
    cross = cross_sampler_table(config, seed)
    passed = (mcmc_part["max_discrepancy"] == 0.0
              and mcmc_part["max_mismatch_with_production"] == 0.0
              and smc_part["max_discrepancy"] == 0.0
              and cross["ok"])
    return {
        "experiment": "equivalence",
        "passed": bool(passed),
        "mcmc": mcmc_part,
        "smc": smc_part,
        "cross_sampler": cross,
    }


# ---------------------------------------------------------------------------
# mcwm-bias
# ---------------------------------------------------------------------------

def experiment_mcwm_bias(config, seed=None):
    """KS-to-oracle distances of fresh-denominator vs carried-bundle chains
    across the S grid; the fresh chain must improve with S, the carried chain
    must show no trend."""
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    seed = config.run.seed if seed is None else seed
    exp = config.experiment
    oracle = model.oracle(t_y, kernel)
    proposal = ProposalSpec("random-walk", exp.bias_step_sd)

    n_iter = exp.bias_iters
    burn = n_iter // 10
    rows = {}
    for variant in (FRESH_DENOMINATOR, CARRIED_BUNDLE):
        per_s = {}
        for S in exp.bias_s_grid:
            distances = []
            for chain in range(exp.bias_chains):
                out = run_mcmc(model, kernel, t_y, S, variant, proposal, n_iter, burn,
                               derive_seed(seed, "bias", variant, S, chain),
                               thin=exp.bias_thin, chain_id=chain)
                distances.append(ks_statistic(out.thetas[:, 0], oracle.cdf))
            per_s[S] = distances
        rows[variant] = per_s

    s_lo, s_hi = min(exp.bias_s_grid), max(exp.bias_s_grid)
    boot_rng = substream(seed, "bias", "bootstrap")
    fresh_lo, fresh_hi = bootstrap_mean_diff_ci(
        rows[FRESH_DENOMINATOR][s_lo], rows[FRESH_DENOMINATOR][s_hi], boot_rng,
        level=0.99, n_boot=exp.bootstrap)
    carried_lo, carried_hi = bootstrap_mean_diff_ci(
        rows[CARRIED_BUNDLE][s_lo], rows[CARRIED_BUNDLE][s_hi], boot_rng,
        level=0.99, n_boot=exp.bootstrap)

    fresh_means = {S: float(np.mean(v)) for S, v in rows[FRESH_DENOMINATOR].items()}
    carried_means = {S: float(np.mean(v)) for S, v in rows[CARRIED_BUNDLE].items()}
    fresh_degrades_at_small_s = fresh_lo > 0.0
    carried_no_trend = carried_lo <= 0.0 <= carried_hi
    monotone = all(fresh_means[a] >= fresh_means[b]
                   for a, b in zip(exp.bias_s_grid, exp.bias_s_grid[1:]))
    large_s_ratio = fresh_means[s_hi] / carried_means[s_hi]

    return {
        "experiment": "mcwm-bias",
        "passed": bool(fresh_degrades_at_small_s and carried_no_trend),
        "s_grid": list(exp.bias_s_grid),
        "chains_per_s": exp.bias_chains,
        "fresh": {
            "mean_ks_by_s": {str(S): fresh_means[S] for S in exp.bias_s_grid},
            "ks_by_s": {str(S): rows[FRESH_DENOMINATOR][S] for S in exp.bias_s_grid},
            "diff_ci99": [fresh_lo, fresh_hi],
            "monotone_decreasing": bool(monotone),
            "label": "biased reference variant (fresh denominator)",
        },
        "carried": {
            "mean_ks_by_s": {str(S): carried_means[S] for S in exp.bias_s_grid},
            "ks_by_s": {str(S): rows[CARRIED_BUNDLE][S] for S in exp.bias_s_grid},
            "diff_ci99": [carried_lo, carried_hi],
        },
        "large_s_fresh_to_carried_ratio": float(large_s_ratio),
    }


# ---------------------------------------------------------------------------
# s-invariance
# ---------------------------------------------------------------------------

def experiment_s_invariance(config, seed=None):
    """Pairwise permutation KS tests between the S-populations of the
    rejection and carried-bundle MCMC samplers, plus a same-S control."""
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    seed = config.run.seed if seed is None else seed
    exp = config.experiment
    n = exp.sinv_samples
    level = exp.level

    populations = {"rejection": {}, "mcmc-carried": {}}
    acceptance = {"rejection": {}, "mcmc-carried": {}}
    proposal = ProposalSpec("random-walk", exp.sinv_step_sd)
    for S in exp.sinv_s_grid:
        rej = run_rejection(model, kernel, t_y, S, n,
                            derive_seed(seed, "sinv", "rejection", S),
                            budget=config.rejection.budget)
        populations["rejection"][S] = rej.thetas[:, 0]
        acceptance["rejection"][S] = rej.acceptance_rate
        n_iter = n * exp.sinv_mcmc_thin
        chain = run_mcmc(model, kernel, t_y, S, CARRIED_BUNDLE, proposal,
                         n_iter + n_iter // 10, n_iter // 10,
                         derive_seed(seed, "sinv", "mcmc", S), thin=exp.sinv_mcmc_thin)
        populations["mcmc-carried"][S] = chain.thetas[:n, 0]
        acceptance["mcmc-carried"][S] = chain.acceptance_rate

    tests = {}
    all_pass = True
    for sampler, pops in populations.items():
        grid = list(pops)
        for i, a in enumerate(grid):
            for b in grid[i + 1:]:
                rng = substream(seed, "sinv", "perm", sampler, a, b)
                stat, pval = ks_2sample_permutation(pops[a], pops[b], rng,
                                                    n_perm=exp.permutations)
                ok = bool(pval > level)
                tests[f"{sampler}:S={a}|S={b}"] = {
                    "statistic": stat, "p_value": pval, "ok": ok}
                all_pass = all_pass and ok

    # null-case control: same sampler, same S, independent seeds
    s0 = exp.sinv_s_grid[0]
    control = run_rejection(model, kernel, t_y, s0, n,
                            derive_seed(seed, "sinv", "control", s0),
                            budget=config.rejection.budget)
    rng = substream(seed, "sinv", "perm", "control")
    stat, pval = ks_2sample_permutation(populations["rejection"][s0],
                                        control.thetas[:, 0], rng,
                                        n_perm=exp.permutations)
    control_ok = bool(pval > level)
    tests["control:rejection-replicate"] = {
        "statistic": stat, "p_value": pval, "ok": control_ok}

    return {
        "experiment": "s-invariance",
        "passed": bool(all_pass and control_ok),
        "level": level,
        "samples_per_population": n,
        "tests": tests,
        "acceptance_rates": {
            sampler: {str(S): float(rate) for S, rate in by_s.items()}
            for sampler, by_s in acceptance.items()
        },
    }


EXPERIMENTS = {
    "equivalence": experiment_equivalence,
    "mcwm-bias": experiment_mcwm_bias,
    "s-invariance": experiment_s_invariance,
}
