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

from itertools import combinations

import numpy as np

from .diagnostics import (bootstrap_mean_diff_ci, ks_2sample_permutation,
                          ks_statistic, weighted_moments)
from .errors import ConfigurationError
from .mcmc import (CARRIED_BUNDLE, FRESH_DENOMINATOR, FRESH_LABEL, ProposalSpec,
                   check_arguments as check_mcmc, run_chains, run_mcmc)
from .rejection import check_arguments as check_rejection, run_rejection
from .rng import derive_seed, substream
from .smc import (BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule,
                  check_arguments as check_smc, incremental_weight_joint_general, run_smc)
from .target import check_s_grid, joint_logdensity_unnorm, log_quotient, mh_step


def _at_least(exp, **floors):
    """The rules on [experiment] sizes that no sampler owns: each key at least its floor."""
    for key, floor in floors.items():
        if getattr(exp, key) < floor:
            raise ConfigurationError(f"{key} must be >= {floor}")


# Each experiment's checks on the [experiment] keys it reads, made on entry and by
# ``RunConfig.validate``.  A size handed to a sampler goes through that sampler's own
# check, with its other arguments at valid values (their own sections are checked).

def check_equivalence(config):
    exp = config.experiment
    # a standard error needs two replicates; a one-step joint-move run makes no move
    _at_least(exp, cross_replicates=2, equivalence_steps=2)
    check_s_grid("cross_s_grid", exp.cross_s_grid)
    check_mcmc(CARRIED_BUNDLE, exp.equivalence_iters, 0, 1)
    check_mcmc(CARRIED_BUNDLE, exp.cross_mcmc_iters, exp.cross_mcmc_iters // 10, 1)
    check_smc(JOINT_MCMC_MOVE, exp.equivalence_particles, 1.0)
    check_smc(BACKWARD_KERNEL, exp.cross_smc_particles, 1.0)
    BandwidthSchedule.geometric(4.0, 1.0, exp.cross_smc_steps)
    check_rejection(exp.cross_samples, 1, 1, 1)


def check_mcwm_bias(config):
    exp = config.experiment
    _at_least(exp, bootstrap=1)
    check_s_grid("bias_s_grid", exp.bias_s_grid)
    ProposalSpec("random-walk", exp.bias_step_sd)
    check_mcmc(FRESH_DENOMINATOR, exp.bias_iters, exp.bias_iters // 10, exp.bias_thin,
               exp.bias_chains)


def check_s_invariance(config):
    exp = config.experiment
    _at_least(exp, permutations=1)  # no permutation gives every test p = 1
    if not 0 < exp.level < 1:
        raise ConfigurationError("level must lie in (0, 1)")
    check_s_grid("sinv_s_grid", exp.sinv_s_grid)
    ProposalSpec("random-walk", exp.sinv_step_sd)
    check_rejection(exp.sinv_samples, 1, 1, 1)
    n_iter = exp.sinv_samples * exp.sinv_mcmc_thin
    check_mcmc(CARRIED_BUNDLE, n_iter + n_iter // 10, n_iter // 10, exp.sinv_mcmc_thin)


def _max_discrepancy(a, b):
    """Largest |a - b| over the entries; equal values, infinities included, give 0."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(a == b, 0.0, np.abs(np.subtract(a, b))), initial=0.0))


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def dual_bookkeeping_mcmc(config):
    """Run a carried-bundle chain assembling the acceptance ratio both ways.

    Marginal reading: ratio of Monte Carlo marginal estimates (each the value
    of the target function on a simulated bundle).  Joint reading: ratio of
    augmented joint densities with the simulator factors cancelled.  Both
    readings are assembled from the same per-iteration quantities through the
    single shared code path, so the discrepancy must be exactly zero.
    """
    model = config.build_model()
    kernel = config.build_kernel()
    proposal = config.build_proposal()
    t_y = config.run.t_y
    n_iter = config.experiment.equivalence_iters

    worst = {"value": 0.0, "iteration": None}
    mismatch_with_production = {"value": 0.0, "iteration": None}

    def check(rec):
        lhat_prop = joint_logdensity_unnorm(rec.prop.theta, rec.prop.bundle, t_y, kernel, model)
        lhat_curr = joint_logdensity_unnorm(rec.curr.theta, rec.curr.bundle, t_y, kernel, model)
        log_q_ratio = proposal.log_q_ratio(rec.curr.theta, rec.prop.theta, model)
        ratio_marginal = float(mh_step(lhat_prop, lhat_curr, log_q_ratio, rec.u)[0])
        num_prop = joint_logdensity_unnorm(rec.prop.theta, rec.prop.bundle, t_y, kernel, model)
        num_curr = joint_logdensity_unnorm(rec.curr.theta, rec.curr.bundle, t_y, kernel, model)
        ratio_joint = float(mh_step(num_prop, num_curr, log_q_ratio, rec.u)[0])
        d = _max_discrepancy(ratio_marginal, ratio_joint)
        if d > worst["value"]:
            worst.update(value=d, iteration=rec.step)
        p = _max_discrepancy(ratio_marginal, rec.log_ratio)
        if p > mismatch_with_production["value"]:
            mismatch_with_production.update(value=p, iteration=rec.step)

    run_mcmc(model, kernel, t_y, config.run.s, CARRIED_BUNDLE, proposal,
             n_iter, 0, config.run.seed, chain_id=config.mcmc.chain_id, on_iteration=check)
    return {
        "iterations": n_iter,
        "max_discrepancy": worst["value"],
        "worst_iteration": worst["iteration"],
        "max_mismatch_with_production": mismatch_with_production["value"],
    }


def dual_bookkeeping_smc(config):
    """Joint-move SMC run assembling each mutation move's incremental weight
    both ways (marginal-estimate grouping vs factorized-joint grouping), one
    step's moves at a time."""
    model = config.build_model()
    kernel = config.build_kernel()
    mutation = config.build_mutation()
    t_y = config.run.t_y
    n_particles = config.experiment.equivalence_particles
    n_steps = config.experiment.equivalence_steps
    schedule = BandwidthSchedule.geometric(4.0 * config.kernel.h, config.kernel.h, n_steps)

    worst = {"value": 0.0, "step": None}
    count = {"n": 0}

    def check(rec):
        count["n"] += rec.accepted.size
        kern_new = kernel.with_bandwidth(schedule.values[rec.step - 1])
        kern_prev = kernel.with_bandwidth(schedule.values[rec.step - 2])
        log_m = mutation.logdensity(rec.curr.theta, rec.prop.theta, model)
        log_l = mutation.logdensity(rec.prop.theta, rec.curr.theta, model)
        # marginal bookkeeping: estimates of the two smoothed marginals
        lhat_new = joint_logdensity_unnorm(rec.prop.theta, rec.prop.bundle,
                                           t_y, kern_new, model)
        lhat_prev = joint_logdensity_unnorm(rec.curr.theta, rec.curr.bundle,
                                            t_y, kern_prev, model)
        w_marginal = log_quotient(lhat_new + log_l, lhat_prev + log_m)
        # joint bookkeeping: pooled kernel and prior assembled separately
        w_joint = incremental_weight_joint_general(
            kern_new.log_pooled(t_y, rec.prop.bundle),
            model.prior_logdensity(rec.prop.theta), log_l,
            kern_prev.log_pooled(t_y, rec.curr.bundle),
            model.prior_logdensity(rec.curr.theta), log_m)
        d = _max_discrepancy(w_marginal, w_joint)
        if d > worst["value"]:
            worst.update(value=d, step=rec.step)

    run_smc(model, kernel, schedule, config.run.s, n_particles, JOINT_MCMC_MOVE,
            mutation, config.run.seed, t_y, ess_threshold=config.smc.ess_threshold,
            on_mutation=check)
    return {
        "moves_checked": count["n"],
        "max_discrepancy": worst["value"],
        "worst_step": worst["step"],
    }


def _sampler_moments(config, sampler, S, seeds):
    """One replicate of one sampler per seed; returns each one's (mean, variance).

    The carried-MCMC replicates run as one chain batch, replicate r on chain
    (seeds[r], 0).
    """
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    exp = config.experiment
    if sampler == "rejection":
        moments = [weighted_moments(run_rejection(model, kernel, t_y, S, exp.cross_samples, seed,
                                                  budget=config.rejection.budget).thetas)
                   for seed in seeds]
    elif sampler == "mcmc-carried":
        n_iter = exp.cross_mcmc_iters
        outs = run_chains(model, kernel, t_y, S, CARRIED_BUNDLE, config.build_proposal(),
                          n_iter, n_iter // 10, [(seed, 0) for seed in seeds])
        moments = [weighted_moments(out.thetas) for out in outs]
    else:
        variant = JOINT_MCMC_MOVE if sampler == "smc-joint" else BACKWARD_KERNEL
        schedule = BandwidthSchedule.geometric(4.0 * config.kernel.h, config.kernel.h,
                                               exp.cross_smc_steps)
        outs = [run_smc(model, kernel, schedule, S, exp.cross_smc_particles, variant,
                        config.build_mutation(), seed, t_y,
                        ess_threshold=config.smc.ess_threshold) for seed in seeds]
        moments = [weighted_moments(out.thetas, out.weights) for out in outs]
    return [(float(mean[0]), float(var[0])) for mean, var in moments]


CROSS_SAMPLERS = ("rejection", "mcmc-carried", "smc-joint", "smc-backward")
MOMENTS = ("mean", "variance")  # the order of _sampler_moments' pairs


def cross_sampler_table(config):
    """All four samplers on the same target: moments must agree pairwise
    within 3x combined (replicate-based) standard errors, for each S."""
    exp = config.experiment
    check_s_grid("cross_s_grid", exp.cross_s_grid)
    table = {}
    all_ok = True
    for S in exp.cross_s_grid:
        cell = {}
        for sampler in CROSS_SAMPLERS:
            stats = _sampler_moments(config, sampler, S,
                                     [derive_seed(config.run.seed, "cross", sampler, S, r)
                                      for r in range(exp.cross_replicates)])
            cell[sampler] = {}
            for j, moment in enumerate(MOMENTS):
                values = np.array([s[j] for s in stats])
                cell[sampler][moment] = float(values.mean())
                cell[sampler][f"{moment}_se"] = float(values.std(ddof=1) / np.sqrt(values.size))
        pairs = {}
        for a, b in combinations(CROSS_SAMPLERS, 2):
            pair = {}
            for m in MOMENTS:
                pair[f"{m}_gap"] = abs(cell[a][m] - cell[b][m])
                pair[f"{m}_tolerance"] = 3.0 * float(np.hypot(cell[a][f"{m}_se"],
                                                              cell[b][f"{m}_se"]))
            pair["ok"] = all(pair[f"{m}_gap"] <= pair[f"{m}_tolerance"] for m in MOMENTS)
            pairs[f"{a}|{b}"] = pair
            all_ok = all_ok and pair["ok"]
        table[f"S={S}"] = {"samplers": cell, "pairs": pairs}
    return {"table": table, "ok": all_ok}


def experiment_equivalence(config):
    """Dual-bookkeeping discrepancies (must be exactly zero) plus the
    cross-sampler moment comparison over the configured S grid."""
    check_equivalence(config)
    mcmc_part = dual_bookkeeping_mcmc(config)
    smc_part = dual_bookkeeping_smc(config)
    cross = cross_sampler_table(config)
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

def experiment_mcwm_bias(config):
    """KS-to-oracle distances of fresh-denominator vs carried-bundle chains
    across the S grid; the fresh chain must improve with S, the carried chain
    must show no trend."""
    check_mcwm_bias(config)
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    seed = config.run.seed
    exp = config.experiment
    oracle = model.oracle(t_y, kernel)
    proposal = ProposalSpec("random-walk", exp.bias_step_sd)

    grid = exp.bias_s_grid
    boot_rng = substream(seed, "bias", "bootstrap")
    reports = {}
    for variant in (FRESH_DENOMINATOR, CARRIED_BUNDLE):  # boot_rng is drawn fresh-first
        ks = {}
        for S in grid:
            chains = [(derive_seed(seed, "bias", variant, S, chain), chain)
                      for chain in range(exp.bias_chains)]
            outs = run_chains(model, kernel, t_y, S, variant, proposal, exp.bias_iters,
                              exp.bias_iters // 10, chains, thin=exp.bias_thin)
            ks[S] = [ks_statistic(out.thetas[:, 0], oracle.cdf) for out in outs]
        reports[variant] = {
            "mean_ks_by_s": {str(S): float(np.mean(ks[S])) for S in grid},
            "ks_by_s": {str(S): ks[S] for S in grid},
            "diff_ci99": list(bootstrap_mean_diff_ci(ks[grid[0]], ks[grid[-1]], boot_rng,
                                                     level=0.99, n_boot=exp.bootstrap)),
        }

    fresh, carried = reports[FRESH_DENOMINATOR], reports[CARRIED_BUNDLE]
    fresh_means = list(fresh["mean_ks_by_s"].values())
    fresh["monotone_decreasing"] = all(a >= b for a, b in zip(fresh_means, fresh_means[1:]))
    fresh["label"] = FRESH_LABEL
    carried_lo, carried_hi = carried["diff_ci99"]
    return {
        "experiment": "mcwm-bias",
        # the fresh chain degrades at small S; the carried chain shows no trend
        "passed": fresh["diff_ci99"][0] > 0.0 and carried_lo <= 0.0 <= carried_hi,
        "s_grid": list(grid),
        "chains_per_s": exp.bias_chains,
        "fresh": fresh,
        "carried": carried,
        "large_s_fresh_to_carried_ratio":
            fresh_means[-1] / carried["mean_ks_by_s"][str(grid[-1])],
    }


# ---------------------------------------------------------------------------
# s-invariance
# ---------------------------------------------------------------------------

def experiment_s_invariance(config):
    """Pairwise permutation KS tests between the S-populations of the
    rejection and carried-bundle MCMC samplers, plus a same-S control."""
    check_s_invariance(config)
    model = config.build_model()
    kernel = config.build_kernel()
    t_y = config.run.t_y
    seed = config.run.seed
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

    def permutation_test(name, a, b, *path):
        stat, pval = ks_2sample_permutation(a, b, substream(seed, "sinv", "perm", *path),
                                            n_perm=exp.permutations)
        tests[name] = {"statistic": stat, "p_value": pval, "ok": bool(pval > level)}

    for sampler, pops in populations.items():
        for a, b in combinations(pops, 2):
            permutation_test(f"{sampler}:S={a}|S={b}", pops[a], pops[b], sampler, a, b)
    # null-case control: same sampler, same S, independent seeds
    s0 = exp.sinv_s_grid[0]
    control = run_rejection(model, kernel, t_y, s0, n,
                            derive_seed(seed, "sinv", "control", s0),
                            budget=config.rejection.budget)
    permutation_test("control:rejection-replicate", populations["rejection"][s0],
                     control.thetas[:, 0], "control")

    return {
        "experiment": "s-invariance",
        "passed": all(test["ok"] for test in tests.values()),
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
CHECKS = (check_equivalence, check_mcwm_bias, check_s_invariance)
