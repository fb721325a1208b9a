"""End-to-end and per-layer metrics, and the counters the traced run keeps.

Every metric the benchmark can print is declared here with its unit and
direction; ``BENCHMARK.json`` lists the same names.
"""

import inspect
import math
import statistics

from spans import layer_self, summarize, tally

END_TO_END = {
    "setup_s": ("s", "lower"),
    "draws_per_s": ("draws/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "op_s.tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "mcmc.iters": ("count", "higher"),
    "mcmc.carried.us_per_iter": ("us", "lower"),
    "mcmc.fresh.us_per_iter": ("us", "lower"),
    "mcmc.self_s": ("s", "lower"),
    "mcmc.acceptance_rate": ("fraction", "higher"),
    "mcmc.proposal_sample.self_s": ("s", "lower"),
    "mcmc.proposal_logdensity.calls": ("count", "lower"),
    "mcmc.proposal_logdensity.self_s": ("s", "lower"),
    "models.simulate.calls": ("count", "lower"),
    "models.simulate.summaries": ("count", "higher"),
    "models.simulate.ns_per_summary": ("ns", "lower"),
    "models.prior_logdensity.calls": ("count", "lower"),
    "models.prior_logdensity.self_s": ("s", "lower"),
    "target.joint_logdensity_unnorm.calls": ("count", "lower"),
    "target.joint_logdensity_unnorm.self_s": ("s", "lower"),
    "kernels.log_pooled.calls": ("count", "lower"),
    "kernels.log_pooled.summaries": ("count", "higher"),
    "kernels.log_pooled.ns_per_summary": ("ns", "lower"),
    "smc.mixture_logdensity.pairs": ("count", "higher"),
    "smc.mixture_logdensity.ns_per_pair": ("ns", "lower"),
    "smc.mixture_logdensity.self_s": ("s", "lower"),
    "smc.backward.us_per_particle_step": ("us", "lower"),
    "smc.self_s": ("s", "lower"),
    "smc.joint-move.us_per_particle_step": ("us", "lower"),
    "smc.final_ess_frac": ("fraction", "higher"),
    "smc.resample_frac": ("fraction", "lower"),
    "smc.mutation_acceptance": ("fraction", "higher"),
    "kernels.pooled_evaluate.calls": ("count", "lower"),
    "kernels.pooled_evaluate.summaries": ("count", "higher"),
    "kernels.pooled_evaluate.ns_per_summary": ("ns", "lower"),
    "models.simulate_batch.calls": ("count", "lower"),
    "models.simulate_batch.summaries": ("count", "higher"),
    "models.simulate_batch.ns_per_summary": ("ns", "lower"),
    "rng.substream.calls": ("count", "lower"),
    "rng.substream.self_s": ("s", "lower"),
    "rejection.proposals": ("count", "higher"),
    "rejection.self_s": ("s", "lower"),
    "rejection.acceptance_rate": ("fraction", "higher"),
    "rejection.1w.ns_per_proposal": ("ns", "lower"),
    "rejection.2w.ns_per_proposal": ("ns", "lower"),
    "rejection.speedup_2w": ("ratio", "higher"),
    "rejection.worker_busy_frac": ("fraction", "higher"),
    "rejection.block_yield": ("fraction", "higher"),
    "output.write_samples_csv.cells": ("count", "higher"),
    "output.write_samples_csv.ns_per_cell": ("ns", "lower"),
    "output.write_samples_csv.self_s": ("s", "lower"),
    "output.write_json_summary.self_s": ("s", "lower"),
    "models.oracle.calls": ("count", "lower"),
    "models.oracle.self_s": ("s", "lower"),
    "diagnostics.ks_statistic.calls": ("count", "lower"),
    "diagnostics.ks_statistic.self_s": ("s", "lower"),
    "diagnostics.bootstrap.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.verdict_fail": ("count", "lower"),
    "config.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


# -- end-to-end ------------------------------------------------------------------

def tail(durations):
    """(value, percentile) at the highest percentile with >= 10 ops beyond it.

    That is the 11th-largest duration; the percentile is the share of ops at
    or below it.  With 10 or fewer ops nothing has ten beyond it, and the
    maximum is reported at percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(durations, draws, wall_s, setup_samples, peak_rss_mb):
    tail_s, pct = tail(durations)
    return {
        "setup_s": statistics.median(setup_samples),
        "draws_per_s": draws / wall_s,
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }, pct


# -- counters kept by the wrappers ----------------------------------------------

def _summaries(bundle):
    """Summary vectors in a bundle of shape (S,), (S, d) or (..., S, d)."""
    shape = getattr(bundle, "shape", None)
    if shape is None or len(shape) < 2:
        return max(1, int(getattr(bundle, "size", 1)))
    return int(bundle.size // shape[-1])


def counters(lfs):
    """Per-span-name hooks ``(counts, args, kwargs, result, seconds) -> None``."""
    rejection_signature = inspect.signature(lfs.rejection.run_rejection)
    default_block = lfs.rejection.DEFAULT_BLOCK_SIZE

    def simulate(c, a, k, r, d):
        tally(c, "models.simulate.summaries", r.shape[0])

    def simulate_batch(c, a, k, r, d):
        tally(c, "models.simulate_batch.summaries", r.shape[0] * r.shape[1])

    def kernel(name):
        def hook(c, a, k, r, d):
            tally(c, f"kernels.{name}.summaries", _summaries(a[2]))
        return hook

    def mixture(c, a, k, r, d):
        new = a[2]
        rows = new.shape[0] if getattr(new, "ndim", 0) >= 2 else 1
        tally(c, "smc.mixture_logdensity.pairs", len(a[0]) * rows)

    def substream(c, a, k, r, d):
        if a[1:3] == ("reject", "block"):
            tally(c, "rejection.blocks_evaluated", 1)

    def run_rejection(c, a, k, r, d):
        args = rejection_signature.bind(*a, **k).arguments
        workers = args.get("workers", 1)
        block = args.get("block_size", default_block)
        tally(c, "rejection.proposals", r.proposals_used)
        tally(c, "rejection.accepted", r.n_accepted)
        tally(c, "rejection.blocks_consumed", -(-r.proposals_used // block))
        tally(c, "rejection.capacity_s", workers * d)
        tag = "1w" if workers == 1 else "2w" if workers == 2 else f"{workers}w"
        tally(c, f"rejection.{tag}.s", d)
        tally(c, f"rejection.{tag}.proposals", r.proposals_used)

    def run_mcmc(c, a, k, r, d):
        tally(c, "mcmc.iters", r.n_iter)
        tally(c, "mcmc.accepted", round(r.acceptance_rate * r.n_iter))
        tally(c, f"mcmc.{r.variant}.s", d)
        tally(c, f"mcmc.{r.variant}.iters", r.n_iter)

    def run_smc(c, a, k, r, d):
        n = r.thetas.shape[0]
        steps = len(r.ess_trace)
        tally(c, f"smc.{r.variant}.s", d)
        tally(c, f"smc.{r.variant}.particle_steps", n * steps)
        tally(c, "smc.runs", 1)
        tally(c, "smc.final_ess_frac_sum", float(r.ess_trace[-1]) / n)
        tally(c, "smc.transitions", steps - 1)
        tally(c, "smc.resampled", len(r.resampled_steps))
        tally(c, "smc.mutation_steps", len(r.acceptance_trace))
        tally(c, "smc.mutation_acceptance_sum", float(sum(r.acceptance_trace)))

    def write_samples_csv(c, a, k, r, d):
        tally(c, "output.write_samples_csv.cells", a[2].size)

    return {
        "models.simulate": simulate,
        "models.simulate_batch": simulate_batch,
        "kernels.log_pooled": kernel("log_pooled"),
        "kernels.pooled_evaluate": kernel("pooled_evaluate"),
        "smc.mixture_logdensity": mixture,
        "rng.substream": substream,
        "rejection.run_rejection": run_rejection,
        "mcmc.run_mcmc": run_mcmc,
        "smc.run_smc": run_smc,
        "output.write_samples_csv": write_samples_csv,
    }


# -- per-layer -------------------------------------------------------------------

def ratio(num, den, scale=1.0):
    """num / den * scale, or 0.0 when the layer did no work on this workload."""
    return scale * num / den if den else 0.0


def block_yield(blocks_consumed, blocks_evaluated):
    """Share of evaluated rejection blocks whose proposals were used."""
    return ratio(blocks_consumed, blocks_evaluated)


def per_layer(spans, names, counts, traced_wall_s, untraced_wall_s, verdict_fail):
    s = summarize(spans, names)
    c = counts.get

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def us_per(key, unit_key):
        return ratio(c(key, 0), c(unit_key, 0), 1e6)

    m = {
        "mcmc.iters": c("mcmc.iters", 0),
        "mcmc.carried.us_per_iter": us_per("mcmc.carried.s", "mcmc.carried.iters"),
        "mcmc.fresh.us_per_iter": us_per("mcmc.fresh.s", "mcmc.fresh.iters"),
        "mcmc.self_s": layer_self(s, "mcmc"),
        "mcmc.acceptance_rate": ratio(c("mcmc.accepted", 0), c("mcmc.iters", 0)),
        "mcmc.proposal_sample.self_s": own("mcmc.proposal_sample"),
        "mcmc.proposal_logdensity.calls": calls("mcmc.proposal_logdensity"),
        "mcmc.proposal_logdensity.self_s": own("mcmc.proposal_logdensity"),
        "smc.mixture_logdensity.pairs": c("smc.mixture_logdensity.pairs", 0),
        "smc.mixture_logdensity.ns_per_pair": ratio(
            own("smc.mixture_logdensity"), c("smc.mixture_logdensity.pairs", 0), 1e9),
        "smc.mixture_logdensity.self_s": own("smc.mixture_logdensity"),
        "smc.backward.us_per_particle_step": us_per("smc.backward.s",
                                                    "smc.backward.particle_steps"),
        "smc.self_s": layer_self(s, "smc"),
        "smc.joint-move.us_per_particle_step": us_per("smc.joint-move.s",
                                                      "smc.joint-move.particle_steps"),
        "smc.final_ess_frac": ratio(c("smc.final_ess_frac_sum", 0), c("smc.runs", 0)),
        "smc.resample_frac": ratio(c("smc.resampled", 0), c("smc.transitions", 0)),
        "smc.mutation_acceptance": ratio(c("smc.mutation_acceptance_sum", 0),
                                         c("smc.mutation_steps", 0)),
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.self_s": own("rng.substream"),
        "rejection.proposals": c("rejection.proposals", 0),
        "rejection.self_s": layer_self(s, "rejection"),
        "rejection.acceptance_rate": ratio(c("rejection.accepted", 0),
                                           c("rejection.proposals", 0)),
        "rejection.1w.ns_per_proposal": ratio(c("rejection.1w.s", 0),
                                              c("rejection.1w.proposals", 0), 1e9),
        "rejection.2w.ns_per_proposal": ratio(c("rejection.2w.s", 0),
                                              c("rejection.2w.proposals", 0), 1e9),
        "rejection.worker_busy_frac": ratio(
            s.get("rejection.block", {}).get("total_s", 0.0), c("rejection.capacity_s", 0)),
        "rejection.block_yield": block_yield(c("rejection.blocks_consumed", 0),
                                             c("rejection.blocks_evaluated", 0)),
        "output.write_samples_csv.cells": c("output.write_samples_csv.cells", 0),
        "output.write_samples_csv.ns_per_cell": ratio(
            own("output.write_samples_csv"), c("output.write_samples_csv.cells", 0), 1e9),
        "output.write_samples_csv.self_s": own("output.write_samples_csv"),
        "output.write_json_summary.self_s": own("output.write_json_summary"),
        "diagnostics.ks_statistic.calls": calls("diagnostics.ks_statistic"),
        "diagnostics.ks_statistic.self_s": own("diagnostics.ks_statistic"),
        "diagnostics.bootstrap.self_s": own("diagnostics.bootstrap_mean_diff_ci"),
        "experiments.self_s": layer_self(s, "experiments"),
        "experiments.verdict_fail": verdict_fail,
        "config.self_s": layer_self(s, "config"),
        "cli.self_s": layer_self(s, "cli"),
        "trace.overhead_frac": ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
    m["rejection.speedup_2w"] = ratio(m["rejection.1w.ns_per_proposal"],
                                      m["rejection.2w.ns_per_proposal"])
    for name in ("models.simulate", "models.simulate_batch", "kernels.log_pooled",
                 "kernels.pooled_evaluate"):
        summaries = c(f"{name}.summaries", 0)
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.summaries"] = summaries
        m[f"{name}.ns_per_summary"] = ratio(own(name), summaries, 1e9)
    for name in ("models.prior_logdensity", "target.joint_logdensity_unnorm",
                 "models.oracle"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    return {k: m[k] for k in PER_LAYER}, s


def evidence(summary, traced_wall_s):
    """The trace shares ROADMAP item 1 asks for (recorded, not gated)."""
    total_self = math.fsum(v["self_s"] for v in summary.values())
    top = max(summary.items(), key=lambda kv: kv[1]["self_s"])[0] if summary else ""
    mcmc_path = (layer_self(summary, "mcmc") + layer_self(summary, "target")
                 + summary.get("models.simulate", {}).get("self_s", 0.0)
                 + summary.get("kernels.log_pooled", {}).get("self_s", 0.0))
    return {
        "largest_self_time": top,
        "mixture_share_of_self_time": ratio(
            summary.get("smc.mixture_logdensity", {}).get("self_s", 0.0), total_self),
        "mcmc_path_share_of_wall": ratio(mcmc_path, traced_wall_s),
        "self_s_by_layer": {layer: layer_self(summary, layer) for layer in sorted(
            {k.split(".", 1)[0] for k in summary})},
    }
