"""Command line entry point: `lfs {reject,mcmc,smc,experiment,validate-config}`.

Configuration precedence: built-in defaults < config file (--config) < CLI
flags.  Every sampler run writes a CSV (with the exact config echoed in
'#'-prefixed header lines) and a JSON summary next to it.  The default output
directory is $LFS_OUT_DIR when set.

Exit codes: 0 success; 1 statistical failure (a failed experiment verdict or
particle collapse); 2 configuration error; 3 proposal budget exhaustion.
"""

import argparse
import os
import sys

import numpy as np

from .config import RunConfig
from .diagnostics import ks_statistic, weighted_moments
from .errors import (BudgetExhaustedError, CapabilityError, ConfigurationError,
                     DomainError, ParticleCollapseError)
from .experiments import EXPERIMENTS
from .kernels import KERNEL_KINDS
from .mcmc import MCMC_VARIANTS, PROPOSAL_KINDS, run_mcmc
from .models import MODEL_NAMES
from .output import (resolve_out_path, summary_path_for, write_json_summary,
                     write_samples_csv)
from .rejection import MAX_WORKERS, run_rejection
from .smc import SMC_VARIANTS, run_smc

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _add_common(parser):
    parser.add_argument("--config", help="config file (INI-style sections)")
    parser.add_argument("--seed", type=int, dest="run.seed")
    parser.add_argument("--s", type=int, dest="run.s",
                        help="simulated datasets per proposal/particle")
    parser.add_argument("--t-y", dest="run.t_y", help="observed summary value")
    parser.add_argument("--model", dest="model.name", choices=MODEL_NAMES)
    parser.add_argument("--prior-mean", dest="model.prior_mean")
    parser.add_argument("--prior-sd", dest="model.prior_sd")
    parser.add_argument("--tau", dest="model.tau")
    parser.add_argument("--trials", dest="model.trials")
    parser.add_argument("--kernel", dest="kernel.kind", choices=KERNEL_KINDS)
    parser.add_argument("--h", dest="kernel.h", help="kernel bandwidth")
    parser.add_argument("--distance", dest="kernel.distance")
    parser.add_argument("--distance-weights", dest="kernel.distance_weights")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lfs", description="Likelihood-free rejection/MCMC/SMC sampling suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reject", help="rejection sampler")
    _add_common(p)
    p.add_argument("--n-accept", dest="rejection.n_accept")
    p.add_argument("--budget", dest="rejection.budget")
    p.add_argument("--workers", type=int, default=1,
                   help=f"worker threads, 1 to {MAX_WORKERS} (never affects output)")
    p.add_argument("--block-size", dest="rejection.block_size")
    p.add_argument("--emit-bundles", action="store_true", default=None,
                   dest="rejection.emit_bundles",
                   help="also write accepted bundles to a sidecar CSV")
    p.add_argument("--out", dest="run.out")

    p = sub.add_parser("mcmc", help="MCMC sampler (carried or fresh denominator)")
    _add_common(p)
    p.add_argument("--variant", dest="mcmc.variant", choices=MCMC_VARIANTS)
    p.add_argument("--n-iter", dest="mcmc.n_iter")
    p.add_argument("--burn-in", dest="mcmc.burn_in")
    p.add_argument("--thin", dest="mcmc.thin")
    p.add_argument("--proposal", dest="mcmc.proposal", choices=PROPOSAL_KINDS)
    p.add_argument("--step-sd", dest="mcmc.step_sd")
    p.add_argument("--init", dest="mcmc.init")
    p.add_argument("--out", dest="run.out")

    p = sub.add_parser("smc", help="SMC sampler over a decreasing bandwidth schedule")
    _add_common(p)
    p.add_argument("--variant", dest="smc.variant", choices=SMC_VARIANTS)
    p.add_argument("--h-start", dest="smc.h_start")
    p.add_argument("--h-end", dest="smc.h_end")
    p.add_argument("--steps", dest="smc.steps")
    p.add_argument("--particles", dest="smc.particles")
    p.add_argument("--ess-threshold", dest="smc.ess_threshold")
    p.add_argument("--reject-threshold", dest="smc.reject_threshold")
    p.add_argument("--mutation", dest="smc.mutation", choices=PROPOSAL_KINDS)
    p.add_argument("--step-sd", dest="smc.step_sd")
    p.add_argument("--out", dest="run.out")

    p = sub.add_parser("experiment", help="run a headline experiment")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_common(p)
    p.add_argument("--out", dest="run.out", help="report path (default <name>.json)")

    p = sub.add_parser("validate-config", help="parse and validate a config file")
    p.add_argument("--config", required=True)

    return parser


DEFAULT_OUT = {"reject": "samples.csv", "mcmc": "chain.csv", "smc": "particles.csv"}


def load_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for key, value in vars(args).items():
        if "." in key and value is not None:
            section, name = key.split(".", 1)
            overrides[(section, name)] = value
    cfg.apply_overrides(overrides)
    cfg.validate()
    return cfg


def _write_run(cfg, args, model, kernel, thetas, summary, before=(), after=(),
               weights=None, ks_key="ks_vs_oracle"):
    """Write a run's CSV and summary JSON; returns the CSV path.

    CSV columns: the (name, column) pairs ``before``, the thetas, ``after``;
    integer columns as integers.  The summary gains the posterior moments and,
    if the model has an oracle for ``kernel``, the KS distance to it.
    """
    named = [*before, *((f"theta_{j}", thetas[:, j]) for j in range(thetas.shape[1])), *after]
    config_text = cfg.to_text()
    path = resolve_out_path(cfg.run.out or DEFAULT_OUT[args.command])
    write_samples_csv(path, [name for name, _ in named],
                      np.column_stack([column for _, column in named]), config_text,
                      int_columns=[j for j, (_, column) in enumerate(named)
                                   if column.dtype.kind in "biu"])
    mean, var = weighted_moments(thetas, weights)
    summary.update(posterior_mean=list(mean), posterior_variance=list(var))
    try:
        oracle = model.oracle(cfg.run.t_y, kernel)
    except CapabilityError:
        pass
    else:
        summary[ks_key] = ks_statistic(thetas[:, 0], oracle.cdf, weights)
    write_json_summary(summary_path_for(path), summary, config_text, cfg.run.seed)
    return path


def cmd_reject(args):
    cfg = load_config(args)
    model = cfg.build_model()
    kernel = cfg.build_kernel()
    out = run_rejection(model, kernel, cfg.run.t_y, cfg.run.s, cfg.rejection.n_accept,
                        cfg.run.seed, budget=cfg.rejection.budget,
                        workers=args.workers,
                        block_size=cfg.rejection.block_size)
    path = _write_run(cfg, args, model, kernel, out.thetas, {
        "command": "reject",
        "n_accepted": out.n_accepted,
        "proposals_used": out.proposals_used,
        "acceptance_rate": out.acceptance_rate,
    })
    if cfg.rejection.emit_bundles:
        S, dim = out.bundles.shape[1], out.bundles.shape[2]
        bcols = [f"t{s}_{j}" for s in range(S) for j in range(dim)]
        write_samples_csv(os.path.splitext(path)[0] + ".bundles.csv", bcols,
                          out.bundles.reshape(out.bundles.shape[0], -1), cfg.to_text())
    print(f"accepted {out.n_accepted} of {out.proposals_used} proposals "
          f"(rate {out.acceptance_rate:.4g}) -> {path}")
    return EXIT_OK


def cmd_mcmc(args):
    cfg = load_config(args)
    model = cfg.build_model()
    kernel = cfg.build_kernel()
    init = None if cfg.mcmc.init is None else np.array([cfg.mcmc.init])
    out = run_mcmc(model, kernel, cfg.run.t_y, cfg.run.s, cfg.mcmc.variant,
                   cfg.build_proposal(), cfg.mcmc.n_iter, cfg.mcmc.resolved_burn_in(),
                   cfg.run.seed, init=init, thin=cfg.mcmc.thin,
                   chain_id=cfg.mcmc.chain_id)
    summary = {
        "command": "mcmc",
        "variant": out.variant,
        "acceptance_rate": out.acceptance_rate,
        "kept_samples": int(out.thetas.shape[0]),
    }
    if out.variant == "fresh":
        summary["note"] = "biased reference variant (fresh denominator)"
    path = _write_run(cfg, args, model, kernel, out.thetas, summary,
                      before=[("iteration", out.iterations)],
                      after=[("accepted", out.accepted), ("log_num", out.log_nums)])
    print(f"{out.variant} chain: {out.thetas.shape[0]} kept samples, "
          f"acceptance {out.acceptance_rate:.4g} -> {path}")
    return EXIT_OK


def cmd_smc(args):
    cfg = load_config(args)
    model = cfg.build_model()
    kernel = cfg.build_kernel()
    out = run_smc(model, kernel, cfg.build_schedule(), cfg.run.s, cfg.smc.particles,
                  cfg.smc.variant, cfg.build_mutation(), cfg.run.seed, cfg.run.t_y,
                  ess_threshold=cfg.smc.ess_threshold,
                  reject_threshold=cfg.smc.reject_threshold)
    summary = {
        "command": "smc",
        "variant": out.variant,
        "ess_trace": list(out.ess_trace),
        "acceptance_trace": list(out.acceptance_trace),
        "resampled_steps": list(out.resampled_steps),
        "bandwidths": list(out.schedule.values),
    }
    path = _write_run(cfg, args, model, kernel.with_bandwidth(out.schedule.values[-1]),
                      out.thetas, summary, before=[("particle", np.arange(len(out.thetas)))],
                      after=[("weight", out.weights)], weights=out.weights,
                      ks_key="ks_vs_oracle_at_final_h")
    print(f"{out.variant} SMC: final ESS {out.ess_trace[-1]:.1f} of "
          f"{out.thetas.shape[0]} particles -> {path}")
    return EXIT_OK


def cmd_experiment(args):
    cfg = load_config(args)
    report = EXPERIMENTS[args.name](cfg)
    path = resolve_out_path(cfg.run.out or f"{args.name}.json")
    write_json_summary(path, report, cfg.to_text(), cfg.run.seed)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"experiment {args.name}: {verdict} -> {path}")
    return EXIT_OK if report["passed"] else EXIT_STATISTICAL


def cmd_validate_config(args):
    RunConfig.from_file(args.config).validate()
    print(f"{args.config}: valid")
    return EXIT_OK


COMMANDS = {
    "reject": cmd_reject,
    "mcmc": cmd_mcmc,
    "smc": cmd_smc,
    "experiment": cmd_experiment,
    "validate-config": cmd_validate_config,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigurationError, DomainError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParticleCollapseError as exc:
        print(f"particle collapse: {exc} (step {exc.step})", file=sys.stderr)
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
