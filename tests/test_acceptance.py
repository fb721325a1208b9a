"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Seeds are fixed; every tolerance is the criterion's
stated one.
"""

import math
import time

import numpy as np
from scipy import stats

from helpers import CountingModel
from lfs.config import RunConfig
from lfs.diagnostics import ks_critical_value, ks_statistic
from lfs.experiments import (cross_sampler_table, dual_bookkeeping_mcmc,
                             dual_bookkeeping_smc, experiment_mcwm_bias,
                             experiment_s_invariance)
from lfs.kernels import SmoothingKernel
from lfs.mcmc import ProposalSpec
from lfs.models import BernoulliCountModel, NormalMeanModel
from lfs.rejection import run_rejection
from lfs.rng import substream
from lfs.smc import (BACKWARD_KERNEL, BandwidthSchedule,
                     incremental_weight_backward, run_smc)
from lfs.target import joint_logdensity_unnorm, simulate_checked

SEED = 20260810


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def _base_config():
    cfg = RunConfig()
    cfg.run.seed = SEED
    return cfg


def test_ac1_rejection_correctness():
    t0 = time.time()
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    out = run_rejection(model, kernel, 0.0, 1, 50_000, seed=SEED)
    elapsed = time.time() - t0
    x = out.thetas[:, 0]
    se = math.sqrt(2.0 / 3.0 / x.size)
    mean_ok = abs(x.mean()) < 3.0 * se
    var_ok = abs(x.var() / (2.0 / 3.0) - 1.0) < 0.05
    time_ok = elapsed < 30.0
    _verdict("AC1 rejection correctness (mean within 3 SE, variance within 5%)",
             mean_ok and var_ok and time_ok,
             f"mean={x.mean():+.5f} (3SE={3 * se:.5f}), var={x.var():.5f} "
             f"(target 2/3), {elapsed:.1f}s")


def test_ac2_algorithmic_equivalence():
    cfg = _base_config()
    mcmc_rep = dual_bookkeeping_mcmc(cfg)
    smc_rep = dual_bookkeeping_smc(cfg)
    iter_ok = mcmc_rep["iterations"] == 10_000 and smc_rep["moves_checked"] >= 10_000
    zero_ok = (mcmc_rep["max_discrepancy"] == 0.0
               and mcmc_rep["max_mismatch_with_production"] == 0.0
               and smc_rep["max_discrepancy"] == 0.0)
    _verdict("AC2 algorithmic equivalence (dual bookkeeping, discrepancy exactly 0)",
             zero_ok and iter_ok,
             f"mcmc max={mcmc_rep['max_discrepancy']!r} over {mcmc_rep['iterations']} "
             f"iters; smc max={smc_rep['max_discrepancy']!r} over "
             f"{smc_rep['moves_checked']} moves")


def test_ac3_s_invariance():
    t0 = time.time()
    report = experiment_s_invariance(_base_config())
    elapsed = time.time() - t0
    worst = min(report["tests"].values(), key=lambda t: t["p_value"])
    _verdict("AC3 S-invariance (pairwise KS at level 0.01, 2e4 samples each)",
             report["passed"] and elapsed < 300.0,
             f"min p={worst['p_value']:.3f} over {len(report['tests'])} tests, "
             f"{elapsed:.0f}s")


def test_ac4_finite_s_bias():
    t0 = time.time()
    report = experiment_mcwm_bias(_base_config())
    elapsed = time.time() - t0
    fresh = report["fresh"]
    carried = report["carried"]
    fresh_worse_at_1 = (fresh["mean_ks_by_s"]["1"] > fresh["mean_ks_by_s"]["100"]
                        and fresh["diff_ci99"][0] > 0.0)
    carried_flat = carried["diff_ci99"][0] <= 0.0 <= carried["diff_ci99"][1]
    _verdict("AC4 finite-S bias (fresh KS larger at S=1; carried shows no trend)",
             fresh_worse_at_1 and carried_flat and elapsed < 600.0,
             f"fresh KS {fresh['mean_ks_by_s']['1']:.4f}->"
             f"{fresh['mean_ks_by_s']['100']:.4f} CI99 {fresh['diff_ci99']}; "
             f"carried CI99 {carried['diff_ci99']}; {elapsed:.0f}s")


def test_ac5_unbiasedness_of_marginal_estimate():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    rel_errors = {}
    for theta in (0.0, 0.5, 1.0):
        rng = substream(SEED, "ac5", int(theta * 2))
        total = 0.0
        n = 100_000
        # one batched call draws the n replicates a loop of n one-row calls drew
        thetas = np.full((n, 1), theta)
        bundles = simulate_checked(model, thetas, 1, rng)
        lv = joint_logdensity_unnorm(thetas, bundles, 0.0, kernel, model)
        for v in lv.tolist():
            total += math.exp(v)
        exact = (math.exp(model.prior_logdensity([theta]))
                 * math.exp(float(model.smoothed_loglik(np.array([theta]), 0.0, kernel)[0])))
        rel_errors[theta] = abs(total / n / exact - 1.0)
    ok = all(err < 0.01 for err in rel_errors.values())
    _verdict("AC5 unbiased marginal estimator (1e5 replicates within 1% of quadrature)",
             ok, "rel errs " + ", ".join(f"theta={t}: {e:.4f}"
                                         for t, e in rel_errors.items()))


def test_ac6_backward_weight_denominator_freedom():
    model = CountingModel(NormalMeanModel())
    kernel = SmoothingKernel("gaussian", 1.0)
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 8)
    n_particles, s = 400, 2
    run_smc(model, kernel, schedule, s, n_particles, BACKWARD_KERNEL, ProposalSpec(),
            seed=SEED, t_y=0.0)
    expected = n_particles * s * schedule.n_steps
    count_ok = model.n_summaries == expected
    before = (model.n_calls, model.n_summaries)
    for _ in range(100):
        incremental_weight_backward(np.array([[0.2]]), np.array([-1.0]),
                                    np.array([[0.0], [0.3]]), np.log([0.5, 0.5]),
                                    ProposalSpec("random-walk", 0.5), model)
    denominator_ok = (model.n_calls, model.n_summaries) == before
    _verdict("AC6 backward-weight denominator freedom (exactly S sims/particle/step)",
             count_ok and denominator_ok,
             f"{model.n_summaries} summaries == {expected}; "
             f"denominator simulator calls: 0")


def test_ac7_cross_sampler_consistency():
    t0 = time.time()
    report = cross_sampler_table(_base_config())
    elapsed = time.time() - t0
    margins = []
    for cell in report["table"].values():
        for pair in cell["pairs"].values():
            margins.append(pair["mean_tolerance"] - pair["mean_gap"])
            margins.append(pair["variance_tolerance"] - pair["variance_gap"])
    _verdict("AC7 cross-sampler consistency (moments within 3x combined SE, S in {1,5})",
             report["ok"] and elapsed < 600.0,
             f"worst margin {min(margins):+.4f}, {elapsed:.0f}s")


def test_ac8_determinism(tmp_path, monkeypatch):
    from lfs import cli

    recipes = {
        "reject": (["reject", "--n-accept", "2000", "--seed", "17", "--out", "a.csv"],
                   ["reject", "--n-accept", "2000", "--seed", "17", "--out", "a.csv",
                    "--workers", "4"]),
        "mcmc": (["mcmc", "--n-iter", "4000", "--seed", "17", "--out", "a.csv"],) * 2,
        "smc": (["smc", "--particles", "400", "--steps", "6", "--h-start", "2.0",
                 "--h-end", "0.5", "--seed", "17", "--out", "a.csv"],) * 2,
    }
    all_ok = True
    details = []
    for name, (args1, args2) in recipes.items():
        blobs = []
        for i, argv in enumerate((args1, args2)):
            out_dir = tmp_path / f"{name}{i}"
            out_dir.mkdir()
            monkeypatch.setenv("LFS_OUT_DIR", str(out_dir))
            assert cli.main(list(argv)) == 0
            blobs.append((out_dir / "a.csv").read_bytes()
                         + (out_dir / "a.summary.json").read_bytes())
        same = blobs[0] == blobs[1]
        all_ok = all_ok and same
        details.append(f"{name}:{'=' if same else '!='}")
    _verdict("AC8 determinism (byte-identical CSV/JSON, incl. worker counts)",
             all_ok, " ".join(details))


def test_ac9_discrete_model_exactness():
    model = BernoulliCountModel(trials=20)
    kernel = SmoothingKernel("uniform", 0.5)
    t_y = 6.0
    out = run_rejection(model, kernel, t_y, 1, 10_000, seed=SEED)
    ks = ks_statistic(out.thetas[:, 0], stats.beta(7.0, 15.0).cdf)
    crit = ks_critical_value(10_000, 0.01)
    _verdict("AC9 discrete-model exactness (KS vs Beta(t_y+1, m-t_y+1) at level 0.01)",
             ks < crit, f"KS={ks:.4f} < crit={crit:.4f}")
