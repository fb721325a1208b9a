import json
import math

import numpy as np
import pytest

from lfs.config import RunConfig
from lfs.diagnostics import weighted_moments
from lfs.experiments import (EXPERIMENTS, cross_sampler_table,
                             dual_bookkeeping_mcmc, dual_bookkeeping_smc,
                             experiment_s_invariance)
from lfs.kernels import SmoothingKernel
from lfs.mcmc import PROPOSAL_KINDS, ProposalSpec
from lfs.models import NormalMeanModel
from lfs.smc import BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule, run_smc


def small_config():
    cfg = RunConfig()
    cfg.run.seed = 99
    cfg.experiment.equivalence_iters = 1500
    cfg.experiment.equivalence_particles = 120
    cfg.experiment.equivalence_steps = 6
    cfg.experiment.cross_replicates = 3
    cfg.experiment.cross_samples = 800
    cfg.experiment.cross_mcmc_iters = 4000
    cfg.experiment.cross_smc_particles = 300
    cfg.experiment.cross_smc_steps = 5
    cfg.experiment.sinv_s_grid = (1, 5)
    cfg.experiment.sinv_samples = 3000
    cfg.experiment.sinv_mcmc_thin = 8
    cfg.experiment.permutations = 199
    return cfg


def test_registry_names():
    assert set(EXPERIMENTS) == {"equivalence", "mcwm-bias", "s-invariance"}


def test_dual_bookkeeping_small_runs_are_exact():
    cfg = small_config()
    assert dual_bookkeeping_mcmc(cfg)["max_discrepancy"] == 0.0
    smc_rep = dual_bookkeeping_smc(cfg)
    assert smc_rep["max_discrepancy"] == 0.0
    assert smc_rep["moves_checked"] == 120 * 5


@pytest.mark.parametrize("kind", PROPOSAL_KINDS)
def test_dual_bookkeeping_mcmc_matches_production_for_each_proposal(kind):
    # production reads the prior proposal's q ratio off the cached log priors;
    # the check recomputes it from theta through ProposalSpec.log_q_ratio
    cfg = small_config()
    cfg.mcmc.proposal = kind
    report = dual_bookkeeping_mcmc(cfg)
    assert report["max_discrepancy"] == 0.0
    assert report["max_mismatch_with_production"] == 0.0


def test_s_invariance_report_round_trips():
    cfg = small_config()
    report = experiment_s_invariance(cfg)
    text = json.dumps(report, sort_keys=True)
    again = json.loads(text)
    assert json.dumps(again, sort_keys=True) == text
    assert again["experiment"] == "s-invariance"
    assert "tests" in again and "acceptance_rates" in again


def test_cross_table_report_shape():
    cfg = small_config()
    report = cross_sampler_table(cfg)
    for s_key, cell in report["table"].items():
        assert set(cell["samplers"]) == {"rejection", "mcmc-carried",
                                         "smc-joint", "smc-backward"}
        assert len(cell["pairs"]) == 6
    json.dumps(report)  # serializable as it is


def test_smc_final_target_s_invariant():
    # final weighted means at S=1 and S=5 agree within combined error,
    # for both weight formulations
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 8)
    for variant in (JOINT_MCMC_MOVE, BACKWARD_KERNEL):
        stats = {}
        for S in (1, 5):
            means = []
            for rep in range(5):
                out = run_smc(model, kernel, schedule, S, 800, variant,
                              ProposalSpec(), seed=500 + 10 * S + rep, t_y=0.0)
                means.append(weighted_moments(out.thetas, out.weights)[0][0])
            means = np.array(means)
            stats[S] = (means.mean(), means.std(ddof=1) / math.sqrt(means.size))
        gap = abs(stats[1][0] - stats[5][0])
        tol = 3.0 * math.hypot(stats[1][1], stats[5][1])
        assert gap < tol, f"{variant}: gap {gap} vs tol {tol}"
