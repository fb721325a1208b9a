import math

import numpy as np
import pytest
from scipy import stats

from helpers import ConstantKernel, NanBundleModel
from lfs.diagnostics import batch_means_se, ks_critical_value, ks_statistic
from lfs.errors import BudgetExhaustedError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import CARRIED_BUNDLE, FRESH_DENOMINATOR, ProposalSpec, run_mcmc
from lfs.models import NormalMeanModel
from lfs.target import mh_step


@pytest.fixture
def model():
    return NormalMeanModel()


@pytest.fixture
def kernel():
    return SmoothingKernel("gaussian", 1.0)


def _flat_prior_proposal(model):
    # symmetric random walk: q terms cancel in the ratio
    return ProposalSpec("random-walk", 0.5)


def _ratio(log_num_prop, log_num_curr, theta_prop, theta_curr, proposal, model, u=0.5):
    log_q_ratio = proposal.log_q_ratio(theta_curr, theta_prop, model)
    return mh_step(log_num_prop, log_num_curr, log_q_ratio, u)


def test_ratio_equal_numerators_accepts(model):
    prop = _flat_prior_proposal(model)
    th = np.array([0.1])
    r, accept = _ratio(-1.3, -1.3, th, th, prop, model, u=0.999)
    assert r == 0.0
    assert accept


def test_ratio_half(model):
    # symmetric proposal, flat prior contribution: pooled 0.2 vs 0.4
    prop = _flat_prior_proposal(model)
    r, _ = _ratio(math.log(0.2), math.log(0.4), np.array([0.0]), np.array([0.0]),
                  prop, model)
    assert math.exp(r) == pytest.approx(0.5, abs=1e-12)
    # accepted exactly when u < 1/2
    assert _ratio(math.log(0.2), math.log(0.4), np.array([0.0]), np.array([0.0]),
                  prop, model, u=0.49)[1]
    assert not _ratio(math.log(0.2), math.log(0.4), np.array([0.0]), np.array([0.0]),
                      prop, model, u=0.51)[1]


def test_ratio_zero_proposed_rejects(model):
    prop = _flat_prior_proposal(model)
    r, accept = _ratio(-np.inf, -1.0, np.array([0.0]), np.array([0.0]), prop, model,
                       u=0.0)
    assert r == -np.inf
    assert not accept


def test_ratio_double_neginf_rejects(model):
    prop = _flat_prior_proposal(model)
    r, accept = _ratio(-np.inf, -np.inf, np.array([0.0]), np.array([0.0]), prop, model,
                       u=0.0)
    assert r == -np.inf
    assert not accept


def test_stationarity_at_s1(model, kernel):
    out = run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(step_sd=1.0),
                   160_000, 10_000, seed=77, thin=15)
    x = out.thetas[:10_000, 0]
    oracle = model.oracle(0.0, kernel)
    assert ks_statistic(x, oracle.cdf) < ks_critical_value(x.size, 0.01)


def test_conjugate_moments(model, kernel):
    out = run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(step_sd=1.0),
                   200_000, 20_000, seed=5)
    x = out.thetas[:, 0]
    se = batch_means_se(x)
    assert abs(x.mean()) < 3.0 * se
    assert x.var() == pytest.approx(2.0 / 3.0, rel=0.05)


def test_prior_proposal_constant_kernel_is_iid_prior(model):
    out = run_mcmc(model, ConstantKernel(), 0.0, 1, CARRIED_BUNDLE,
                   ProposalSpec("prior"), 10_000, 0, seed=12)
    assert out.acceptance_rate == 1.0
    assert np.all(out.accepted)
    x = out.thetas[:, 0]
    assert ks_statistic(x, lambda t: stats.norm.cdf(t, 0, 1)) < ks_critical_value(
        x.size, 0.01)
    # accepted every move: consecutive states are fresh draws, never repeats
    assert np.all(np.diff(x) != 0.0)


def test_rejected_move_bookkeeping(model, kernel):
    records = []
    run_mcmc(model, kernel, 0.0, 2, CARRIED_BUNDLE, ProposalSpec(step_sd=3.0),
             2000, 0, seed=8, on_iteration=records.append)
    n_rejected = 0
    for prev, nxt in zip(records[:-1], records[1:]):
        if not prev.accepted:
            assert np.array_equal(nxt.curr.theta, prev.curr.theta)
            assert np.array_equal(nxt.curr.bundle, prev.curr.bundle)
            assert nxt.curr.log_num == prev.curr.log_num
            n_rejected += 1
    assert n_rejected > 100  # step 3.0 rejects often enough to exercise this


def test_fresh_large_s_matches_carried(model, kernel):
    carried = run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(step_sd=1.0),
                       60_000, 6_000, seed=21)
    fresh = run_mcmc(model, kernel, 0.0, 10_000, FRESH_DENOMINATOR,
                     ProposalSpec(step_sd=1.0), 10_000, 1_000, seed=22)
    estimates = {}
    for name, chain in (("carried", carried), ("fresh", fresh)):
        x = chain.thetas[:, 0]
        centered_sq = (x - x.mean()) ** 2
        estimates[name] = (centered_sq.mean(), batch_means_se(centered_sq))
    gap = abs(estimates["carried"][0] - estimates["fresh"][0])
    tol = 3.0 * math.hypot(estimates["carried"][1], estimates["fresh"][1])
    assert gap < tol


def test_dual_bookkeeping_exact_zero(model, kernel):
    from lfs.config import RunConfig
    from lfs.experiments import dual_bookkeeping_mcmc

    cfg = RunConfig()
    cfg.experiment.equivalence_iters = 2000
    report = dual_bookkeeping_mcmc(cfg, seed=31)
    assert report["max_discrepancy"] == 0.0
    assert report["max_mismatch_with_production"] == 0.0


def test_initialization_and_errors(model, kernel):
    with pytest.raises(ConfigurationError):
        run_mcmc(model, kernel, 0.0, 1, "bogus", ProposalSpec(), 100, 10, seed=1)
    with pytest.raises(ConfigurationError):
        run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(), 10, 10, seed=1)
    # impossible kernel support: initialization budget must fail loudly
    tiny = SmoothingKernel("uniform", 1e-6)
    with pytest.raises(BudgetExhaustedError):
        run_mcmc(model, tiny, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(), 100, 0,
                 seed=1, init_budget=200)


def test_explicit_init_used(model, kernel):
    out = run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(step_sd=1e-9),
                   50, 0, seed=2, init=np.array([0.25]))
    # microscopic steps: the chain stays at the init
    assert np.allclose(out.thetas[:, 0], 0.25, atol=1e-6)


def test_burn_in_and_thin_bookkeeping(model, kernel):
    out = run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(), 100, 40,
                   seed=3, thin=10)
    assert list(out.iterations) == [41, 51, 61, 71, 81, 91]


def test_non_finite_simulator_output_raises():
    # without the guard a NaN summary is a silent kernel miss under the uniform
    # kernel; the tenth bundle is drawn mid-chain, after initialization
    kernel = SmoothingKernel("uniform", 1.0)
    for variant in (CARRIED_BUNDLE, FRESH_DENOMINATOR):
        with pytest.raises(DomainError, match="normal-mean.*3 non-finite summaries out of 3"):
            run_mcmc(NanBundleModel(), kernel, 0.0, 3, variant, ProposalSpec(), 100, 0,
                     seed=4)
