import math

import numpy as np
import pytest
from scipy import stats

from helpers import (ConstantKernel, CountingModel, NanBundleModel,
                     assert_records_never_mutated)
from lfs.diagnostics import batch_means_se, ks_critical_value, ks_statistic
from lfs.errors import BudgetExhaustedError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import (CARRIED_BUNDLE, FRESH_DENOMINATOR, MCMC_VARIANTS, PROPOSAL_KINDS,
                      ProposalSpec, run_chains, run_mcmc)
from lfs.models import NormalMeanModel, make_model
from lfs.rng import substream
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


def test_chains_uniform_draw_is_uniform_bit_for_bit():
    # each chain draws its MH uniform with Generator.random(), which is uniform()
    # without its 0 + 1 * x: the same doubles from the same stream position
    a, b = substream(5, "mcmc", "chain", 0), substream(5, "mcmc", "chain", 0)
    for _ in range(2000):
        assert a.random() == b.uniform()
        assert a.standard_normal() == b.standard_normal()


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
    cfg.run.seed = 31
    report = dual_bookkeeping_mcmc(cfg)
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
        records = []
        with pytest.raises(DomainError,
                           match="normal-mean.*3 non-finite summaries out of 3") as err:
            run_mcmc(NanBundleModel(), kernel, 0.0, 3, variant, ProposalSpec(), 100, 0,
                     seed=4, chain_id=2, on_iteration=records.append)
        # the message names the chain's substream and the iteration that failed,
        # the one after the last completed move
        assert records
        assert (f"(seed 4, substream ('mcmc', 'chain', 2), iteration {len(records) + 1})"
                in str(err.value))


def test_non_finite_simulator_output_at_initialization_names_iteration_zero():
    kernel = SmoothingKernel("gaussian", 1.0)
    model = NanBundleModel()
    model.n_bundles = 9  # the first bundle drawn is the bad one
    with pytest.raises(DomainError) as err:
        run_mcmc(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(), 10, 0, seed=7)
    assert "(seed 7, substream ('mcmc', 'chain', 0), iteration 0)" in str(err.value)


@pytest.mark.parametrize("kind", PROPOSAL_KINDS)
@pytest.mark.parametrize("variant", MCMC_VARIANTS)
def test_prior_evaluated_once_per_iteration(variant, kind):
    # the support check's value is the proposal's log prior, the fresh re-estimate
    # reuses the current state's cached one, and the prior proposal's q ratio is
    # the ratio of the cached ones: one call per iteration for a whole batch, plus
    # one per chain and one for the batch at initialization
    kernel = SmoothingKernel("gaussian", 1.0)
    n_iter = 1000
    lone = CountingModel(NormalMeanModel())
    run_mcmc(lone, kernel, 0.0, 2, variant, ProposalSpec(kind, 1.0), n_iter, 0, seed=3)
    assert lone.n_prior_calls <= n_iter + 2
    batched = CountingModel(NormalMeanModel())
    run_chains(batched, kernel, 0.0, 2, variant, ProposalSpec(kind, 1.0), n_iter, 0,
               [(3, k) for k in range(4)])
    assert batched.n_prior_calls <= n_iter + 4 + 1


def test_bundle_size_is_checked_on_entry(model, kernel):
    with pytest.raises(ConfigurationError, match="S must be >= 1"):
        run_chains(model, kernel, 0.0, 0, CARRIED_BUNDLE, ProposalSpec(), 10, 0, [(1, 0)])


@pytest.mark.parametrize("variant", MCMC_VARIANTS)
def test_default_step_is_resolved_once_per_run(variant):
    kernel = SmoothingKernel("gaussian", 1.0)
    counting = CountingModel(make_model("bernoulli-count"))
    out = run_chains(counting, kernel, 7.0, 2, variant, ProposalSpec(), 200, 0,
                     [(5, 0), (5, 1)])
    assert counting.n_prior_sd_calls == 1
    # the same chains as with the resolved step given explicitly
    step = make_model("bernoulli-count").prior_sd() / 2.0
    again = run_chains(make_model("bernoulli-count"), kernel, 7.0, 2, variant,
                       ProposalSpec(step_sd=step), 200, 0, [(5, 0), (5, 1)])
    for a, b in zip(out, again):
        assert np.array_equal(a.thetas, b.thetas) and np.array_equal(a.log_nums, b.log_nums)


@pytest.mark.parametrize("variant", MCMC_VARIANTS)
def test_batch_records_are_never_mutated(variant):
    # random-walk steps on bernoulli-count leave [0, 1] in some rows; with the
    # flat kernel every live row accepts, so the batches see masks that accept
    # every row, no row and some rows
    model = make_model("bernoulli-count")
    masks = set()

    def run(callback):
        def both(rec):
            n = int(np.count_nonzero(rec.accepted))
            masks.add("none" if n == 0 else "all" if n == rec.accepted.size else "some")
            callback(rec)
        for h, step in ((0.5, 0.3), (100.0, 0.05)):
            run_chains(model, SmoothingKernel("uniform", h), 7.0, 3, variant,
                       ProposalSpec("random-walk", step), 300, 0, [(61, k) for k in range(10)],
                       on_iteration=both)

    assert_records_never_mutated(run)
    assert masks == {"none", "all", "some"}


def _target(name):
    if name == "normal-mean":
        return make_model(name), SmoothingKernel("gaussian", 1.0), 0.0, 1.0
    # steps of 0.3 around a posterior near 0.35 often leave [0, 1]
    return make_model(name), SmoothingKernel("uniform", 0.5), 7.0, 0.3


def _assert_same_chain(alone, batched):
    assert np.array_equal(alone.iterations, batched.iterations)
    assert np.array_equal(alone.thetas, batched.thetas)
    assert np.array_equal(alone.accepted, batched.accepted)
    assert np.array_equal(alone.log_nums, batched.log_nums)
    assert alone.acceptance_rate == batched.acceptance_rate


@pytest.mark.parametrize("S", [1, 10])
@pytest.mark.parametrize("variant", MCMC_VARIANTS)
@pytest.mark.parametrize("kind", PROPOSAL_KINDS)
@pytest.mark.parametrize("name", ["normal-mean", "bernoulli-count"])
def test_chain_is_the_same_alone_and_in_a_batch(name, kind, variant, S):
    model, kernel, t_y, step = _target(name)
    proposal = ProposalSpec(kind, step)
    chains = [(50 + k % 3, k) for k in range(10)]
    batch_records = []
    batch = run_chains(model, kernel, t_y, S, variant, proposal, 300, 20, chains, thin=3,
                       on_iteration=batch_records.append)
    assert len(batch) == 10
    by_step = {rec.step: rec for rec in batch_records}
    for k, ((seed, chain_id), out) in enumerate(zip(chains, batch)):
        records = []
        alone = run_mcmc(model, kernel, t_y, S, variant, proposal, 300, 20, seed, thin=3,
                         chain_id=chain_id, on_iteration=records.append)
        _assert_same_chain(alone, out)
        # a lone chain's record holds its scalars, a batch record one row per chain
        for a in records:
            b = by_step[a.step]
            assert (a.log_ratio, a.u, a.accepted) == (b.log_ratio[k], b.u[k], b.accepted[k])
            assert np.array_equal(a.prop.bundle, b.prop.bundle[k])
            assert (a.prop.log_num, a.curr.log_num) == (b.prop.log_num[k], b.curr.log_num[k])
        # in the other batch records chain k's proposal left the support: rejected
        dead = set(by_step) - {a.step for a in records}
        assert all(by_step[n].prop.log_num[k] == -np.inf and not by_step[n].accepted[k]
                   for n in dead)
        if name == "bernoulli-count" and kind == "random-walk":
            # some iterations ran with part of the batch outside the prior's support
            assert dead


@pytest.mark.parametrize("name", ["normal-mean", "bernoulli-count"])
def test_chain_is_the_same_alone_and_in_a_batch_from_an_explicit_init(name):
    model, kernel, t_y, step = _target(name)
    proposal = ProposalSpec("random-walk", step)
    chains = [(9, k) for k in range(10)]
    init = np.array([0.4])
    batch = run_chains(model, kernel, t_y, 10, FRESH_DENOMINATOR, proposal, 200, 0, chains,
                       init=init, thin=7)
    for (seed, chain_id), out in zip(chains, batch):
        alone = run_mcmc(model, kernel, t_y, 10, FRESH_DENOMINATOR, proposal, 200, 0, seed,
                         init=init, thin=7, chain_id=chain_id)
        _assert_same_chain(alone, out)


@pytest.mark.parametrize("variant,iteration", [(CARRIED_BUNDLE, 6), (FRESH_DENOMINATOR, 3)])
def test_non_finite_simulator_output_in_a_batch_names_its_chain(variant, iteration):
    # bundles are counted across the batch: three at initialization, then per
    # iteration one proposal bundle per chain (and, fresh, one re-estimate per
    # chain), so the first bad bundle, the 20th, is the second chain's
    model = NanBundleModel(clean_bundles=10)
    with pytest.raises(DomainError, match="3 non-finite summaries out of 3") as err:
        run_chains(model, SmoothingKernel("gaussian", 1.0), 0.0, 3, variant, ProposalSpec(),
                   100, 0, [(4, 5), (4, 7), (4, 9)])
    assert f"(seed 4, substream ('mcmc', 'chain', 7), iteration {iteration})" in str(err.value)


class _WideAfter(NormalMeanModel):
    """Normal-mean model whose simulator doubles the summary's width after ``good`` calls."""

    def __init__(self, good):
        super().__init__()
        self.good, self.calls = good, 0

    def simulate(self, theta, n, rng):
        out = super().simulate(theta, n, rng)
        self.calls += 1
        return out if self.calls <= self.good else np.concatenate([out, out], axis=-1)


def test_mis_shaped_simulator_output_in_a_batch_names_its_chain():
    # three initialization calls, then the first iteration's second chain is bad
    with pytest.raises(DomainError, match=r"shape \(2, 2\), expected \(2, 1\)") as err:
        run_chains(_WideAfter(4), SmoothingKernel("gaussian", 1.0), 0.0, 2, CARRIED_BUNDLE,
                   ProposalSpec(), 10, 0, [(6, 0), (6, 1), (6, 2)])
    assert "(seed 6, substream ('mcmc', 'chain', 1), iteration 1)" in str(err.value)


@pytest.mark.parametrize("chains", [[], [(1,)], [(1, 2, 3)], [(1, "a")], [(1, 0.5)],
                                    [("x", 0)], [(-1, 0)], 5, None])
def test_malformed_chains_raise_configuration_error(model, kernel, chains):
    with pytest.raises(ConfigurationError, match="chains"):
        run_chains(model, kernel, 0.0, 1, CARRIED_BUNDLE, ProposalSpec(), 10, 0, chains)
