import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lfs.errors import DomainError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import MCMC_VARIANTS, ProposalSpec, run_chains
from lfs.models import BernoulliCountModel, NormalMeanModel, make_model
from lfs.rejection import run_rejection
from lfs.rng import substream
from lfs.smc import SMC_VARIANTS, BandwidthSchedule, run_smc
from lfs.target import (AugmentedState, joint_logdensity_unnorm, log_quotient, mh_step,
                        propose, simulate_checked)


@pytest.fixture
def model():
    return NormalMeanModel()


def test_joint_logdensity_arithmetic():
    # pooled kernel 0.3 and flat (Bernoulli) prior: log 0.3
    model = BernoulliCountModel()
    kernel = SmoothingKernel("epanechnikov", 1.0)
    # distances giving kernel values 0.2/0.4 are unnecessary: verify against
    # the kernel's own pooled value
    bundle = np.array([[5.0], [6.0]])
    expected = math.log(np.mean(kernel.evaluate(6.0 - bundle), axis=-1)) + 0.0
    got = joint_logdensity_unnorm(np.array([0.3]), bundle, 6.0, kernel, model)
    assert got == pytest.approx(expected, abs=1e-12)


def test_joint_logdensity_all_miss(model):
    kernel = SmoothingKernel("uniform", 1.0)
    bundle = np.full((4, 1), 9.0)
    assert joint_logdensity_unnorm(np.array([0.0]), bundle, 0.0, kernel, model) == -np.inf


def test_joint_logdensity_peak_composition(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    bundle = np.array([[0.0]])  # simulated summary exactly at t_y
    got = joint_logdensity_unnorm(np.array([0.0]), bundle, 0.0, kernel, model)
    assert got == pytest.approx(math.log(0.3989422804014327) - 0.9189385332046727,
                                abs=1e-10)


def test_marginal_estimate_consistency_exact(model):
    # the estimate is the joint density on the simulator's own bundle, bit for bit
    kernel = SmoothingKernel("gaussian", 1.0)
    rng, replay = substream(5, "t"), substream(5, "t")
    for theta in (-0.7, 0.0, 1.3):
        bundle = simulate_checked(model, np.array([theta]), 4, rng)
        val = joint_logdensity_unnorm(np.array([theta]), bundle, 0.0, kernel, model)
        direct = model.simulate(np.array([theta]), 4, replay)
        assert bundle.tobytes() == direct.tobytes()
        assert val == (kernel.log_pooled(0.0, direct)
                       + model.prior_logdensity(np.array([theta])))  # bitwise


def test_augmented_state_carries_cached_value(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    bundle = simulate_checked(model, np.array([0.2]), 3, substream(4, "t"))
    state = AugmentedState(np.array([0.2]), bundle, model.prior_logdensity(np.array([0.2])),
                           kernel.log_pooled(0.0, bundle))
    assert state.log_num == joint_logdensity_unnorm(state.theta, state.bundle,
                                                    0.0, kernel, model)


def test_marginal_estimate_domain_error():
    # a theta outside the prior's support cannot draw the fresh bundle
    model = BernoulliCountModel()
    for theta in (np.array([1.4]), np.array([[0.2], [1.4], [0.5]])):
        with pytest.raises(DomainError):
            simulate_checked(model, theta, 1, substream(1, "t"))


def test_marginal_estimate_all_miss_is_neginf(model):
    kernel = SmoothingKernel("uniform", 0.05)
    bundle = simulate_checked(model, np.array([8.0]), 2, substream(2, "t"))
    val = joint_logdensity_unnorm(np.array([8.0]), bundle, 0.0, kernel, model)
    assert val == -np.inf


def test_unbiasedness_of_marginal_estimate(model):
    # mean of exp(estimate) over many replicates matches
    # prior(theta) * integral K_h f dt within 1% relative error
    kernel = SmoothingKernel("gaussian", 1.0)
    rng = substream(6, "t")
    for theta in (0.0, 0.5, 1.0):
        # one batched call draws the replicates a loop of one-row calls drew
        thetas = np.full((100_000, 1), theta)
        bundles = simulate_checked(model, thetas, 1, rng)
        lv = joint_logdensity_unnorm(thetas, bundles, 0.0, kernel, model)
        vals = np.array([math.exp(v) for v in lv.tolist()])
        exact = (math.exp(model.prior_logdensity([theta]))
                 * math.exp(float(model.smoothed_loglik(np.array([theta]), 0.0, kernel)[0])))
        assert vals.mean() == pytest.approx(exact, rel=0.01)


def test_variance_halves_when_s_doubles(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    theta = np.array([0.4])
    variances = {}
    for S in (4, 8):
        rng = substream(7, "t", S)
        thetas = np.tile(theta, (10_000, 1))
        bundles = simulate_checked(model, thetas, S, rng)
        lv = joint_logdensity_unnorm(thetas, bundles, 0.0, kernel, model)
        vals = np.array([math.exp(v) for v in lv.tolist()])
        variances[S] = vals.var()
    assert variances[8] == pytest.approx(variances[4] / 2.0, rel=0.10)


def test_variance_monotone_in_s(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    theta = np.array([0.0])
    prev = np.inf
    for S in (1, 2, 4, 8, 16):
        rng = substream(8, "t", S)
        thetas = np.tile(theta, (10_000, 1))
        bundles = simulate_checked(model, thetas, S, rng)
        lv = joint_logdensity_unnorm(thetas, bundles, 0.0, kernel, model)
        vals = np.array([math.exp(v) for v in lv.tolist()])
        assert vals.var() < prev
        prev = vals.var()


def test_marginalization_identity_discrete():
    # summing the full joint numerator (kernel * simulator pmf * prior) over
    # every possible summary recovers the marginal numerator
    model = BernoulliCountModel(trials=20)
    kernel = SmoothingKernel("uniform", 1.5)
    t_y = 6.0
    for theta in (0.2, 0.45, 0.7):
        ts = np.arange(21, dtype=float)
        joint_sum = sum(
            kernel.evaluate(np.array([t_y - t])) * stats.binom.pmf(t, 20, theta)
            for t in ts) * math.exp(model.prior_logdensity([theta]))
        marginal = math.exp(
            float(model.smoothed_loglik(np.array([theta]), t_y, kernel)[0])
            + model.prior_logdensity([theta]))
        assert joint_sum == pytest.approx(marginal, rel=1e-10)


class _ShapeModel(NormalMeanModel):
    """Simulator returning a fixed array, whatever theta and n are."""

    def __init__(self, out):
        super().__init__()
        self.out = out

    def simulate(self, theta, n, rng):
        return self.out


def test_simulate_checked_passes_good_output_through(model):
    thetas = np.array([[0.1], [0.2], [0.3]])
    got = simulate_checked(model, thetas, 4, substream(9, "t"))
    assert np.array_equal(got, model.simulate(thetas, 4, substream(9, "t")))


def test_simulate_checked_rejects_mis_shaped_output():
    bad_shapes = (np.zeros((4,)), np.zeros((3, 1)), np.zeros((4, 2)), np.zeros((1, 4, 1)))
    for out in bad_shapes:
        with pytest.raises(DomainError, match="normal-mean.*shape"):
            simulate_checked(_ShapeModel(out), np.array([0.0]), 4, substream(1, "t"))
    with pytest.raises(DomainError, match="shape"):
        simulate_checked(_ShapeModel(np.zeros((4, 1))), np.zeros((2, 1)), 4,
                         substream(1, "t"))


def test_simulate_checked_counts_non_finite_summaries():
    out = np.zeros((2, 3, 1))
    out[0, 1, 0] = np.nan
    out[1, 2, 0] = np.inf
    with pytest.raises(DomainError, match="normal-mean.*2 non-finite summaries out of 6"):
        simulate_checked(_ShapeModel(out), np.zeros((2, 1)), 3, substream(1, "t"))
    out = np.zeros((3, 1))
    out[0, 0] = -np.inf
    with pytest.raises(DomainError, match="1 non-finite summaries out of 3"):
        simulate_checked(_ShapeModel(out), np.zeros(1), 3, substream(1, "t"))


# -- the one proposal stage --------------------------------------------------


def test_propose_rows_outside_the_prior_keep_fill_and_draw_nothing():
    # bernoulli-count's prior is [0, 1]: rows 1 and 3 lie outside it
    model, kernel = BernoulliCountModel(), SmoothingKernel("gaussian", 2.5)
    theta = np.array([[0.2], [1.4], [0.7], [-0.1], [0.5]])
    live = np.array([True, False, True, False, True])
    fill = np.full((5, 3, 1), 99.0)
    # one generator: the live rows draw what they draw simulated on their own
    rng, ref = substream(5, "t"), substream(5, "t")
    state = propose(model, kernel, 7.0, 3, theta, rng, fill=fill)
    assert np.array_equal(state.bundle[live], model.simulate(theta[live], 3, ref))
    assert np.array_equal(state.bundle[~live], fill[~live])
    assert rng.random() == ref.random()
    assert np.array_equal(state.log_prior, model.prior_logdensity(theta))
    assert np.array_equal(state.log_pooled, kernel.log_pooled(7.0, state.bundle))
    assert np.all(state.log_num[~live] == -np.inf) and np.all(state.log_num[live] > -np.inf)
    # one generator per row: a dead row's generator is left untouched
    streams = [(6, "row", k) for k in range(5)]
    rngs = [substream(*stream) for stream in streams]
    state = propose(model, kernel, 7.0, 3, theta, rngs, streams, fill=fill)
    for k, stream in enumerate(streams):
        ref = substream(*stream)
        if live[k]:
            assert np.array_equal(state.bundle[k], model.simulate(theta[k], 3, ref))
        else:
            assert np.array_equal(state.bundle[k], fill[k])
        assert rngs[k].random() == ref.random()
    # no row inside it: every row keeps fill, on one generator or on one per row
    for gen in (substream(5, "t"), [substream(6, "row", k) for k in (1, 3)]):
        dead = propose(model, kernel, 7.0, 3, theta[~live], gen, fill=fill[~live])
        assert np.array_equal(dead.bundle, fill[~live]) and np.all(dead.log_num == -np.inf)
    # a lone theta outside the prior keeps its fill and draws nothing
    rng = substream(7, "t")
    lone = propose(model, kernel, 7.0, 3, np.array([1.4]), rng, fill=fill[1])
    assert np.array_equal(lone.bundle, fill[1]) and lone.log_num == -np.inf
    assert rng.random() == substream(7, "t").random()
    assert np.array_equal(fill, np.full((5, 3, 1), 99.0))  # fill itself is never written


@pytest.mark.parametrize("name", ["normal-mean", "bernoulli-count"])
def test_propose_per_row_generators_give_each_row_its_lone_state(name):
    model, kernel = make_model(name), SmoothingKernel("gaussian", 1.0)
    theta = model.prior_sample(substream(8, "theta"), (6,))
    streams = [(8, "row", k) for k in range(6)]
    state = propose(model, kernel, 0.3, 4, theta, [substream(*s) for s in streams], streams, 2)
    for k, stream in enumerate(streams):
        lone = propose(model, kernel, 0.3, 4, theta[k], substream(*stream), stream, 2)
        assert np.array_equal(state.bundle[k], lone.bundle)
        assert (state.log_prior[k], state.log_pooled[k]) == (lone.log_prior, lone.log_pooled)


class _CallerRecordingModel:
    """Delegating wrapper that records the module each ``simulate`` call comes from."""

    def __init__(self, model):
        self._model = model
        self.callers = []

    def simulate(self, theta, n, rng):
        self.callers.append(sys._getframe(1).f_globals["__name__"])
        return self._model.simulate(theta, n, rng)

    def __getattr__(self, item):
        return getattr(self._model, item)


def test_every_sampler_simulates_through_the_one_proposal_stage():
    # bernoulli-count with random-walk steps of 0.3 around a posterior near 0.35:
    # some proposals leave [0, 1], so the chains and particles see dead rows
    kernel, proposal = SmoothingKernel("gaussian", 2.0), ProposalSpec("random-walk", 0.3)

    def check(run):
        model = _CallerRecordingModel(BernoulliCountModel())
        run(model)
        assert model.callers and set(model.callers) == {"lfs.target"}

    for workers in (1, 2):
        check(lambda m: run_rejection(m, kernel, 7.0, 2, 50, seed=3, workers=workers,
                                      block_size=64))
    for variant in MCMC_VARIANTS:
        for C in (1, 4):
            records = []
            check(lambda m: run_chains(m, kernel, 7.0, 3, variant, proposal, 200, 0,
                                       [(5, k) for k in range(C)], on_iteration=records.append))
            dead = [np.count_nonzero(rec.prop.log_prior == -np.inf) for rec in records]
            assert (len(records) < 200) if C == 1 else any(dead)
    schedule = BandwidthSchedule.geometric(6.0, 2.0, 3)
    for variant in SMC_VARIANTS:
        check(lambda m: run_smc(m, kernel, schedule, 2, 100, variant, proposal, seed=9,
                                t_y=7.0))


# -- the scalar paths of log_quotient and mh_step, against the array composition --

def _ref_log_quotient(log_num, log_den):
    both_dead = (log_num == -np.inf) & (log_den == -np.inf)
    return log_num - np.where(both_dead, 0.0, log_den)


def _ref_mh_step(log_num_prop, log_num_curr, log_q_ratio, u):
    log_ratio = _ref_log_quotient(log_num_prop, log_num_curr) + log_q_ratio
    return log_ratio, u < np.exp(np.minimum(log_ratio, 0.0))


_LOG_VALUES = (st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308,
                                -1e308, -800.0, 800.0])
               | st.floats(-1e3, 1e3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_LOG_VALUES, _LOG_VALUES, _LOG_VALUES, st.floats(0.0, 1.0, exclude_max=True))
def test_scalar_mh_step_is_the_array_composition_bit_for_bit(prop, curr, q, u):
    # a lone chain hands mh_step numpy scalars; a test or the equivalence check may
    # hand it Python floats; either way the result is row 0 of the (1,) array case
    with np.errstate(invalid="ignore", over="ignore"):
        ref_ratio, ref_accept = _ref_mh_step(np.array([prop]), np.array([curr]), q, u)
        for cast in (float, np.float64):
            ratio, accept = mh_step(cast(prop), cast(curr), q, u)
            assert np.asarray(ratio).tobytes() == ref_ratio[0].tobytes()
            assert bool(accept) == bool(ref_accept[0])
            quotient = log_quotient(cast(prop), cast(curr))
            assert np.asarray(quotient).tobytes() == _ref_log_quotient(
                np.array([prop]), np.array([curr]))[0].tobytes()
        ratio, accept = mh_step(np.array([prop]), np.array([curr]), q, u)
        assert ratio.tobytes() == ref_ratio.tobytes() and accept == ref_accept
