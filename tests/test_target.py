import math

import numpy as np
import pytest
from scipy import stats

from lfs.errors import DomainError
from lfs.kernels import SmoothingKernel
from lfs.models import BernoulliCountModel, NormalMeanModel
from lfs.rng import substream
from lfs.target import (AugmentedState, joint_logdensity_unnorm,
                        marginal_logestimate, simulate_checked)


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
    expected = math.log(kernel.pooled_evaluate(6.0, bundle)) + 0.0
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
    kernel = SmoothingKernel("gaussian", 1.0)
    rng = substream(5, "t")
    for theta in (-0.7, 0.0, 1.3):
        val, bundle = marginal_logestimate(np.array([theta]), 4, 0.0, kernel, model, rng)
        recomputed = joint_logdensity_unnorm(np.array([theta]), bundle, 0.0, kernel, model)
        assert val == recomputed  # bitwise


def test_augmented_state_carries_cached_value(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    val, bundle = marginal_logestimate(np.array([0.2]), 3, 0.0, kernel, model,
                                       substream(4, "t"))
    state = AugmentedState(np.array([0.2]), bundle, val)
    assert state.log_num == joint_logdensity_unnorm(state.theta, state.bundle,
                                                    0.0, kernel, model)


def test_marginal_estimate_domain_error():
    model = BernoulliCountModel()
    kernel = SmoothingKernel("uniform", 0.5)
    with pytest.raises(DomainError):
        marginal_logestimate(np.array([1.4]), 1, 6.0, kernel, model, substream(1, "t"))


def test_marginal_estimate_all_miss_is_neginf(model):
    kernel = SmoothingKernel("uniform", 0.05)
    val, _ = marginal_logestimate(np.array([8.0]), 2, 0.0, kernel, model,
                                  substream(2, "t"))
    assert val == -np.inf


def test_unbiasedness_of_marginal_estimate(model):
    # mean of exp(estimate) over many replicates matches
    # prior(theta) * integral K_h f dt within 1% relative error
    kernel = SmoothingKernel("gaussian", 1.0)
    rng = substream(6, "t")
    for theta in (0.0, 0.5, 1.0):
        vals = np.empty(100_000)
        for r in range(vals.size):
            lv, _ = marginal_logestimate(np.array([theta]), 1, 0.0, kernel, model, rng)
            vals[r] = math.exp(lv)
        exact = (math.exp(model.prior_logdensity([theta]))
                 * math.exp(float(model.smoothed_loglik(np.array([theta]), 0.0, kernel)[0])))
        assert vals.mean() == pytest.approx(exact, rel=0.01)


def test_variance_halves_when_s_doubles(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    theta = np.array([0.4])
    variances = {}
    for S in (4, 8):
        rng = substream(7, "t", S)
        vals = np.array([
            math.exp(marginal_logestimate(theta, S, 0.0, kernel, model, rng)[0])
            for _ in range(10_000)])
        variances[S] = vals.var()
    assert variances[8] == pytest.approx(variances[4] / 2.0, rel=0.10)


def test_variance_monotone_in_s(model):
    kernel = SmoothingKernel("gaussian", 1.0)
    theta = np.array([0.0])
    prev = np.inf
    for S in (1, 2, 4, 8, 16):
        rng = substream(8, "t", S)
        vals = np.array([
            math.exp(marginal_logestimate(theta, S, 0.0, kernel, model, rng)[0])
            for _ in range(10_000)])
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
