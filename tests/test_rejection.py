import math

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import ConstantKernel, NanBundleModel
from lfs.diagnostics import ks_statistic, ks_critical_value
from lfs.errors import BudgetExhaustedError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.models import BernoulliCountModel, NormalMeanModel
from lfs.rejection import run_rejection


def test_conjugate_moments():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    out = run_rejection(model, kernel, 0.0, 1, 20_000, seed=101)
    x = out.thetas[:, 0]
    se = math.sqrt(2.0 / 3.0 / x.size)
    assert abs(x.mean()) < 3.0 * se
    assert x.var() == pytest.approx(2.0 / 3.0, rel=0.05)


def test_constant_kernel_recovers_prior():
    model = NormalMeanModel()
    out = run_rejection(model, ConstantKernel(), 0.0, 1, 10_000, seed=7)
    assert out.proposals_used == out.n_accepted  # every proposal accepted
    assert out.acceptance_rate == 1.0
    ks = ks_statistic(out.thetas[:, 0], lambda t: stats.norm.cdf(t, 0, 1))
    assert ks < ks_critical_value(10_000, 0.01)


def test_bernoulli_exact_match_vs_beta():
    model = BernoulliCountModel(trials=20)
    kernel = SmoothingKernel("uniform", 0.5)
    out = run_rejection(model, kernel, 6.0, 1, 10_000, seed=55)
    ks = ks_statistic(out.thetas[:, 0], stats.beta(7, 15).cdf)
    assert ks < ks_critical_value(10_000, 0.01)
    # all accepted bundles hit the observed count exactly
    assert np.all(out.bundles[:, :, 0] == 6.0)


def test_acceptance_rate_matches_quadrature():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    out = run_rejection(model, kernel, 0.0, 1, 30_000, seed=3)
    # E[pooled / sup] under the prior predictive, by quadrature (t ~ N(0, 2))
    expected, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) * stats.norm.pdf(t, 0, math.sqrt(2.0)),
        -40, 40)
    se = math.sqrt(expected * (1 - expected) / out.proposals_used)
    assert abs(out.acceptance_rate - expected) < 3.0 * se


def test_s_invariance_of_marginal():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    pops = {
        S: run_rejection(model, kernel, 0.0, S, 10_000, seed=40 + S).thetas[:, 0]
        for S in (1, 5)
    }
    stat = _ks2(pops[1], pops[5])
    # two-sample asymptotic critical value at level 0.01
    crit = 1.6276 * math.sqrt(2.0 / 10_000)
    assert stat < crit


def _ks2(a, b):
    from lfs.diagnostics import ks_2sample
    return ks_2sample(a, b)


def test_deterministic_and_worker_invariant():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    runs = [run_rejection(model, kernel, 0.0, 2, 5000, seed=9, workers=w)
            for w in (1, 1, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].thetas, other.thetas)
        assert np.array_equal(runs[0].bundles, other.bundles)
        assert runs[0].proposals_used == other.proposals_used


def test_acceptance_rate_bookkeeping():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    out = run_rejection(model, kernel, 0.0, 1, 777, seed=2, block_size=100)
    assert out.n_accepted == 777
    assert out.acceptance_rate == 777 / out.proposals_used
    assert np.all(np.isfinite(out.thetas))


def test_budget_exhaustion():
    model = NormalMeanModel()
    kernel = SmoothingKernel("uniform", 1e-4)  # essentially never accepts
    with pytest.raises(BudgetExhaustedError) as err:
        run_rejection(model, kernel, 0.0, 1, 10, seed=1, budget=2000, block_size=128)
    assert err.value.proposals_used == 2000


def test_parameter_validation():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    with pytest.raises(ConfigurationError):
        run_rejection(model, kernel, 0.0, 0, 10, seed=1)
    with pytest.raises(ConfigurationError):
        run_rejection(model, kernel, 0.0, 1, 0, seed=1)


def test_non_finite_simulator_output_raises():
    kernel = SmoothingKernel("uniform", 1.0)
    for workers in (1, 2):
        with pytest.raises(DomainError, match="non-finite"):
            run_rejection(NanBundleModel(), kernel, 0.0, 2, 100, seed=5, workers=workers)
