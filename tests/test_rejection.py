import itertools
import math
import threading

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import ConstantKernel, CountingModel, NanBundleModel
from lfs.diagnostics import ks_statistic, ks_critical_value
from lfs.errors import BudgetExhaustedError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.models import BernoulliCountModel, NormalMeanModel
from lfs.rejection import MAX_WORKERS, _evaluate_block, check_arguments, run_rejection
from lfs.rng import substream


@pytest.mark.parametrize("model, kernel, t_y, S", [
    (NormalMeanModel(), SmoothingKernel("gaussian", 0.1), 0.0, 5),
    (NormalMeanModel(), SmoothingKernel("epanechnikov", 0.1), 0.0, 5),
    (NormalMeanModel(), SmoothingKernel("uniform", 0.5), 0.0, 25),
    (BernoulliCountModel(), SmoothingKernel("uniform", 0.5), 7.0, 1),
    (BernoulliCountModel(), SmoothingKernel("gaussian", 1.0), 7.0, 25),
], ids=["normal-gaussian-s5", "normal-epan-s5", "normal-uniform-s25", "bern-uniform-s1",
        "bern-gaussian-s25"])
def test_block_accepts_match_linear_reference(model, kernel, t_y, S):
    # the log-scale accept test decides as the linear u * sup < mean kernel does,
    # on the same substream draws in the same order
    for block in range(4):
        thetas, bundles, accept = _evaluate_block(model, kernel, t_y, S, 8, block, 4096)
        rng = substream(8, "reject", "block", block)
        ref_thetas = model.prior_sample(rng, (4096,))
        ref_bundles = model.simulate(ref_thetas, S, rng)
        u = rng.uniform(size=4096)
        pooled = np.mean(kernel.evaluate(t_y - ref_bundles), axis=-1)
        assert np.array_equal(thetas, ref_thetas) and np.array_equal(bundles, ref_bundles)
        assert np.array_equal(accept, u * kernel.sup_value() < pooled)
        assert 0 < accept.sum() < 4096


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
    return stats.ks_2samp(a, b).statistic


def test_deterministic_and_worker_invariant():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    runs = [run_rejection(model, kernel, 0.0, 2, 5000, seed=9, workers=w)
            for w in (1, 1, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].thetas, other.thetas)
        assert np.array_equal(runs[0].bundles, other.bundles)
        assert runs[0].proposals_used == other.proposals_used


def _reference_proposals_used(model, kernel, t_y, S, n_accept, seed, block_size):
    """Proposals up to the n_accept-th acceptance, reading the blocks one by one."""
    found = 0
    for block in itertools.count():
        accept = _evaluate_block(model, kernel, t_y, S, seed, block, block_size)[2]
        if found + accept.sum() >= n_accept:
            return block * block_size + int(np.flatnonzero(accept)[n_accept - found - 1]) + 1
        found += int(accept.sum())


@pytest.mark.parametrize("workers", [1, 2])
def test_acceptance_rate_bookkeeping(workers):
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    out = run_rejection(model, kernel, 0.0, 1, 777, seed=2, block_size=100, workers=workers)
    assert out.n_accepted == 777
    assert out.proposals_used == _reference_proposals_used(model, kernel, 0.0, 1, 777, 2, 100)
    assert out.acceptance_rate == 777 / out.proposals_used
    assert np.all(np.isfinite(out.thetas))


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_exhaustion(workers):
    model = NormalMeanModel()
    kernel = SmoothingKernel("uniform", 1e-4)  # essentially never accepts
    with pytest.raises(BudgetExhaustedError) as err:
        run_rejection(model, kernel, 0.0, 1, 10, seed=1, budget=2000, block_size=128,
                      workers=workers)
    # 15 full blocks of 128 and a final block cut to 80
    assert err.value.proposals_used == 2000


@pytest.mark.parametrize("workers", [1, 2])
def test_look_ahead_is_bounded_and_no_thread_outlives_the_call(workers):
    kernel = SmoothingKernel("gaussian", 0.5)
    threads = threading.active_count()
    model = CountingModel(NormalMeanModel())
    out = run_rejection(model, kernel, 0.0, 1, 300, seed=4, budget=10**5, block_size=100,
                        workers=workers)
    last_block = (out.proposals_used - 1) // 100
    assert last_block >= 2  # the run spans several blocks of the 1000 it may use
    assert model.n_calls % 100 == 0
    assert last_block + 1 <= model.n_calls // 100 <= last_block + 1 + 2 * workers
    assert threading.active_count() == threads
    with pytest.raises(DomainError):
        run_rejection(NanBundleModel(clean_bundles=500), kernel, 0.0, 2, 10**6, seed=5,
                      block_size=100, workers=workers)
    assert threading.active_count() == threads


def test_parameter_validation():
    model = NormalMeanModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    with pytest.raises(ConfigurationError):
        run_rejection(model, kernel, 0.0, 0, 10, seed=1)
    with pytest.raises(ConfigurationError):
        run_rejection(model, kernel, 0.0, 1, 0, seed=1)


def test_worker_ceiling_is_checked_before_any_pool_exists(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr("lfs.rejection.ThreadPoolExecutor", no_pool)
    check_arguments(10, 1000, 100, MAX_WORKERS)
    for workers in (0, MAX_WORKERS + 1):
        with pytest.raises(ConfigurationError, match="workers"):
            check_arguments(10, 1000, 100, workers)
        with pytest.raises(ConfigurationError, match="workers"):
            run_rejection(NormalMeanModel(), SmoothingKernel("gaussian", 1.0), 0.0, 1, 10,
                          seed=1, workers=workers)


def test_non_finite_simulator_output_raises():
    kernel = SmoothingKernel("uniform", 1.0)
    for workers in (1, 2):
        with pytest.raises(DomainError, match="non-finite") as err:
            run_rejection(NanBundleModel(), kernel, 0.0, 2, 100, seed=5, workers=workers)
        # every block holds a bad bundle; the first one consumed is named
        assert "(seed 5, substream ('reject', 'block', 0))" in str(err.value)
    # the first 40 blocks of 100 proposals are clean, so block 40 is named (one
    # worker: the model counts bundles in the order the blocks are simulated)
    with pytest.raises(DomainError) as err:
        run_rejection(NanBundleModel(clean_bundles=4000), kernel, 0.0, 2, 10**6, seed=5,
                      block_size=100)
    assert "(seed 5, substream ('reject', 'block', 40))" in str(err.value)
