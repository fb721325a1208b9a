import math

import numpy as np
import pytest
from scipy import integrate, stats

from lfs import models
from lfs.errors import CapabilityError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import ProposalSpec
from lfs.models import BernoulliCountModel, NormalMeanModel, make_model
from lfs.rng import substream


@pytest.fixture
def normal_mean():
    return NormalMeanModel()


@pytest.fixture
def bernoulli():
    return BernoulliCountModel(trials=20)


def test_prior_sample_mean_lln(normal_mean):
    rng = substream(11, "test")
    draws = normal_mean.prior_sample(rng, (100_000,))
    assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)


def test_bernoulli_prior_support(bernoulli):
    rng = substream(12, "test")
    draws = bernoulli.prior_sample(rng, (5000,))
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_prior_sample_deterministic(normal_mean):
    a = normal_mean.prior_sample(substream(42, "x"))
    b = normal_mean.prior_sample(substream(42, "x"))
    assert np.array_equal(a, b)


def test_prior_logdensity_values(normal_mean, bernoulli):
    assert normal_mean.prior_logdensity([0.0]) == pytest.approx(
        math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12)
    assert bernoulli.prior_logdensity([1.5]) == -np.inf
    assert bernoulli.prior_logdensity([0.3]) == 0.0


def test_prior_logdensity_batch_matches_scalar(normal_mean, bernoulli):
    thetas = np.array([[-1.2], [0.0], [0.4], [2.0]])
    for model in (normal_mean, bernoulli):
        batch = model.prior_logdensity(thetas)
        single = [model.prior_logdensity(t) for t in thetas]
        assert np.array_equal(batch, single)


def test_single_theta_is_row_zero_of_a_batch_of_one(normal_mean, bernoulli):
    # every batched operation treats a (p,) theta as the case with no leading
    # axes: it must give bit for bit what row 0 of a (1, p) batch gives, from
    # identical substreams
    def same(a, b):
        assert np.shape(a) == np.shape(b)[1:]
        assert np.array_equal(a, b[0])

    for model in (normal_mean, bernoulli):
        single = model.prior_sample(substream(18, model.name))
        batch = model.prior_sample(substream(18, model.name), (1,))
        same(single, batch)
        assert single.shape == (model.param_dim,)
        theta, thetas = single, single[np.newaxis]
        same(model.prior_logdensity(theta), model.prior_logdensity(thetas))
        sim = model.simulate(theta, 7, substream(19, model.name))
        sims = model.simulate(thetas, 7, substream(19, model.name))
        assert sim.shape == (7, model.summary_dim)
        same(sim, sims)
        for kind in ("random-walk", "prior"):
            proposal = ProposalSpec(kind).resolved(model)
            prop = proposal.sample(theta, model, substream(20, model.name, kind))
            props = proposal.sample(thetas, model, substream(20, model.name, kind))
            same(prop, props)
            same(proposal.logdensity(theta, prop, model),
                 proposal.logdensity(thetas, props, model))
            same(np.asarray(proposal.log_q_ratio(theta, prop, model)),
                 np.broadcast_to(proposal.log_q_ratio(thetas, props, model), (1,)))


def test_non_finite_theta_has_zero_prior_density(normal_mean, bernoulli):
    for model in (normal_mean, bernoulli):
        for bad in (np.nan, np.inf, -np.inf):
            assert model.prior_logdensity(np.array([bad])) == -np.inf
        lp = model.prior_logdensity(np.array([[0.5], [np.nan], [np.inf], [-np.inf]]))
        assert lp[0] > -np.inf
        assert np.all(lp[1:] == -np.inf)


def test_theta_without_parameter_axis_raises(normal_mean, bernoulli):
    rng = substream(21, "test")
    for model in (normal_mean, bernoulli):
        for bad in (0.5, np.array([0.1, 0.5]), np.zeros((3, 2))):
            with pytest.raises(DomainError, match="shape"):
                model.prior_logdensity(bad)
            with pytest.raises(DomainError, match="shape"):
                model.simulate(bad, 2, rng)


def test_prior_integrates_to_one(normal_mean, bernoulli):
    z, _ = integrate.quad(lambda t: math.exp(normal_mean.prior_logdensity([t])), -12, 12)
    assert z == pytest.approx(1.0, abs=1e-9)
    z, _ = integrate.quad(lambda t: math.exp(bernoulli.prior_logdensity([t])), 0, 1)
    assert z == pytest.approx(1.0, abs=1e-12)


def test_simulate_variance(normal_mean):
    rng = substream(13, "test")
    bundle = normal_mean.simulate([0.0], 100_000, rng)
    assert bundle.shape == (100_000, 1)
    assert np.var(bundle) == pytest.approx(1.0, rel=0.05)


def test_simulate_shapes_and_support(normal_mean, bernoulli):
    rng = substream(14, "test")
    assert normal_mean.simulate([0.3], 1, rng).shape == (1, 1)
    t = bernoulli.simulate([0.5], 500, rng)
    assert set(np.unique(t)).issubset(set(float(x) for x in range(21)))


def test_simulate_outside_support_raises(bernoulli, normal_mean):
    rng = substream(15, "test")
    with pytest.raises(DomainError):
        bernoulli.simulate([1.5], 3, rng)
    with pytest.raises(DomainError):
        normal_mean.simulate([np.inf], 3, rng)


def test_bundle_independence_lag1(normal_mean):
    rng = substream(16, "test")
    s = 100_000
    bundle = normal_mean.simulate([0.7], s, rng)[:, 0]
    lag1 = np.corrcoef(bundle[:-1], bundle[1:])[0, 1]
    assert abs(lag1) < 4.0 / math.sqrt(s)


# -- oracles ---------------------------------------------------------------


def test_conjugate_oracle_density_value(normal_mean):
    kernel = SmoothingKernel("gaussian", 1.0)
    # smoothing inflates the likelihood variance to tau^2 + h^2 = 2,
    # so the posterior is Normal(0, 2/3)
    oracle = normal_mean.oracle(0.0, kernel)
    val = oracle.posterior_density(0.0)
    assert val == pytest.approx(0.48860251190292, abs=1e-10)
    assert oracle.posterior_variance == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert oracle.posterior_mean == pytest.approx(0.0, abs=1e-12)


def test_large_bandwidth_recovers_prior(normal_mean):
    oracle = normal_mean.oracle(0.0, SmoothingKernel("gaussian", 100.0))
    assert oracle.posterior_variance == pytest.approx(1.0, rel=1e-3)


def test_conjugate_oracle_matches_quadrature(normal_mean):
    # independent check of the closed form against direct integration
    kernel = SmoothingKernel("gaussian", 1.0)
    oracle = normal_mean.oracle(0.3, kernel)

    def unnorm(th):
        inner, _ = integrate.quad(
            lambda t: kernel.evaluate(np.array([0.3 - t])) * stats.norm.pdf(t, th, 1.0),
            th - 10, th + 10)
        return stats.norm.pdf(th, 0, 1) * inner

    z, _ = integrate.quad(unnorm, -10, 10, limit=200)
    for th in (-0.5, 0.0, 0.8):
        assert oracle.posterior_density(th) == pytest.approx(unnorm(th) / z, rel=1e-7)


def test_oracle_normalization_and_cdf(normal_mean):
    for kind, h in (("gaussian", 1.0), ("uniform", 0.8), ("epanechnikov", 1.2)):
        oracle = normal_mean.oracle(0.0, SmoothingKernel(kind, h))
        z, _ = integrate.quad(oracle.posterior_density, -10, 10, limit=300)
        assert z == pytest.approx(1.0, abs=1e-6)
        grid = np.linspace(-8, 8, 200)
        cdf = oracle.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-7)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-7)


def test_bernoulli_exact_match_oracle_is_beta(bernoulli):
    kernel = SmoothingKernel("uniform", 0.5)
    oracle = bernoulli.oracle(6.0, kernel)
    ref = stats.beta(7, 15)
    grid = np.linspace(0.01, 0.99, 25)
    assert np.allclose(oracle.posterior_density(grid), ref.pdf(grid), rtol=1e-12)
    assert np.allclose(oracle.cdf(grid), ref.cdf(grid), rtol=1e-12)


def test_bernoulli_summation_oracle_cross_check(bernoulli):
    # wide-kernel summation oracle, verified against direct summation here
    kernel = SmoothingKernel("uniform", 2.5)
    oracle = bernoulli.oracle(6.0, kernel)

    def unnorm(th):
        ts = np.arange(21)
        kv = kernel.evaluate((6.0 - ts)[:, np.newaxis])
        return float(np.sum(kv * stats.binom.pmf(ts, 20, th)))

    z, _ = integrate.quad(unnorm, 0, 1)
    for th in (0.15, 0.3, 0.6):
        assert oracle.posterior_density(th) == pytest.approx(unnorm(th) / z, rel=1e-7)


def test_simulator_oracle_consistency(normal_mean):
    # Monte Carlo mean of the kernel over simulator draws matches the
    # smoothed-likelihood integral (unbiasedness of the pooled-kernel summand)
    kernel = SmoothingKernel("gaussian", 1.0)
    rng = substream(17, "test")
    theta = 0.5
    bundle = normal_mean.simulate([theta], 100_000, rng)
    mc = np.mean(kernel.evaluate(0.0 - bundle))
    exact = math.exp(float(normal_mean.smoothed_loglik(np.array([theta]), 0.0, kernel)[0]))
    assert mc == pytest.approx(exact, rel=0.01)


def test_oracle_capability_error():
    class Plain(NormalMeanModel):
        def oracle(self, t_y, kernel):
            raise CapabilityError("no oracle")

    with pytest.raises(CapabilityError):
        Plain().oracle(0.0, SmoothingKernel("gaussian", 1.0))


def _eager_grid_moments(unnorm, lo, hi):
    """(mean, variance) computed as the grid oracle once did when built: three quads."""
    def quad(f):
        return integrate.quad(f, lo, hi, epsabs=1e-12, limit=400)[0]

    z = quad(lambda x: float(unnorm(x)[0]))
    m1 = quad(lambda x: x * float(unnorm(x)[0]))
    m2 = quad(lambda x: x * x * float(unnorm(x)[0]))
    mean = m1 / z
    return mean, m2 / z - mean * mean


def test_grid_oracle_builds_with_one_quad_and_moments_on_read(monkeypatch):
    calls = []
    quad = integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(models.integrate, "quad", counting_quad)
    normal, bern = NormalMeanModel(), BernoulliCountModel(20)
    cases = [
        (normal, 0.3, SmoothingKernel("epanechnikov", 0.8), -12.0, 12.3),
        (bern, 6.0, SmoothingKernel("gaussian", 1.0), 0.0, 1.0),
    ]
    for model, t_y, kernel, lo, hi in cases:
        calls.clear()
        oracle = model.oracle(t_y, kernel)
        assert len(calls) == 1  # the normalizer only
        mean, var = oracle.posterior_mean, oracle.posterior_variance
        assert len(calls) == 3
        assert oracle.posterior_mean == mean and len(calls) == 3  # read once

        def unnorm(th, model=model, t_y=t_y, kernel=kernel):
            th = np.atleast_1d(np.asarray(th, dtype=float))
            loglik = model.smoothed_loglik(th, t_y, kernel)
            if isinstance(model, NormalMeanModel):
                loglik = loglik + stats.norm.logpdf(th, 0.0, 1.0)
            return np.exp(loglik)

        ref_mean, ref_var = _eager_grid_moments(unnorm, lo, hi)
        assert (mean, var) == (ref_mean, ref_var)  # bit for bit


def test_bernoulli_smoothed_loglik_skips_zero_kernel_terms_bit_for_bit(monkeypatch):
    model = BernoulliCountModel(20)
    ts = np.arange(21, dtype=float)
    thetas = np.concatenate([np.linspace(0.0, 1.0, 2001), [1e-300, 0.5 + 1e-16]])
    pmf = stats.binom.pmf
    rows = []

    def counting_pmf(k, n, p):
        rows.append(np.size(k))
        return pmf(k, n, p)

    monkeypatch.setattr(stats.binom, "pmf", counting_pmf)
    for kind, h, t_y in [("epanechnikov", 0.25, 7.0), ("epanechnikov", 1.5, 7.0),
                         ("epanechnikov", 0.3, 0.0), ("uniform", 0.5, 6.5),
                         ("uniform", 3.7, 20.0), ("gaussian", 1.0, 7.0)]:
        kernel = SmoothingKernel(kind, h)
        kvals = kernel.evaluate((t_y - ts)[:, np.newaxis])
        with np.errstate(divide="ignore"):
            full = np.log(kvals @ pmf(ts[:, np.newaxis], 20, thetas[np.newaxis, :]))
        rows.clear()
        got = model.smoothed_loglik(thetas, t_y, kernel)
        assert rows == [np.count_nonzero(kvals)], (kind, h, t_y)
        assert got.tobytes() == full.tobytes(), (kind, h, t_y)


def test_make_model_registry():
    m = make_model("normal-mean", prior_mean=1.0, prior_sd=2.0, tau=0.5)
    assert m.hyperparameters() == {"prior_mean": 1.0, "prior_sd": 2.0, "tau": 0.5}
    b = make_model("bernoulli-count", trials=10)
    assert b.trials == 10
    with pytest.raises(ConfigurationError):
        make_model("unknown-model")


# -- package namespace -------------------------------------------------------


def test_public_names_resolve_and_test_only_names_are_gone():
    import lfs

    for name in lfs.__all__:
        assert getattr(lfs, name) is not None, name
    test_only = ("CountingModel", "oracle_density", "resample_systematic")
    assert not set(test_only) & set(lfs.__all__)
    for name in test_only:
        assert not hasattr(lfs, name), name
    assert not hasattr(lfs.SummaryDistance, "between")
