import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats

from lfs import models
from lfs.errors import CapabilityError, ConfigurationError, DomainError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import ProposalSpec
from lfs.models import BernoulliCountModel, NormalMeanModel, make_model
from lfs.rng import substream
from lfs.smc import mixture_logdensity


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
    thetas = np.array([[-1.2], [0.0], [0.4], [2.0], [np.nan]])
    for model in (normal_mean, bernoulli):
        batch = model.prior_logdensity(thetas)
        single = [model.prior_logdensity(t) for t in thetas]
        assert np.array_equal(batch, single)
        # one theta's log prior is a scalar (np.float64 is a float), not a 0-d array
        assert all(isinstance(lp, float) for lp in single), model.name


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
            proposal = ProposalSpec(kind)
            prop = proposal.sample(theta, model, substream(20, model.name, kind))
            props = proposal.sample(thetas, model, substream(20, model.name, kind))
            same(prop, props)
            same(proposal.logdensity(theta, prop, model),
                 proposal.logdensity(thetas, props, model))
            same(np.asarray(proposal.log_q_ratio(theta, prop, model)),
                 np.broadcast_to(proposal.log_q_ratio(thetas, props, model), (1,)))


def test_unset_step_sd_is_half_the_prior_sd_bit_for_bit(normal_mean, bernoulli):
    # ProposalSpec() reads its step from the model wherever it is used
    for model in (normal_mean, bernoulli):
        unset, explicit = ProposalSpec(), ProposalSpec(step_sd=model.prior_sd() / 2)
        thetas = np.full((6, 1), 0.5)
        props = [p.sample(thetas, model, substream(23, model.name)) for p in (unset, explicit)]
        assert props[0].tobytes() == props[1].tobytes()
        prop = props[0]
        log_w = np.log(np.full(6, 1.0 / 6.0))
        for f in (lambda p: p.logdensity(thetas, prop, model),
                  lambda p: p.log_q_ratio(thetas, prop, model),
                  lambda p: mixture_logdensity(thetas, log_w, prop, p, model)):
            assert np.asarray(f(unset)).tobytes() == np.asarray(f(explicit)).tobytes()


def test_non_finite_theta_has_zero_prior_density(normal_mean, bernoulli):
    for model in (normal_mean, bernoulli):
        for bad in (np.nan, np.inf, -np.inf):
            assert model.prior_logdensity(np.array([bad])) == -np.inf
        lp = model.prior_logdensity(np.array([[0.5], [np.nan], [np.inf], [-np.inf]]))
        assert lp[0] > -np.inf
        assert np.all(lp[1:] == -np.inf)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, -1e300, 1e160])
       | st.floats(-50.0, 50.0))
def test_one_thetas_prior_is_the_batch_composition_bit_for_bit(theta):
    # one theta's log prior is a numpy scalar, mapped from NaN to -inf by max in
    # place of np.fmax; it must be row 0 of the batch of one, which keeps np.fmax
    model = NormalMeanModel(0.3, 1.7)
    with np.errstate(over="ignore", invalid="ignore"):
        lone = model.prior_logdensity(np.array([theta]))
        batch = model.prior_logdensity(np.array([[theta]]))
        z = (np.array(theta) - 0.3) / 1.7  # the composition before the scalar path
        ref = np.fmax(-0.5 * z * z - math.log(1.7) - 0.5 * math.log(2.0 * math.pi), -np.inf)
    assert np.asarray(lone).tobytes() == batch[0].tobytes() == np.asarray(ref).tobytes()


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
    # one bad row in a batch, NaN included, fails the whole call
    for model, bad in ((bernoulli, -1e-300), (bernoulli, np.nan), (normal_mean, -np.inf),
                       (normal_mean, np.nan)):
        with pytest.raises(DomainError):
            model.simulate(np.array([[0.5], [bad], [0.25]]), 3, rng)


def test_bundle_independence_lag1(normal_mean):
    rng = substream(16, "test")
    s = 100_000
    bundle = normal_mean.simulate([0.7], s, rng)[:, 0]
    lag1 = np.corrcoef(bundle[:-1], bundle[1:])[0, 1]
    assert abs(lag1) < 4.0 / math.sqrt(s)


# -- oracles ---------------------------------------------------------------


def test_conjugate_oracle_cdf_value(normal_mean):
    kernel = SmoothingKernel("gaussian", 1.0)
    # smoothing inflates the likelihood variance to tau^2 + h^2 = 2,
    # so the posterior is Normal(0, 2/3)
    oracle = normal_mean.oracle(0.0, kernel)
    assert oracle.cdf(1.0) == pytest.approx(0.8896643190400766, abs=1e-10)
    assert oracle.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    grid = np.linspace(-4.0, 4.0, 81)
    assert np.allclose(oracle.cdf(grid), stats.norm.cdf(grid, 0.0, math.sqrt(2.0 / 3.0)),
                       rtol=0.0, atol=1e-12)


def test_large_bandwidth_recovers_prior(normal_mean):
    oracle = normal_mean.oracle(0.0, SmoothingKernel("gaussian", 100.0))
    # a centred normal whose variance is within 0.1% of the prior's differs
    # from the prior's cdf by at most max(x phi(x)) * 0.0005 = phi(1) * 0.0005
    grid = np.linspace(-5.0, 5.0, 201)
    assert np.allclose(oracle.cdf(grid), stats.norm.cdf(grid), rtol=0.0, atol=1.21e-4)


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
    mass, lo = 0.0, -10.0
    for th in (-0.5, 0.0, 0.8):
        mass += integrate.quad(unnorm, lo, th, limit=200)[0]
        lo = th
        assert oracle.cdf(th) == pytest.approx(mass / z, rel=1e-7)


def test_oracle_normalization_and_cdf(normal_mean):
    for kind, h in (("gaussian", 1.0), ("uniform", 0.8), ("epanechnikov", 1.2)):
        kernel = SmoothingKernel(kind, h)
        oracle = normal_mean.oracle(0.0, kernel)

        def unnorm(th, kernel=kernel):
            loglik = normal_mean.smoothed_loglik(np.array([th]), 0.0, kernel)[0]
            return stats.norm.pdf(th, 0.0, 1.0) * math.exp(loglik)

        z, _ = integrate.quad(unnorm, -10, 10, limit=300)
        for th in (-1.0, 0.0, 0.5, 2.0):
            mass, _ = integrate.quad(unnorm, -10, th, limit=300)
            assert oracle.cdf(th) == pytest.approx(mass / z, abs=1e-6), (kind, th)
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
    # flat prior: the posterior density is the smoothed likelihood, which for
    # the exact match is the binomial pmf, and Beta(7, 15)'s pdf is 21 times it
    lik = np.exp(bernoulli.smoothed_loglik(grid, 6.0, kernel))
    assert np.allclose(21.0 * lik, ref.pdf(grid), rtol=1e-12)
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
        lik = math.exp(bernoulli.smoothed_loglik(np.array([th]), 6.0, kernel)[0])
        assert lik == pytest.approx(unnorm(th), rel=1e-7)
        mass, _ = integrate.quad(unnorm, 0, th)
        assert oracle.cdf(th) == pytest.approx(mass / z, rel=1e-7)


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


def test_grid_oracle_builds_with_one_quad(monkeypatch):
    calls = []
    quad = integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counting_quad)
    normal, bern = NormalMeanModel(), BernoulliCountModel(20)
    cases = [
        (normal, 0.3, SmoothingKernel("epanechnikov", 0.8), -12.0, 12.3),
        (bern, 6.0, SmoothingKernel("gaussian", 1.0), 0.0, 1.0),
    ]
    for model, t_y, kernel, lo, hi in cases:
        calls.clear()
        oracle = model.oracle(t_y, kernel)
        assert calls == [(lo, hi)]  # the normalizer only
        oracle.cdf(np.linspace(lo, hi, 101))
        assert len(calls) == 1


# -- scipy-free normal formulas: the bits of stats.norm ----------------------

_NORM_FORMULAS = (("logpdf", models._norm_logpdf), ("cdf", models._norm_cdf))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_norm_formulas_match_scipy_bit_for_bit_at_edge_inputs():
    tiny = 5e-324
    x = np.array([-np.inf, np.inf, 0.0, -0.0, tiny, -tiny, 2e-310, 1e-300, 0.7,
                  0.7 + 1e-16, 1.9, -3.0, 8.0, 38.5, 39.0, -40.0, 1e10, -1e150, 1e200])
    locs_scales = [(0.0, 1.0), (0.7, 1.9), (-3.0, 0.45), (1e-310, 1.0),
                   (2e-310, 3e-310), (0.0, 1e-300), (1e10, 1e-5)]
    for name, formula in _NORM_FORMULAS:
        scipy_fn = getattr(stats.norm, name)
        for loc, scale in locs_scales:
            with np.errstate(all="ignore"):
                got, ref = formula(x, loc, scale), scipy_fn(x, loc, scale)
            assert _same_bits(got, ref), (name, loc, scale)
            for xi in (0.0, 0.7, -np.inf):
                with np.errstate(all="ignore"):
                    assert _same_bits(formula(xi, loc, scale), scipy_fn(xi, loc, scale))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(1, 40), elements=st.floats(allow_nan=False, width=64)),
       st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
def test_norm_formulas_match_scipy_bit_for_bit(x, loc, scale):
    for name, formula in _NORM_FORMULAS:
        with np.errstate(all="ignore"):
            assert _same_bits(formula(x, loc, scale), getattr(stats.norm, name)(x, loc, scale))


def _scipy_smoothed_loglik(model, thetas, t_y, kernel):
    """``NormalMeanModel.smoothed_loglik`` as written with scipy.stats.norm."""
    thetas = np.asarray(thetas, dtype=float)
    h, tau = kernel.bandwidth, model.tau
    if kernel.kind == "gaussian":
        s2 = tau * tau + h * h
        return -0.5 * (t_y - thetas) ** 2 / s2 - 0.5 * math.log(2.0 * math.pi * s2)
    if kernel.kind == "uniform":
        hi = stats.norm.cdf((t_y + h - thetas) / tau)
        lo = stats.norm.cdf((t_y - h - thetas) / tau)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(hi - lo, 0.0)) - math.log(2.0 * h)
    u = h * models._GL_NODES
    kern = 0.75 / h * (1.0 - (u / h) ** 2)
    vals = stats.norm.pdf(t_y - u[:, np.newaxis], thetas[np.newaxis, :], tau)
    with np.errstate(divide="ignore"):
        return np.log((h * models._GL_WEIGHTS) @ (kern[:, np.newaxis] * vals))


def _scipy_oracle(model, t_y, kernel):
    """``NormalMeanModel.oracle`` as written with scipy.stats.norm."""
    if kernel.kind == "gaussian":
        lik_var = model.tau**2 + kernel.bandwidth**2
        prec = 1.0 / model._prior_sd**2 + 1.0 / lik_var
        post_var = 1.0 / prec
        post_mean = post_var * (model.prior_mean / model._prior_sd**2 + t_y / lik_var)
        post_sd = math.sqrt(post_var)
        return models.AnalyticOracle(lambda th: stats.norm.cdf(th, post_mean, post_sd))

    def unnorm(th):
        th = np.atleast_1d(np.asarray(th, dtype=float))
        lp = stats.norm.logpdf(th, model.prior_mean, model._prior_sd)
        return np.exp(lp + _scipy_smoothed_loglik(model, th, t_y, kernel))

    lo = min(model.prior_mean, t_y) - 12.0 * model._prior_sd
    hi = max(model.prior_mean, t_y) + 12.0 * model._prior_sd
    return models._grid_oracle(unnorm, lo, hi)


# tau, prior sd and prior mean away from 1, 1 and 0, so a misplaced
# division by a scale or shift by a location changes the bits
_SCALED_NORMAL = NormalMeanModel(prior_mean=0.6, prior_sd_value=1.7, tau=0.45)


@pytest.mark.parametrize("kind, h, t_y", [("gaussian", 0.7, 0.9), ("uniform", 0.3, 0.9),
                                          ("uniform", 2.5, -1.1),
                                          ("epanechnikov", 0.1, 0.9),
                                          ("epanechnikov", 1.3, -1.1)])
def test_normal_mean_oracle_matches_the_scipy_code_bit_for_bit(kind, h, t_y):
    model, kernel = _SCALED_NORMAL, SmoothingKernel(kind, h)
    thetas = np.concatenate([np.linspace(-20.0, 20.0, 4001), [np.inf, -np.inf, 0.0]])
    with np.errstate(all="ignore"):
        assert _same_bits(model.smoothed_loglik(thetas, t_y, kernel),
                          _scipy_smoothed_loglik(model, thetas, t_y, kernel))
    got, ref = model.oracle(t_y, kernel), _scipy_oracle(model, t_y, kernel)
    grid = np.linspace(-8.0, 10.0, 2001)
    assert _same_bits(got.cdf(grid), ref.cdf(grid))
    assert _same_bits(got.cdf(0.25), ref.cdf(0.25))


@pytest.mark.parametrize("trials", [20, 5])
def test_exact_match_beta_oracle_matches_scipy_stats_beta_bit_for_bit(trials):
    model, kernel = BernoulliCountModel(trials), SmoothingKernel("uniform", 0.5)
    # outside [0, 1], both endpoints and their neighbours, and non-finite inputs
    grid = np.concatenate([np.linspace(-0.5, 1.5, 2001),
                           [0.0, -0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0),
                            np.nextafter(1.0, 2.0), np.inf, -np.inf]])
    for t_y in range(trials + 1):
        got, ref = model.oracle(float(t_y), kernel), stats.beta(t_y + 1.0, trials - t_y + 1.0)
        assert _same_bits(got.cdf(grid), ref.cdf(grid)), t_y
        for theta in (-0.25, 0.0, 0.3, 1.0, 1.25):
            assert _same_bits(got.cdf(theta), ref.cdf(theta)), (t_y, theta)


def test_epanechnikov_oracle_build_is_small_and_calls_no_scipy_norm(monkeypatch):
    # the 64-node x 50,001-point density matrix is one 24.4 MiB buffer; scipy's
    # norm.pdf held about six such arrays at once (a 150 MiB peak)
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.stats.norm called while building the oracle")

    for name in ("pdf", "logpdf", "cdf", "sf", "ppf"):
        monkeypatch.setattr(stats.norm, name, refuse)
    tracemalloc.start()
    try:
        oracle = NormalMeanModel().oracle(0.0, SmoothingKernel("epanechnikov", 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20, f"oracle build peaked at {peak / 2**20:.1f} MiB"
    assert oracle.cdf(0.0) == pytest.approx(0.5, abs=1e-9)


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
    assert (m.prior_mean, m.prior_sd()[0], m.tau) == (1.0, 2.0, 0.5)
    b = make_model("bernoulli-count", trials=10)
    assert b.trials == 10
    with pytest.raises(ConfigurationError):
        make_model("unknown-model")


# -- package namespace -------------------------------------------------------


def test_public_names_resolve_and_test_only_names_are_gone():
    import lfs
    import lfs.output  # not loaded by `import lfs`; the test must not rely on another's import

    for name in lfs.__all__:
        assert getattr(lfs, name) is not None, name
    test_only = ("CountingModel", "oracle_density", "resample_systematic")
    assert not set(test_only) & set(lfs.__all__)
    for name in test_only:
        assert not hasattr(lfs, name), name
    assert not hasattr(lfs.SummaryDistance, "between")
    # second copies and unreached names, deleted
    gone = [(lfs, "incremental_weight_joint"), (lfs.smc, "incremental_weight_joint"),
            (lfs.ProposalSpec, "resolved"), (lfs.SmoothingKernel, "log_evaluate"),
            (lfs.Model, "hyperparameters"), (lfs.NormalMeanModel, "hyperparameters"),
            (lfs.BernoulliCountModel, "hyperparameters"), (lfs.diagnostics, "ks_2sample"),
            (lfs.output, "format_float"), (lfs.models, "_norm_pdf"), (lfs.models, "_beta_pdf"),
            (lfs.target, "marginal_logestimate"), (lfs.smc, "ParticleSystem"),
            (lfs.mcmc, "_simulate_rows")]
    # an oracle is only its cdf
    oracle = lfs.NormalMeanModel().oracle(0.0, lfs.SmoothingKernel("gaussian", 1.0))
    gone += [(oracle, name) for name in ("posterior_density", "posterior_mean",
                                         "posterior_variance")]
    assert "incremental_weight_joint" not in lfs.__all__
    # used inside the library and by its tests only: importable from their own module
    internal = {lfs.target: ("AugmentedState", "joint_logdensity_unnorm", "mh_step", "mh_move",
                             "propose"),
                lfs.smc: ("ess", "incremental_weight_backward",
                          "incremental_weight_joint_general")}
    for module, names in internal.items():
        for name in names:
            assert hasattr(module, name) and name not in lfs.__all__, name
            gone.append((lfs, name))
    for owner, name in gone:
        assert not hasattr(owner, name), (owner, name)
