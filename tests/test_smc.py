import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lfs
from helpers import CountingModel, NanBundleModel
from lfs.diagnostics import ks_2sample_permutation, weighted_moments
from lfs.errors import ConfigurationError, DomainError, ParticleCollapseError
from lfs.kernels import SmoothingKernel
from lfs.mcmc import ProposalSpec
from lfs.models import BernoulliCountModel, NormalMeanModel
from lfs.rejection import run_rejection
from lfs.rng import substream
from lfs.smc import (BACKWARD_KERNEL, JOINT_MCMC_MOVE, BandwidthSchedule,
                     SmcVariantSpec, apply_particle_rejection, ess,
                     incremental_weight_backward, incremental_weight_joint,
                     incremental_weight_joint_general, mixture_logdensity,
                     normalize_log_weights, run_smc, systematic_indices)
from lfs.target import joint_logdensity_unnorm, mh_step

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _dense_mixture_logdensity(prev_thetas, prev_log_weights, new_thetas, mutation, model):
    """The original (N_prev, M, d) broadcast implementation, kept as the reference."""
    new_thetas = np.atleast_2d(np.asarray(new_thetas, dtype=float))
    if mutation.kind == "prior":
        return model.prior_logdensity(new_thetas)
    prev_thetas = np.atleast_2d(np.asarray(prev_thetas, dtype=float))
    step = mutation.step_sd if mutation.step_sd is not None else model.prior_sd() / 2.0
    z = (new_thetas[np.newaxis, :, :] - prev_thetas[:, np.newaxis, :]) / step
    log_m = np.sum(-0.5 * z * z - np.log(step) - _LOG_SQRT_2PI, axis=-1)  # (N_prev, M)
    terms = prev_log_weights[:, np.newaxis] + log_m
    m = np.max(terms, axis=0)
    with np.errstate(invalid="ignore"):
        out = m + np.log(np.sum(np.exp(terms - m[np.newaxis, :]), axis=0))
    return np.where(np.isneginf(m), -np.inf, out)


@pytest.fixture
def model():
    return NormalMeanModel()


@pytest.fixture
def kernel():
    return SmoothingKernel("gaussian", 1.0)


# -- schedules ---------------------------------------------------------------


def test_schedule_validation():
    BandwidthSchedule.geometric(2.0, 0.5, 6)
    BandwidthSchedule([3.0, 1.0, 0.2])
    with pytest.raises(ConfigurationError):
        BandwidthSchedule([1.0, 1.0])
    with pytest.raises(ConfigurationError):
        BandwidthSchedule([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        BandwidthSchedule([1.0, -0.5])
    with pytest.raises(ConfigurationError):
        BandwidthSchedule.geometric(0.5, 2.0, 4)
    single = BandwidthSchedule.geometric(2.0, 0.4, 1)
    assert list(single.values) == [0.4]


def test_variant_spec_validation():
    SmcVariantSpec(BACKWARD_KERNEL, rejection_threshold=0.3)
    with pytest.raises(ConfigurationError):
        SmcVariantSpec(JOINT_MCMC_MOVE, rejection_threshold=0.3)
    with pytest.raises(ConfigurationError):
        SmcVariantSpec(BACKWARD_KERNEL, rejection_threshold=1.5)
    with pytest.raises(ConfigurationError):
        SmcVariantSpec("bogus")


# -- effective sample size and resampling ------------------------------------


def test_ess_values():
    assert ess(np.full(100, 0.01)) == pytest.approx(100.0)
    w = np.zeros(8)
    w[3] = 1.0
    assert ess(w) == pytest.approx(1.0)
    assert ess(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0)


def test_systematic_equal_weights_identity():
    rng = substream(1, "resample")
    idx = systematic_indices(np.full(64, 1.0 / 64), rng)
    assert np.array_equal(idx, np.arange(64))


def test_systematic_degenerate():
    rng = substream(2, "resample")
    w = np.zeros(10)
    w[4] = 1.0
    assert np.all(systematic_indices(w, rng) == 4)


def test_systematic_unbiased_offspring_counts():
    rng = substream(3, "resample")
    w = rng.dirichlet(np.ones(12))
    n = w.size
    counts = np.zeros((10_000, n))
    for r in range(counts.shape[0]):
        idx = systematic_indices(w, rng)
        counts[r] = np.bincount(idx, minlength=n)
    mean_counts = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / math.sqrt(counts.shape[0])
    assert np.all(np.abs(mean_counts - n * w) <= 3.0 * np.maximum(se, 1e-12))


# -- incremental weights ------------------------------------------------------


def _joint_weight(kernel, bundles, h_new, h_prev):
    return incremental_weight_joint(kernel.with_bandwidth(h_new).log_pooled(0.0, bundles),
                                    kernel.with_bandwidth(h_prev).log_pooled(0.0, bundles))


def test_joint_weight_zero_when_bandwidth_unchanged(kernel):
    bundle = np.array([[0.3], [1.1]])
    assert _joint_weight(kernel, bundle, 0.8, 0.8) == 0.0


def test_joint_weight_uniform_rescaling():
    kernel = SmoothingKernel("uniform", 1.0)
    bundle = np.array([[0.1], [-0.2]])  # inside both supports
    w = _joint_weight(kernel, bundle, 0.5, 1.0)
    assert w == pytest.approx(math.log(1.0 / 0.5), abs=1e-12)


def test_joint_weight_killed_by_tightening():
    kernel = SmoothingKernel("uniform", 1.0)
    bundle = np.array([[0.8], [0.9]])  # in (0.5, 1.0]
    assert _joint_weight(kernel, bundle, 0.5, 1.0) == -np.inf


def test_joint_weight_vectorized_over_particles():
    # the three cases above as one batch of particles, plus one dead at both
    # bandwidths, give the same weights row by row
    kernel = SmoothingKernel("uniform", 1.0)
    bundles = np.array([[[0.1], [-0.2]], [[0.8], [0.9]], [[3.0], [4.0]]])
    w = _joint_weight(kernel, bundles, 0.5, 1.0)
    assert w[0] == pytest.approx(math.log(1.0 / 0.5), abs=1e-12)
    assert w[1] == -np.inf and w[2] == -np.inf


def test_joint_general_double_neginf():
    assert incremental_weight_joint_general(-np.inf, 0.0, 0.0, -np.inf, 0.0, 0.0) == -np.inf
    got = incremental_weight_joint_general(-1.0, -2.0, -0.5, -1.5, -2.5, -0.25)
    assert got == pytest.approx(((-1.0 + -2.0) + -0.5) - ((-1.5 + -2.5) + -0.25))
    batch = incremental_weight_joint_general(
        np.array([-np.inf, -1.0]), np.array([0.0, -2.0]), np.array([0.0, -0.5]),
        np.array([-np.inf, -1.5]), np.array([0.0, -2.5]), np.array([0.0, -0.25]))
    assert batch[0] == -np.inf and batch[1] == got


def test_backward_weight_single_parent(model):
    mutation = ProposalSpec("random-walk", 0.5)
    theta_new = np.array([[0.4]])
    prev = np.array([[0.1]])
    m = mutation.logdensity(prev[0], theta_new[0], model)
    p = -1.7
    w = incremental_weight_backward(theta_new, np.array([p]), prev, np.log([1.0]),
                                    mutation, model)
    assert w.shape == (1,)
    assert w[0] == pytest.approx(p - m, abs=1e-12)


def test_backward_weight_two_parent_mixture(model):
    mutation = ProposalSpec("random-walk", 0.7)
    theta_new = np.array([[0.0]])
    prev = np.array([[-0.3], [0.5]])
    m1 = math.exp(mutation.logdensity(prev[0], theta_new[0], model))
    m2 = math.exp(mutation.logdensity(prev[1], theta_new[0], model))
    p = -0.9
    w = incremental_weight_backward(theta_new, np.array([p]), prev, np.log([0.5, 0.5]),
                                    mutation, model)
    assert w[0] == pytest.approx(p - math.log(0.5 * m1 + 0.5 * m2), abs=1e-10)


def test_backward_weight_vectorized_over_new_particles(model):
    # a batch of new particles gets, row by row, the weight each gets alone
    mutation = ProposalSpec("random-walk", 0.7)
    prev = np.array([[-0.3], [0.5], [1.2]])
    prev_logw = np.log([0.2, 0.5, 0.3])
    new = np.array([[0.0], [0.9], [-1.4], [0.3]])
    log_num = np.array([-0.9, -np.inf, -2.2, -0.4])
    w = incremental_weight_backward(new, log_num, prev, prev_logw, mutation, model)
    for i in range(new.shape[0]):
        alone = incremental_weight_backward(new[i:i + 1], log_num[i:i + 1], prev,
                                            prev_logw, mutation, model)
        assert w[i] == alone[0]
    assert w[1] == -np.inf


def test_backward_weight_neginf_numerator(model):
    mutation = ProposalSpec("random-walk", 0.5)
    w = incremental_weight_backward(np.array([[0.0]]), np.array([-np.inf]),
                                    np.array([[0.0]]), np.log([1.0]), mutation, model)
    assert w[0] == -np.inf


def test_backward_weight_all_zero_previous_weights_raises(model):
    with pytest.raises(ParticleCollapseError):
        incremental_weight_backward(np.array([[0.1]]), np.array([-1.0]),
                                    np.array([[0.0], [1.0]]), np.full(2, -np.inf),
                                    ProposalSpec("random-walk", 0.5), model)


def test_backward_weight_collapse_raises_under_optimize():
    # the check must survive ``python -O``, which strips assert statements
    code = (
        "import numpy as np\n"
        "from lfs.errors import ParticleCollapseError\n"
        "from lfs.mcmc import ProposalSpec\n"
        "from lfs.models import NormalMeanModel\n"
        "from lfs.smc import incremental_weight_backward\n"
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "try:\n"
        "    incremental_weight_backward(np.array([[0.1]]), np.array([-1.0]),\n"
        "                                np.array([[0.0], [1.0]]), np.full(2, -np.inf),\n"
        "                                ProposalSpec('random-walk', 0.5), NormalMeanModel())\n"
        "except ParticleCollapseError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lfs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _mixture_case(seed, n_prev, m, d, n_dead=0):
    rng = substream(seed, "mixture-case")
    prev = rng.normal(0.0, 1.5, size=(n_prev, d))
    new = prev[rng.integers(0, n_prev, size=m)] + rng.normal(0.0, 0.8, size=(m, d))
    log_w = rng.normal(0.0, 2.0, size=n_prev)
    log_w[rng.choice(n_prev, size=n_dead, replace=False)] = -np.inf
    live = np.isfinite(log_w)
    log_w[live] -= np.log(np.sum(np.exp(log_w[live])))
    return prev, log_w, new


@pytest.mark.parametrize("n_prev, m, d, step_sd, n_dead", [
    (1000, 777, 1, None, 0),          # default step; M, N not multiples of the rows
    (1000, 1, 1, 0.4, 0),             # a single new point
    (333, 1234, 2, [0.3, 1.7], 0),    # per-dimension step
    (70_000, 3, 1, 0.5, 0),           # N_prev beyond one block: one child per block
    (500, 200, 1, 0.5, 123),          # some dead parents
    (400, 150, 2, [0.6, 0.2], 399),   # a single live parent
])
def test_blocked_mixture_matches_dense(model, n_prev, m, d, step_sd, n_dead):
    prev, log_w, new = _mixture_case(n_prev + m, n_prev, m, d, n_dead)
    mutation = ProposalSpec("random-walk", step_sd)
    got = mixture_logdensity(prev, log_w, new, mutation, model)
    expected = _dense_mixture_logdensity(prev, log_w, new, mutation, model)
    assert got.shape == (m,)
    assert np.all(np.isfinite(expected))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_blocked_mixture_all_dead_parents(model):
    prev, _, new = _mixture_case(31, 50, 70, 1)
    got = mixture_logdensity(prev, np.full(50, -np.inf), new,
                             ProposalSpec("random-walk", 0.5), model)
    assert got.shape == (70,) and np.all(np.isneginf(got))


def test_blocked_mixture_memory_bounded(model):
    # the dense form would need 320 MB for each (N_prev, M) temporary
    prev, log_w, new = _mixture_case(32, 20_000, 2_000, 1)
    tracemalloc.start()
    try:
        out = mixture_logdensity(prev, log_w, new, ProposalSpec("random-walk", 0.5), model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert peak < 16 * 2**20


def test_mixture_prior_mutation(model):
    mutation = ProposalSpec("prior")
    new = np.array([[0.3], [5.0]])
    got = mixture_logdensity(np.array([[0.0]]), np.array([0.0]), new, mutation, model)
    expected = model.prior_logdensity(new)
    assert np.array_equal(got, expected)


# -- particle rejection thresholding -----------------------------------------


def test_particle_rejection_expected_weight():
    rng = substream(4, "thresh")
    n = 10
    w = np.array([0.30, 0.25, 0.20, 0.10, 0.05,
                  0.04, 0.03, 0.02, 0.006, 0.004])
    w = w / w.sum()
    c = 0.5
    cutoff = c / n
    acc = np.zeros(n)
    reps = 20_000
    for _ in range(reps):
        acc += apply_particle_rejection(w, c, rng)
    mean_w = acc / reps
    below = w < cutoff
    # unbiasedness in expectation, and untouched above the threshold
    assert np.allclose(mean_w[~below], w[~below])
    se = np.sqrt(w[below] * cutoff / reps)  # Bernoulli(w/cutoff) * cutoff scale
    assert np.all(np.abs(mean_w[below] - w[below]) < 4.0 * se + 1e-12)


def test_particle_rejection_values():
    rng = substream(5, "thresh")
    w = np.array([0.5, 0.3, 0.15, 0.04, 0.01])
    out = apply_particle_rejection(w, 0.5, rng)
    cutoff = 0.5 / w.size
    for orig, new in zip(w, out):
        if orig >= cutoff:
            assert new == orig
        else:
            assert new in (0.0, cutoff)


# -- full runs ----------------------------------------------------------------


def test_joint_move_reference_run(model, kernel):
    schedule = BandwidthSchedule.geometric(2.0, 0.25, 15)
    out = run_smc(model, kernel, schedule, 1, 2000, JOINT_MCMC_MOVE, ProposalSpec(),
                  seed=3, t_y=0.0)
    mean, var = weighted_moments(out.thetas, out.weights)
    oracle_var = 1.0 / (1.0 + 1.0 / (1.0 + 0.25**2))  # 0.51515...
    se = math.sqrt(var[0] / out.ess_trace[-1])
    assert abs(mean[0]) < 3.0 * se
    assert var[0] == pytest.approx(oracle_var, rel=0.07)
    assert np.all(out.ess_trace >= 1.0) and np.all(out.ess_trace <= 2000.0)
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_move_records_replay_through_mh_step():
    # the random walk on bernoulli-count proposes outside [0, 1] at every step;
    # those particles get no move and are left out of the step's record
    model = BernoulliCountModel()
    kernel = SmoothingKernel("gaussian", 1.0)
    schedule = BandwidthSchedule.geometric(2.0, 0.3, 6)
    mutation = ProposalSpec().resolved(model)
    records = []
    run_smc(model, kernel, schedule, 2, 200, JOINT_MCMC_MOVE, mutation, seed=37, t_y=7.0,
            on_mutation=records.append)
    assert [rec.step for rec in records] == list(range(2, 7))
    assert any(rec.accepted.size < 200 for rec in records)
    for rec in records:
        assert np.all((rec.prop.theta >= 0.0) & (rec.prop.theta <= 1.0))
        kern = kernel.with_bandwidth(schedule.values[rec.step - 1])
        for state in (rec.prop, rec.curr):
            assert np.array_equal(state.log_num, joint_logdensity_unnorm(
                state.theta, state.bundle, 7.0, kern, model))
        log_q_ratio = mutation.log_q_ratio(rec.curr.theta, rec.prop.theta, model)
        log_ratio, accepted = mh_step(rec.prop.log_num, rec.curr.log_num, log_q_ratio, rec.u)
        assert np.array_equal(log_ratio, rec.log_ratio)
        assert np.array_equal(accepted, rec.accepted)


def test_backward_rejects_on_mutation(model, kernel):
    # the backward step makes no MH move, so a recorder would never be called
    records = []
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 4)
    with pytest.raises(ConfigurationError, match="on_mutation"):
        run_smc(model, kernel, schedule, 1, 100, BACKWARD_KERNEL, ProposalSpec(),
                seed=5, t_y=0.0, on_mutation=records.append)
    assert records == []


def test_single_step_schedule_matches_rejection_target(model, kernel):
    # a one-step run is a prior-weighted importance sample with weights
    # proportional to the pooled kernel; resampling it must be
    # indistinguishable from the rejection sampler's output
    schedule = BandwidthSchedule.geometric(2.0, 1.0, 1)
    out = run_smc(model, kernel, schedule, 1, 10_000, JOINT_MCMC_MOVE, ProposalSpec(),
                  seed=6, t_y=0.0)
    idx = systematic_indices(out.weights, substream(7, "resample"))
    smc_draws = out.thetas[idx, 0]
    rej = run_rejection(model, kernel, 0.0, 1, 10_000, seed=8)
    stat, pval = ks_2sample_permutation(smc_draws, rej.thetas[:, 0],
                                        substream(9, "perm"), n_perm=499)
    assert pval > 0.01


def test_backward_agrees_with_joint(model, kernel):
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 10)
    stats = {}
    for variant in (JOINT_MCMC_MOVE, BACKWARD_KERNEL):
        means = []
        for rep in range(5):
            out = run_smc(model, kernel, schedule, 1, 1000, variant, ProposalSpec(),
                          seed=100 + rep, t_y=0.0)
            means.append(weighted_moments(out.thetas, out.weights)[0][0])
        means = np.array(means)
        stats[variant] = (means.mean(), means.std(ddof=1) / math.sqrt(means.size))
    gap = abs(stats[JOINT_MCMC_MOVE][0] - stats[BACKWARD_KERNEL][0])
    tol = 3.0 * math.hypot(stats[JOINT_MCMC_MOVE][1], stats[BACKWARD_KERNEL][1])
    assert gap < tol


def test_backward_simulator_call_counts(model, kernel):
    counting = CountingModel(model)
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 6)
    n, s = 200, 3
    run_smc(counting, kernel, schedule, s, n, BACKWARD_KERNEL, ProposalSpec(),
            seed=10, t_y=0.0)
    # exactly S summaries per particle per step (including initialization),
    # nothing else — the mixture denominator never touches the simulator
    assert counting.n_summaries == n * s * schedule.n_steps
    assert counting.n_calls == n * schedule.n_steps
    before = counting.n_summaries
    incremental_weight_backward(np.array([[0.1]]), np.array([-1.0]), np.array([[0.0]]),
                                np.log([1.0]), ProposalSpec("random-walk", 0.5), counting)
    assert counting.n_summaries == before


def test_bandwidth_tightening_shrinks_support_sets(model):
    kernel = SmoothingKernel("uniform", 1.0)
    rng = substream(11, "fixed")
    bundles = model.simulate(model.prior_sample(rng, (400,)), 2, rng)
    alive_prev = None
    for h in (2.0, 1.4, 0.9, 0.5, 0.2):
        log_pooled = kernel.with_bandwidth(h).log_pooled(0.0, bundles)
        alive = set(np.flatnonzero(log_pooled > -np.inf))
        if alive_prev is not None:
            assert alive.issubset(alive_prev)
        alive_prev = alive


def test_total_collapse_raises(model):
    kernel = SmoothingKernel("uniform", 1.0)
    schedule = BandwidthSchedule([3.0, 1e-9])
    with pytest.raises(ParticleCollapseError) as err:
        run_smc(model, kernel, schedule, 1, 50, JOINT_MCMC_MOVE, ProposalSpec(),
                seed=12, t_y=0.0)
    assert err.value.step == 2


def test_normalize_log_weights_nan_raises():
    with pytest.raises(ParticleCollapseError) as err:
        normalize_log_weights(np.array([-1.0, np.nan, -2.0]), step=4)
    assert err.value.step == 4


def test_nan_simulator_output_raises_instead_of_nan_weights(kernel):
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 4)
    for variant in (BACKWARD_KERNEL, JOINT_MCMC_MOVE):
        with pytest.raises(DomainError, match="non-finite"):
            run_smc(NanBundleModel(), kernel, schedule, 2, 100, variant, ProposalSpec(),
                    seed=14, t_y=0.0)


def test_nan_simulator_output_raises_under_a_compact_kernel():
    # the uniform kernel maps a NaN summary to a kernel miss (|d| <= h is
    # False), so without a check at the simulator the run finishes with
    # finite weights computed against a different target
    kernel = SmoothingKernel("uniform", 1.0)
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 4)
    for variant in (BACKWARD_KERNEL, JOINT_MCMC_MOVE):
        with pytest.raises(DomainError, match="10 non-finite summaries out of 100"):
            run_smc(NanBundleModel(), kernel, schedule, 1, 100, variant, ProposalSpec(),
                    seed=14, t_y=0.0)


def test_backward_with_threshold_still_targets(model, kernel):
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 8)
    out = run_smc(model, kernel, schedule, 1, 1500,
                  SmcVariantSpec(BACKWARD_KERNEL, rejection_threshold=0.2),
                  ProposalSpec(), seed=13, t_y=0.0)
    mean, var = weighted_moments(out.thetas, out.weights)
    oracle_var = 1.0 / (1.0 + 1.0 / (1.0 + 0.25))
    se = math.sqrt(var[0] / out.ess_trace[-1])
    assert abs(mean[0]) < 4.0 * se
    assert var[0] == pytest.approx(oracle_var, rel=0.12)


def test_particle_system_views_and_resample(model, kernel):
    from lfs.smc import ParticleSystem

    rng = substream(20, "sys")
    thetas = model.prior_sample(rng, (6,))
    bundles = model.simulate(thetas, 2, rng)
    log_pooled = np.asarray(kernel.log_pooled(0.0, bundles))
    log_prior = model.prior_logdensity(thetas)
    log_w = np.log(np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05]))
    system = ParticleSystem(thetas, bundles, log_w, log_pooled, log_prior, k=1)
    # the cached values are the target's log_num of each particle
    assert system.log_pooled[2] + system.log_prior[2] == pytest.approx(
        joint_logdensity_unnorm(system.thetas[2], system.bundles[2], 0.0, kernel, model))
    assert 1.0 <= ess(system.normalized_weights()) <= 6.0
    system.resample(systematic_indices(system.normalized_weights(), substream(21, "sys")))
    assert system.log_weights.shape == (6,)
    assert np.allclose(system.normalized_weights(), 1.0 / 6.0)
    # offspring carry their donors' cached values
    recomputed = np.asarray(kernel.log_pooled(0.0, system.bundles))
    assert np.allclose(system.log_pooled, recomputed)


def test_run_validation(model, kernel):
    schedule = BandwidthSchedule.geometric(2.0, 0.5, 4)
    with pytest.raises(ConfigurationError):
        run_smc(model, kernel, schedule, 1, 1, JOINT_MCMC_MOVE, ProposalSpec(),
                seed=1, t_y=0.0)
    with pytest.raises(ConfigurationError):
        run_smc(model, kernel, schedule, 0, 10, JOINT_MCMC_MOVE, ProposalSpec(),
                seed=1, t_y=0.0)
    with pytest.raises(ConfigurationError):
        run_smc(model, kernel, schedule, 1, 10, JOINT_MCMC_MOVE, ProposalSpec(),
                seed=1, t_y=0.0, ess_threshold=1.5)
