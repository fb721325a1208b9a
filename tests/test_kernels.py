import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lfs.errors import ConfigurationError
from lfs.kernels import KERNEL_KINDS, SmoothingKernel, SummaryDistance


def test_uniform_inside_support():
    k = SmoothingKernel("uniform", 1.0)
    assert k.evaluate(np.array([0.5])) == pytest.approx(0.5)


def test_uniform_outside_support():
    k = SmoothingKernel("uniform", 1.0)
    assert k.evaluate(np.array([2.0])) == 0.0
    assert k.log_evaluate(np.array([2.0])) == -np.inf


def test_gaussian_at_zero():
    k = SmoothingKernel("gaussian", 1.0)
    assert k.evaluate(np.array([0.0])) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_pooled_is_arithmetic_mean():
    k = SmoothingKernel("epanechnikov", 1.0)
    bundle = np.array([[0.0], [0.5]])
    vals = k.evaluate(np.array([[0.0], [0.5]]))  # 0.75 and 0.5625
    assert k.pooled_evaluate(0.0, bundle) == pytest.approx(np.mean(vals), abs=1e-15)


def test_pooled_identity_at_s1():
    k = SmoothingKernel("gaussian", 0.7)
    bundle = np.array([[0.31]])
    assert k.pooled_evaluate(0.0, bundle) == k.evaluate(np.array([0.31]))


def test_pooled_all_outside_support_is_zero():
    k = SmoothingKernel("uniform", 1.0)
    bundle = np.full((3, 1), 2.0)
    assert k.pooled_evaluate(0.0, bundle) == 0.0
    assert k.log_pooled(0.0, bundle) == -np.inf


def test_sup_values():
    assert SmoothingKernel("uniform", 2.0).sup_value() == pytest.approx(0.25)
    assert SmoothingKernel("gaussian", 1.0).sup_value() == pytest.approx(0.3989422804014327)
    assert SmoothingKernel("epanechnikov", 1.0).sup_value() == pytest.approx(0.75)


def test_zero_bandwidth_rejected():
    with pytest.raises(ConfigurationError):
        SmoothingKernel("gaussian", 0.0)
    with pytest.raises(ConfigurationError):
        SmoothingKernel("uniform", -1.0)
    with pytest.raises(ConfigurationError):
        SmoothingKernel("triangle", 1.0)


def test_symmetry_on_random_inputs():
    rng = np.random.default_rng(7101)
    u = rng.normal(scale=2.0, size=(10_000, 3))
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 1.3)
        assert np.array_equal(k.evaluate(u), k.evaluate(-u))


def test_monotone_nonincreasing_in_distance():
    grid = np.linspace(0.0, 3.0, 400)[:, np.newaxis]
    for kind in ("uniform", "epanechnikov", "gaussian"):
        vals = SmoothingKernel(kind, 0.9).evaluate(grid)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals[0] >= vals[-1]
        assert np.all(vals >= 0.0)


def test_pooling_between_min_and_max():
    rng = np.random.default_rng(2)
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 1.1)
        for _ in range(200):
            bundle = rng.normal(size=(rng.integers(1, 9), 2))
            per = k.evaluate(0.0 - bundle)
            pooled = k.pooled_evaluate(np.zeros(2), bundle)
            assert per.min() - 1e-12 <= pooled <= per.max() + 1e-12


def test_sup_dominates_pooled():
    rng = np.random.default_rng(3)
    bundles = rng.normal(scale=1.5, size=(10_000, 4, 1))
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 0.8)
        ratio = k.pooled_evaluate(0.0, bundles) / k.sup_value()
        assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0 + 1e-12)


def test_log_pooled_matches_linear():
    rng = np.random.default_rng(4)
    bundle = rng.normal(size=(6, 1))
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 1.0)
        assert k.log_pooled(0.0, bundle) == pytest.approx(
            math.log(k.pooled_evaluate(0.0, bundle)), abs=1e-12)


def test_weighted_euclidean_distance():
    d = SummaryDistance("weighted-euclidean", weights=[4.0, 1.0])
    assert d.of_difference(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert d.between(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert d.between([0.0, 1.0], [0.0, 0.0]) == d.between([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ConfigurationError):
        SummaryDistance("weighted-euclidean")
    with pytest.raises(ConfigurationError):
        SummaryDistance("euclidean", weights=[1.0])


def test_kernel_uses_distance():
    k = SmoothingKernel("uniform", 1.0, SummaryDistance("weighted-euclidean", [4.0]))
    # weighted distance of u=0.6 is 1.2 > h: outside support
    assert k.evaluate(np.array([0.6])) == 0.0
    assert SmoothingKernel("uniform", 1.0).evaluate(np.array([0.6])) == 0.5


# -- properties of the pooled kernel (hypothesis, derandomized) ---------------

_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                              deadline=None)


@st.composite
def _kernel_and_bundle(draw, s=None):
    kind = draw(st.sampled_from(KERNEL_KINDS))
    h = draw(st.floats(0.05, 5.0))
    dim = draw(st.integers(1, 2))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    size = s if s is not None else draw(st.integers(1, 8))
    bundle = draw(hnp.arrays(float, (*lead, size, dim),
                             elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    t_y = draw(hnp.arrays(float, (dim,), elements=st.floats(-3.0, 3.0)))
    return SmoothingKernel(kind, h), t_y, bundle


@_PROPERTY_SETTINGS
@given(_kernel_and_bundle())
def test_log_pooled_is_log_of_pooled(case):
    # wherever the linear pooled value is a normal double above 1e-300 the two
    # agree to rtol 1e-12 (atol 1e-12 for values near log 1 = 0); a compact
    # kernel's exact zero is -inf in log space
    kernel, t_y, bundle = case
    log_pooled = np.asarray(kernel.log_pooled(t_y, bundle))
    pooled = np.asarray(kernel.pooled_evaluate(t_y, bundle))
    assert log_pooled.shape == pooled.shape == bundle.shape[:-2]
    big = pooled > 1e-300
    np.testing.assert_allclose(log_pooled[big], np.log(pooled[big]), rtol=1e-12, atol=1e-12)
    if kernel.kind != "gaussian":
        assert np.all(np.isneginf(log_pooled[pooled == 0.0]))


@_PROPERTY_SETTINGS
@given(_kernel_and_bundle(), st.randoms(use_true_random=False))
def test_log_pooled_invariant_to_bundle_order(case, random):
    # the S summaries are exchangeable: a permutation changes the summation
    # order only, so the result moves by rounding (1e-13) at most
    kernel, t_y, bundle = case
    order = list(range(bundle.shape[-2]))
    random.shuffle(order)
    got = np.asarray(kernel.log_pooled(t_y, bundle[..., order, :]))
    ref = np.asarray(kernel.log_pooled(t_y, bundle))
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    live = ~np.isneginf(ref)
    np.testing.assert_allclose(got[live], ref[live], rtol=1e-13, atol=1e-13)


@_PROPERTY_SETTINGS
@given(_kernel_and_bundle(s=1))
def test_log_pooled_of_one_summary_is_log_evaluate(case):
    kernel, t_y, bundle = case
    assert np.array_equal(np.asarray(kernel.log_pooled(t_y, bundle)),
                          np.asarray(kernel.log_evaluate(t_y - bundle[..., 0, :])))
