import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from lfs.errors import ConfigurationError
from lfs.kernels import KERNEL_KINDS, SmoothingKernel, SummaryDistance


def test_uniform_inside_support():
    k = SmoothingKernel("uniform", 1.0)
    assert k.evaluate(np.array([0.5])) == pytest.approx(0.5)


def test_uniform_outside_support():
    k = SmoothingKernel("uniform", 1.0)
    assert k.evaluate(np.array([2.0])) == 0.0
    assert k.log_pooled(0.0, np.array([[2.0]])) == -np.inf


def test_gaussian_at_zero():
    k = SmoothingKernel("gaussian", 1.0)
    assert k.evaluate(np.array([0.0])) == pytest.approx(0.3989422804014327, abs=1e-12)


def test_pooled_is_arithmetic_mean():
    k = SmoothingKernel("epanechnikov", 1.0)
    bundle = np.array([[0.0], [0.5]])
    vals = k.evaluate(np.array([[0.0], [0.5]]))  # 0.75 and 0.5625
    assert k.log_pooled(0.0, bundle) == pytest.approx(math.log(np.mean(vals)), abs=1e-15)


def test_pooled_identity_at_s1():
    k = SmoothingKernel("gaussian", 0.7)
    bundle = np.array([[0.31]])
    assert k.log_pooled(0.0, bundle) == pytest.approx(
        -0.5 * (0.31 / 0.7) ** 2 - math.log(0.7 * math.sqrt(2.0 * math.pi)), abs=1e-15)
    assert k.log_pooled(0.0, bundle) == pytest.approx(
        math.log(np.mean(k.evaluate(0.0 - bundle), axis=-1)), abs=1e-15)


def test_pooled_all_outside_support_is_zero():
    k = SmoothingKernel("uniform", 1.0)
    bundle = np.full((3, 1), 2.0)
    assert np.mean(k.evaluate(0.0 - bundle), axis=-1) == 0.0
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
            pooled = math.exp(k.log_pooled(np.zeros(2), bundle))
            assert pooled == pytest.approx(np.mean(per, axis=-1), rel=1e-13, abs=1e-300)
            assert per.min() - 1e-12 <= pooled <= per.max() + 1e-12


def test_sup_dominates_pooled():
    rng = np.random.default_rng(3)
    bundles = rng.normal(scale=1.5, size=(10_000, 4, 1))
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 0.8)
        pooled = np.mean(k.evaluate(0.0 - bundles), axis=-1)
        assert np.all(pooled >= 0.0) and np.all(pooled <= k.sup_value() * (1.0 + 1e-12))
        # the log-scale bound rejection accepts against
        assert np.all(k.log_pooled(0.0, bundles) <= math.log(k.sup_value()) + 1e-12)


def test_log_pooled_matches_linear():
    rng = np.random.default_rng(4)
    bundle = rng.normal(size=(6, 1))
    for kind in ("uniform", "epanechnikov", "gaussian"):
        k = SmoothingKernel(kind, 1.0)
        assert k.log_pooled(0.0, bundle) == pytest.approx(
            math.log(np.mean(k.evaluate(0.0 - bundle), axis=-1)), abs=1e-12)


def test_weighted_euclidean_distance():
    d = SummaryDistance("weighted-euclidean", weights=[4.0, 1.0])
    assert d.of_difference(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert d.of_difference(np.array([1.0, 2.0]) - np.array([1.0, 2.0])) == 0.0
    assert (d.of_difference(np.array([0.0, 1.0]) - np.array([0.0, 0.0]))
            == d.of_difference(np.array([0.0, 0.0]) - np.array([0.0, 1.0])))
    with pytest.raises(ConfigurationError):
        SummaryDistance("weighted-euclidean")
    with pytest.raises(ConfigurationError):
        SummaryDistance("euclidean", weights=[1.0])


def test_weighted_euclidean_needs_one_weight_per_summary_dimension():
    # two weights on 1-D summaries would scale every distance by sqrt(2)
    d = SummaryDistance("weighted-euclidean", weights=[1.0, 1.0])
    for u in (0.5, np.array([0.5]), np.zeros((3, 4, 1)), np.zeros((2, 3))):
        with pytest.raises(ConfigurationError, match="2 distance weights"):
            d.of_difference(u)
    k = SmoothingKernel("gaussian", 1.0, d)
    with pytest.raises(ConfigurationError):
        k.log_pooled(0.0, np.zeros((5, 1)))
    # on summaries of dimension 2 the same weights are the plain euclidean distance
    assert (k.log_pooled(np.zeros(2), np.full((5, 2), 0.3))
            == SmoothingKernel("gaussian", 1.0).log_pooled(np.zeros(2), np.full((5, 2), 0.3)))


def test_kernel_uses_distance():
    k = SmoothingKernel("uniform", 1.0, SummaryDistance("weighted-euclidean", [4.0]))
    # weighted distance of u=0.6 is 1.2 > h: outside support
    assert k.evaluate(np.array([0.6])) == 0.0
    assert SmoothingKernel("uniform", 1.0).evaluate(np.array([0.6])) == 0.5


# -- properties of the pooled kernel (hypothesis, derandomized) ---------------

_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                              deadline=None)


def _log_profile(kernel, u):
    """log K(u) from the profile formulas in ``SmoothingKernel``'s docstring, per summary."""
    h = kernel.bandwidth
    d = np.sqrt(np.sum(u * u, axis=-1)) / h
    with np.errstate(divide="ignore"):
        if kernel.kind == "uniform":
            return np.where(d <= 1.0, np.log(1.0 / (2.0 * h)), -np.inf)
        if kernel.kind == "epanechnikov":
            return np.log(np.where(d <= 1.0, 3.0 / (4.0 * h) * (1.0 - d * d), 0.0))
        return -d * d / 2.0 - np.log(h * math.sqrt(2.0 * math.pi))


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
# gaussian rows far from t_y, whose linear mean underflows to 0, beside a normal row
@example((SmoothingKernel("gaussian", 0.05), np.zeros(1),
          np.array([[[9.0], [9.0], [-9.0]], [[0.1], [9.0], [9.0]], [[2.0], [-3.0], [9.0]]])))
def test_log_pooled_is_log_of_pooled(case):
    # wherever the linear pooled value is a normal double above 1e-300 the two
    # agree to rtol 1e-12 (atol 1e-12 for values near log 1 = 0); a compact
    # kernel's exact zero is -inf in log space
    kernel, t_y, bundle = case
    log_pooled = np.asarray(kernel.log_pooled(t_y, bundle))
    pooled = np.asarray(np.mean(kernel.evaluate(t_y - bundle), axis=-1))
    assert log_pooled.shape == pooled.shape == bundle.shape[:-2]
    big = pooled > 1e-300
    np.testing.assert_allclose(log_pooled[big], np.log(pooled[big]), rtol=1e-12, atol=1e-12)
    if kernel.kind != "gaussian":
        assert np.all(np.isneginf(log_pooled[pooled == 0.0]))
    # on every row, including gaussian rows whose linear mean underflows, it is
    # the log-sum-exp of the per-summary logs less log S
    with np.errstate(divide="ignore"):
        lse = np.asarray(logsumexp(_log_profile(kernel, t_y - bundle), axis=-1)
                         - math.log(bundle.shape[-2]))
    assert np.array_equal(np.isneginf(log_pooled), np.isneginf(lse))
    live = ~np.isneginf(lse)
    np.testing.assert_allclose(log_pooled[live], lse[live], rtol=1e-12, atol=1e-12)


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
def test_log_pooled_of_one_summary_is_its_log_profile(case):
    kernel, t_y, bundle = case
    got = np.asarray(kernel.log_pooled(t_y, bundle))
    ref = _log_profile(kernel, t_y - bundle[..., 0, :])
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    live = ~np.isneginf(ref)
    np.testing.assert_allclose(got[live], ref[live], rtol=1e-12, atol=1e-12)


# -- the trimmed per-call paths, bit for bit against the earlier compositions --
#
# SummaryDistance.of_difference, SmoothingKernel._profile, log_pooled and
# _bundle_distances once reduced with np.sum, np.mean and np.min and divided
# the relative gaussian profile by 1.0.  The functions below are that code,
# kept as the reference the trimmed paths must match byte for byte.

def _ref_of_difference(distance, u):
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        u = u[np.newaxis]
    if distance.weights is None:
        return np.sqrt(np.sum(u * u, axis=-1))
    return np.sqrt(np.sum(distance.weights * u * u, axis=-1))


def _ref_profile(kernel, d, relative=False):
    h = kernel.bandwidth
    if kernel.kind == "uniform":
        return np.where(d <= 1.0, 1.0 if relative else 0.5 / h, 0.0)
    if kernel.kind == "epanechnikov":
        c = 1.0 if relative else 0.75 / h
        return np.where(d <= 1.0, c * np.maximum(1.0 - d * d, 0.0), 0.0)
    return np.exp(-0.5 * d * d) / (1.0 if relative else h * math.sqrt(2.0 * math.pi))


def _ref_log_profile(kernel, d):
    h = kernel.bandwidth
    if kernel.kind == "uniform":
        return np.where(d <= 1.0, -math.log(2.0 * h), -np.inf)
    if kernel.kind == "epanechnikov":
        inside = d < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            body = math.log(0.75 / h) + np.log1p(-(d * d))
        return np.where(inside, body, -np.inf)
    return -0.5 * d * d - math.log(h) - 0.5 * math.log(2.0 * math.pi)


def _ref_log_pooled(kernel, t_y, bundle):
    bundle = np.asarray(bundle, dtype=float)
    if bundle.ndim == 0:
        bundle = bundle.reshape(1, 1)
    elif bundle.ndim == 1:
        bundle = bundle[:, np.newaxis]
    t_y = np.atleast_1d(np.asarray(t_y, dtype=float))
    d = _ref_of_difference(kernel.distance, t_y - bundle) / kernel.bandwidth
    if d.shape[-1] == 1:
        return _ref_log_profile(kernel, d)[..., 0]
    with np.errstate(divide="ignore"):
        rel = np.log(np.mean(_ref_profile(kernel, d, relative=True), axis=-1))
    out = np.asarray(rel + _ref_log_profile(kernel, 0.0))
    if kernel.kind == "gaussian" and np.min(rel) < -650.0:
        low = rel < -650.0
        logs = _ref_log_profile(kernel, d[low])
        out[low] = np.logaddexp.reduce(logs, axis=-1) - math.log(d.shape[-1])
    return out


def _same_bytes(got, ref):
    """Equal shape, dtype and bytes: -0.0 against 0.0 or two NaN payloads differ."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
    assert got.tobytes() == ref.tobytes()


# differences of ordinary size, far (gaussian rows whose linear mean underflows
# and take the _LOG_TINY fallback), subnormal (u * u underflows to 0) and near
# 1e200 (u * u overflows to inf)
_SCALES = (1.0, 40.0, 1e-310, 1e200)


@st.composite
def _trim_case(draw):
    kind = draw(st.sampled_from(KERNEL_KINDS))
    h = draw(st.floats(0.05, 5.0))
    S = draw(st.sampled_from([1, 2, 100]))
    dim = draw(st.integers(1, 2))
    weights = draw(st.none() | hnp.arrays(float, (dim,), elements=st.floats(0.1, 10.0)))
    distance = (SummaryDistance() if weights is None
                else SummaryDistance("weighted-euclidean", weights))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # each row's summaries at one of the scales, so far rows sit beside near ones
    scale = rng.choice(_SCALES, size=(*lead, 1, 1))
    bundle = rng.normal(size=(*lead, S, dim)) * scale
    # t_y = 0 keeps a subnormal or huge summary's difference as it is; a scalar
    # t_y is the 1-D summaries' observed value as the samplers pass it
    t_y = draw(st.sampled_from(["zero", "random", "scalar"]))
    t_y = (np.zeros(dim) if t_y == "zero" or (t_y == "scalar" and dim > 1)
           else rng.normal(size=dim) if t_y == "random" else float(rng.normal()))
    return SmoothingKernel(kind, h, distance), t_y, bundle


@_PROPERTY_SETTINGS
@given(_trim_case())
@example((SmoothingKernel("gaussian", 0.05), np.zeros(1),
          np.array([[[9.0], [9.0], [-9.0]], [[0.1], [9.0], [9.0]], [[2.0], [-3.0], [9.0]]])))
@example((SmoothingKernel("epanechnikov", 1.0, SummaryDistance("weighted-euclidean", [2.0])),
          np.zeros(1), np.array([[5e-324], [-1e200], [0.5], [-0.0]])))
def test_trimmed_log_pooled_is_the_earlier_composition_bit_for_bit(case):
    kernel, t_y, bundle = case
    with np.errstate(over="ignore", invalid="ignore"):
        _same_bytes(kernel.log_pooled(t_y, bundle), _ref_log_pooled(kernel, t_y, bundle))
        u = np.asarray(t_y, dtype=float) - bundle
        d = _ref_of_difference(kernel.distance, u)
        _same_bytes(kernel.distance.of_difference(u), d)
        _same_bytes(kernel._bundle_distances(t_y, bundle), d / kernel.bandwidth)
        for relative in (False, True):
            _same_bytes(kernel._profile(d, relative), _ref_profile(kernel, d, relative))
        _same_bytes(kernel.evaluate(u), _ref_profile(kernel, d / kernel.bandwidth))


def test_trimmed_paths_take_scalars_and_one_dimensional_bundles():
    for kind in KERNEL_KINDS:
        for distance in (SummaryDistance(), SummaryDistance("weighted-euclidean", [3.0])):
            kernel = SmoothingKernel(kind, 0.7, distance)
            with np.errstate(over="ignore"):
                for u in (0.4, -0.0, 5e-324, 1e200):
                    _same_bytes(distance.of_difference(u), _ref_of_difference(distance, u))
                for bundle in (0.3, np.array([0.3, -0.2, 1e-320]), np.array([[0.2]])):
                    _same_bytes(kernel.log_pooled(0.1, bundle),
                                _ref_log_pooled(kernel, 0.1, bundle))


@pytest.mark.parametrize("S", [1, 5])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_lone_bundle_log_pooled_is_a_numpy_scalar(kind, far, S):
    # a lone chain sums log_pooled into log_num every iteration: a 0-d array result
    # would make each sum pay array dispatch.  The value is row 0 of the batch of
    # one and the earlier composition's, bit for bit; far bundles take the gaussian
    # underflow path (and the compact kernels' -inf)
    kernel = SmoothingKernel(kind, 0.05 if far else 0.8)
    bundle = (np.linspace(9.0, -9.0, S) if far else np.linspace(-0.6, 1.4, S))[:, np.newaxis]
    got = kernel.log_pooled(0.3, bundle)
    assert type(got) is np.float64
    _same_bytes(got, kernel.log_pooled(0.3, bundle[np.newaxis])[0])
    _same_bytes(got, _ref_log_pooled(kernel, 0.3, bundle))
