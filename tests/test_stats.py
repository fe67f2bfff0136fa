import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfim.rng import chain_generator
from tfim.stats import (N_SE, Check, Estimate, RatioAccumulator, SamplingError,
                        batch_means_estimate, integrated_autocorrelation_time,
                        mean_estimate)


def test_mean_estimate_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=1000)
    est = mean_estimate(xs)
    assert est.n == 1000
    assert est.value == pytest.approx(xs.mean(), abs=1e-12)
    assert est.stderr == pytest.approx(xs.std(ddof=1) / math.sqrt(1000), abs=1e-12)
    empty, one = mean_estimate([]), mean_estimate([2.5])
    assert (empty.value, empty.n, one.value, one.n) == (0.0, 0, 2.5, 1)
    assert math.isnan(empty.stderr) and math.isnan(one.stderr)


@pytest.mark.parametrize("covariance", [True, False])
def test_ratio_accumulator_merge_and_estimate(covariance):
    rng = np.random.default_rng(1)
    num = rng.random(size=600)
    den = rng.random(size=600) + 0.5
    whole = RatioAccumulator.of(num, den, covariance)
    merged = RatioAccumulator(covariance)
    for lo in range(0, 600, 200):
        merged.merge(RatioAccumulator.of(num[lo:lo + 200], den[lo:lo + 200], covariance))
    a, b = whole.estimate("pool"), merged.estimate("pool")
    assert a.value == pytest.approx(b.value, abs=1e-14)
    assert a.stderr == pytest.approx(b.stderr, abs=1e-14)
    assert a.value == pytest.approx(num.mean() / den.mean(), rel=1e-12)
    assert a.ess == b.ess == pytest.approx(den.sum() ** 2 / (den * den).sum(), rel=1e-12)


def test_ratio_accumulator_merge_needs_one_covariance():
    merged = RatioAccumulator(covariance=False)
    with pytest.raises(ValueError, match="paired"):
        merged.merge(RatioAccumulator.of([1.0, 2.0], [1.0, 1.0], covariance=True))
    assert merged.n == 0


def _independent_reference(num, den) -> tuple[float, float]:
    """(value, stderr) of mean(num)/mean(den) by the delta method for
    independent pools, as the deleted ``ratio_estimate_independent`` computed
    it."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    nb, db = num.mean(), den.mean()
    vn = num.var(ddof=1) / num.size
    vd = den.var(ddof=1) / den.size
    return float(nb / db), math.sqrt(vn / db**2 + nb**2 * vd / db**4)


def _jackknife_stderr(num, den) -> float:
    """Delete-one jackknife SE of mean(num)/mean(den) on a shared pool, as
    the deleted ``ratio_estimate_jackknife`` computed it."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    n = num.size
    loo = (num.sum() - num) / (den.sum() - den)
    return math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())


def _pools(seed: int) -> dict:
    """Ratio pools shaped like the callers': importance weights with signed
    values, sparse coupled weights (most zero) with an event, and dense
    labelling weights."""
    rng = np.random.default_rng(seed)
    n = 300
    w = np.exp(rng.normal(size=n))
    sparse = np.where(rng.random(n) < 0.05, rng.random(n), 0.0)
    event = rng.random(n) < 0.5
    labels = np.exp(-2.0 * rng.exponential(size=n))
    return {"importance": (w * rng.choice([-1.0, 1.0], size=n, p=[0.3, 0.7]), w),
            "sparse": (np.where(event, sparse, 0.0), sparse),
            "labelling": (labels * (rng.random(n) < 0.6), labels)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_independent_pools_formula_pinned(seed):
    for num, den in _pools(seed).values():
        est = RatioAccumulator.of(num, den, covariance=False).estimate("pool")
        value, stderr = _independent_reference(num, den)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_pool_stderr_matches_jackknife(seed):
    # the pools that keep the covariance term; on a sparse pool of a few
    # nonzero weights the two differ by more than the tolerance
    for name in ("importance", "labelling"):
        num, den = _pools(seed)[name]
        est = RatioAccumulator.of(num, den, covariance=True).estimate("pool")
        assert est.stderr == pytest.approx(_jackknife_stderr(num, den), rel=0.1), name


def test_ratio_accumulator_zero_denominator_and_small_pools():
    with pytest.raises(SamplingError, match="all 3 weights of the test pool are zero"):
        RatioAccumulator.of([1.0, 0.0, 2.0], np.zeros(3), True).estimate("test pool")
    one = RatioAccumulator.of([1.0], [2.0], False).estimate("pool")
    assert one.value == 0.5 and math.isnan(one.stderr)
    # a pool of one nonzero weight carries the low-ess warning
    sparse = RatioAccumulator.of([0.0, 3.0, 0.0], [0.0, 3.0, 0.0], False).estimate("pool")
    assert sparse.ess == 1.0 and sparse.warnings == ("low-ess",)


def test_agreement_helper():
    a = Estimate(1.0, 0.1, 100)
    assert a.agrees_with(1.2)
    assert not a.agrees_with(1.5)
    assert a.agrees_with(Estimate(1.25, 0.1, 100))


_sides = st.floats(-1e6, 1e6, allow_nan=False)
_errors = st.floats(0.0, 1e3, allow_nan=False)


@given(_sides, _sides, _errors, _errors)
def test_check_gap_and_pass_rule(lhs, rhs, se_lhs, se_rhs):
    identity = Check("identity", lhs, rhs, se_lhs, se_rhs)
    bound = Check("bound", lhs, rhs, se_lhs, se_rhs)
    se = math.hypot(se_lhs, se_rhs)
    if lhs == rhs:
        assert identity.gap == bound.gap == 0.0
    elif se == 0:
        assert identity.gap == math.inf
        assert bound.gap == (0.0 if lhs < rhs else math.inf)
    else:
        assert identity.gap == abs(lhs - rhs) / se
        assert bound.gap == max(lhs - rhs, 0.0) / se
    # a bound is the one-sided identity: equal gaps above, zero gap below
    assert bound.gap == (identity.gap if lhs >= rhs else 0.0)
    for check in (identity, bound):
        assert check.passed == (check.gap <= N_SE)
    # the identity gap does not depend on which side is which
    assert identity.gap == Check("identity", rhs, lhs, se_rhs, se_lhs).gap
    # agrees_with is the identity check
    assert Estimate(lhs, se_lhs, 10).agrees_with(Estimate(rhs, se_rhs, 10)) == identity.passed
    assert Estimate(lhs, se_lhs, 10).agrees_with(rhs) == \
        Check("identity", lhs, rhs, se_lhs, 0.0).passed


@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 10.0))
def test_check_passes_within_n_se(rhs, se, k):
    # sides k combined standard errors apart pass exactly when k <= N_SE;
    # rounding moves k by under 1e-9 at these magnitudes
    if abs(k - N_SE) < 1e-6:
        return
    lhs = rhs + k * se
    assert Check("identity", lhs, rhs, se, 0.0).passed == (k <= N_SE)
    assert Check("identity", rhs, lhs, 0.0, se).passed == (k <= N_SE)
    assert Check("bound", lhs, rhs, 0.0, se).passed == (k <= N_SE)
    assert Check("bound", rhs, lhs, 0.0, se).passed


def test_check_zero_errors_and_kind():
    assert Check("identity", 0.5, 0.5, 0.0, 0.0).gap == 0.0
    assert Check("identity", 0.5, 0.5 + 1e-15, 0.0, 0.0).gap == math.inf
    assert Check("bound", 0.4, 0.5, 0.0, 0.0).gap == 0.0
    assert not Check("bound", 0.6, 0.5, 0.0, 0.0).passed
    assert Check("bound", 0.0, 0.0, 0.0, 0.0, {"c1": 2.0}).detail == {"c1": 2.0}
    with pytest.raises(ValueError, match="unknown check kind"):
        Check("equality", 1.0, 1.0, 0.0, 0.0)


def test_batch_means_reports_wider_errors_for_correlated_series():
    rng = np.random.default_rng(3)
    steps = rng.normal(size=4000)
    correlated = np.convolve(steps, np.ones(30) / 30, mode="same")
    naive = mean_estimate(correlated)
    robust = batch_means_estimate(correlated)
    assert robust.stderr > 2 * naive.stderr


def test_tau_int_from_batch_means():
    xs = np.repeat([1.0, -1.0], 64)  # 32 batches of 4 identical values
    est = batch_means_estimate(xs)
    assert integrated_autocorrelation_time(xs, est) == \
        xs.size * est.stderr ** 2 / (2 * xs.var(ddof=1))
    # below 64 values the plain mean's SE gives tau_int = 1/2
    few = np.array([1.0, 2.0, 4.0])
    assert integrated_autocorrelation_time(few, batch_means_estimate(few)) == \
        pytest.approx(0.5)
    # a series that never changes has no variance to compare against
    assert integrated_autocorrelation_time(np.ones(100), batch_means_estimate(np.ones(100))) \
        is None


def test_chain_streams_reproducible_and_distinct():
    a1 = chain_generator(123, 0).random(5)
    a2 = chain_generator(123, 0).random(5)
    b = chain_generator(123, 1).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
