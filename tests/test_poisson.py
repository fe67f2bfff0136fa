import math

import numpy as np
import pytest
from scipy import stats as sps

from tfim.poisson import (Carrier, DegenerateRateError, PointSet,
                          add_or_delete_density, draw_times, add_two_if_empty_density,
                          rn_add_or_delete, rn_add_two_if_empty, rn_delete_all,
                          sample_constant, verify_modification_identity)
from tfim.rng import chain_generator


def delete_all_density(x: PointSet, alpha: float, t: float) -> float:
    """Exact likelihood ratio of the deleted law at configuration x (the
    scheme itself returns its bound e^{alpha t})."""
    return math.exp(alpha * t) if len(x) == 0 else 0.0


def test_zero_rate_gives_empty_set():
    rng = chain_generator(0, 0)
    assert len(sample_constant(Carrier(0, 3), 0.0, rng)) == 0


def test_zero_rate_draw_consumes_no_stream():
    # so a rate-0 ghost or bridge draw leaves every later draw unchanged
    rng, ref = chain_generator(5, 1), chain_generator(5, 1)
    for _ in range(50):
        assert len(draw_times(-1.0, 1.0, 0.0, rng)) == 0
    assert np.array_equal(rng.integers(2**62, size=4), ref.integers(2**62, size=4))


def test_empirical_mean_count_matches_rate():
    rng = chain_generator(0, 2)
    rate, t, n = 1.7, 2.0, 4000
    counts = [len(sample_constant(Carrier(0, t), rate, rng)) for _ in range(n)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(n)
    assert abs(mean - rate * t) <= 3 * se


def test_delete_all_density_values():
    carrier = Carrier(0, 2)
    empty = PointSet.empty(carrier)
    modified, density = rn_delete_all(empty, 1.0, 2.0)
    assert len(modified) == 0
    assert density == pytest.approx(math.exp(2.0))
    one = PointSet.of(Carrier(0, 1), [0.3])
    modified, density = rn_delete_all(one, 1.0, 1.0)
    assert len(modified) == 0
    assert density == pytest.approx(math.e)
    assert rn_delete_all(empty, 0.0, 2.0)[1] == pytest.approx(1.0)
    # exact indicator form
    assert delete_all_density(empty, 1.0, 2.0) == pytest.approx(math.exp(2.0))
    assert delete_all_density(one, 1.0, 1.0) == 0.0


def test_add_two_if_empty_density_values():
    carrier = Carrier(0, 1)
    rng = chain_generator(5, 0)
    one = PointSet.of(carrier, [0.5])
    assert add_two_if_empty_density(one, 1.0, 1.0) == pytest.approx(1.0)
    two = PointSet.of(carrier, [0.2, 0.7])
    assert add_two_if_empty_density(two, 1.0, 1.0) == pytest.approx(3.0)
    modified, _ = rn_add_two_if_empty(PointSet.empty(carrier), 1.0, 1.0, rng)
    assert len(modified) == 2
    with pytest.raises(DegenerateRateError):
        add_two_if_empty_density(one, 0.0, 1.0)


def test_add_or_delete_density_values():
    # the likelihood ratio collects every route producing the configuration:
    # at one point the deleted-from-two route adds alpha*t/2 to 1/(alpha*t)
    carrier = Carrier(0, 1)
    one = PointSet.of(carrier, [0.5])
    assert add_or_delete_density(one, 1.0, 1.0) == pytest.approx(1.0 + 0.5)
    two = PointSet.of(carrier, [0.2, 0.7])
    assert add_or_delete_density(two, 1.0, 1.0) == pytest.approx(2.0 + 1.0 / 3.0)
    five = PointSet.of(carrier, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert add_or_delete_density(five, 1.0, 1.0) == pytest.approx(1.0 / 6.0)
    assert add_or_delete_density(PointSet.empty(carrier), 1.0, 1.0) == 0.0
    rng = chain_generator(5, 1)
    modified, _ = rn_add_or_delete(one, 1.0, 1.0, rng)
    assert len(modified) == 2
    modified, _ = rn_add_or_delete(five, 1.0, 1.0, rng)
    assert len(modified) == 4


@pytest.mark.parametrize("scheme,modify", [
    ("add-two-if-empty", rn_add_two_if_empty),
    ("add-or-delete", rn_add_or_delete),
])
def test_radon_nikodym_change_of_variables(scheme, modify):
    # E[g(modified)] equals E[density(X) g(X)] for test functionals
    rng = chain_generator(6, 0)
    alpha, t, n = 1.0, 1.0, 40000
    carrier = Carrier(0, t)
    density_fn = {"add-two-if-empty": add_two_if_empty_density,
                  "add-or-delete": add_or_delete_density}[scheme]
    for g in (lambda x: math.exp(-len(x)),
              lambda x: float(len(x) % 2 == 0),
              lambda x: float(len(x))):
        lhs = np.empty(n)
        rhs = np.empty(n)
        for i in range(n):
            x = sample_constant(carrier, alpha, rng)
            modified, density = modify(x, alpha, t, rng)
            lhs[i] = g(modified)
            rhs[i] = density * g(x)
        se = math.hypot(lhs.std(ddof=1), rhs.std(ddof=1)) / math.sqrt(n)
        assert abs(lhs.mean() - rhs.mean()) <= 3 * se


def test_delete_all_change_of_variables_is_exact_in_mean():
    rng = chain_generator(6, 1)
    alpha, t, n = 1.0, 0.5, 20000
    carrier = Carrier(0, t)
    g = lambda x: math.exp(-len(x))
    rhs = np.empty(n)
    for i in range(n):
        x = sample_constant(carrier, alpha, rng)
        rhs[i] = delete_all_density(x, alpha, t) * g(x)
    se = rhs.std(ddof=1) / math.sqrt(n)
    assert abs(rhs.mean() - g(PointSet.empty(carrier))) <= 3 * se


def test_modification_identity_reports():
    rng = chain_generator(7, 0)
    rep = verify_modification_identity(lambda x: 1.0, "delete-all", 1.0, 1.0, 20000, rng)
    assert rep.kind == "bound" and rep.passed
    assert rep.detail["c2"] == pytest.approx(math.e)
    # f is constant, so the measured c1 is 1
    assert rep.detail["c1"] == 1.0
    rep0 = verify_modification_identity(lambda x: 0.0, "delete-all", 1.0, 1.0, 100, rng)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0 and rep0.passed
    rep_cnt = verify_modification_identity(lambda x: float(len(x)), "add-or-delete",
                                           1.0, 1.0, 20000, rng)
    assert rep_cnt.passed


def bernoulli_count_tv_distance(alpha: float, t: float, n: int) -> float:
    """Total-variation distance between the slot-count law and Poisson(alpha t).

    Slots sit at 0, 1/n, ..., floor(t n)/n and each succeeds with probability
    alpha/n, so the count is Binomial(floor(t n) + 1, alpha/n).
    """
    m = int(math.floor(t * n)) + 1
    p = alpha / n
    if not (0 <= p <= 1):
        raise ValueError("need alpha <= n")
    k = np.arange(0, max(4 * m, 64))
    binom = sps.binom.pmf(k[: m + 1], m, p)
    pois = sps.poisson.pmf(k, alpha * t)
    tv = 0.5 * (np.abs(binom - pois[: m + 1]).sum() + pois[m + 1:].sum())
    return float(tv)


def test_bernoulli_discretization_converges_to_poisson():
    tvs = [bernoulli_count_tv_distance(1.0, 1.0, n) for n in (10, 100, 1000)]
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 1e-3
    assert tvs == [0.05497772840878595, 0.0055855314019654136, 0.0005593906676502852]


def test_point_set_validation():
    carrier = Carrier(0, 1)
    with pytest.raises(ValueError):
        PointSet(carrier, (0.5, 0.5))
    with pytest.raises(ValueError):
        PointSet(carrier, (1.5,))
