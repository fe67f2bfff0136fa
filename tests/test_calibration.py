"""Error bars checked against the spread over seeds.

Each test runs one Monte Carlo row family on 3 sites (d = 1, n = 1) for K
seeds against its exact value from the ED oracle, and bounds the RMS of the
z-scores (estimate - exact) / stderr and the share of seeds beyond 3 SE.  A
calibrated SE gives RMS z near 1 (about 1 +- 0.07 over 100 Gaussian seeds)
and about 0.3 % beyond 3 SE.  The calibrated families measure RMS z
1.06-1.29 with at most 3 of 100 seeds beyond 3 SE, the heavier tails being
those of importance-weighted pools of a few hundred draws.  The band, RMS z
at most 1.5 and at most 5 % beyond 3 SE, passes them all and fails each of
them when its SE is too small by a factor 1.5 (RMS z 1.6-1.9).  Points
(0, 0) and (1, 0.25), periodic time, lam = delta = 1 and 300 draws per
estimate, as in the verify-suite and estimators configs.
"""

import math

import numpy as np
import pytest

from tfim import percolation, randomparity, spectral, spinrep
from tfim.geometry import Box, SpaceTimeRegion
from tfim.rng import chain_generator

K = 100
N_SAMPLES = 300
MAX_RMS_Z = 1.5
MAX_SHARE_BEYOND_3SE = 0.05
POINTS = [((0,), 0.0), ((1,), 0.25)]


def _region(beta: float, bc_space: str) -> SpaceTimeRegion:
    return SpaceTimeRegion.finite_beta(Box(1, 1), beta, bc_space, "p")


def _exact(region: SpaceTimeRegion) -> float:
    return spectral.oracle_correlation(region, 1.0, 1.0, POINTS)


def _assert_calibrated(estimate, exact: float) -> None:
    """``estimate(rng)`` on seeds 1..K against ``exact``."""
    z = []
    for seed in range(1, K + 1):
        est = estimate(chain_generator(seed, 0))
        z.append((est.value - exact) / est.stderr if est.stderr > 0 else math.inf)
    z = np.array(z)
    rms = math.sqrt(np.mean(z ** 2))
    share = np.mean(np.abs(z) > 3.0)
    assert rms <= MAX_RMS_Z and share <= MAX_SHARE_BEYOND_3SE, \
        f"RMS z {rms:.3f}, {share:.1%} of {K} seeds beyond 3 SE"


@pytest.mark.parametrize("beta,bc_space", [(1.0, "w"), (1.0, "f"), (4.0, "f")])
def test_spin_correlation_calibrated(beta, bc_space):
    region = _region(beta, bc_space)
    _assert_calibrated(lambda rng: spinrep.estimate_correlation(
        POINTS, region, 1.0, 1.0, N_SAMPLES, rng), _exact(region))


@pytest.mark.parametrize("beta,bc_space", [
    (1.0, "w"), (1.0, "f"),
    # few consistent source-free labellings: the ratio is biased low
    pytest.param(4.0, "f", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a-priori labelling draws; parity-conditioned draws (ROADMAP item 1b)")),
])
def test_random_parity_correlation_calibrated(beta, bc_space):
    region = _region(beta, bc_space)
    _assert_calibrated(lambda rng: randomparity.estimate_rpr_correlation(
        POINTS, region, 1.0, 1.0, N_SAMPLES, rng), _exact(region))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="about 4 % of a-priori coupled weights are nonzero; "
                          "parity-conditioned draws (ROADMAP item 1b)")
def test_coupled_connectivity_calibrated():
    # P(p <-> q) under the coupled measure on wired space is the product of
    # the free and the wired correlation
    wired, free = _region(1.0, "w"), _region(1.0, "f")
    _assert_calibrated(lambda rng: percolation.two_point_connectivity(
        wired, 1.0, 1.0, *POINTS, N_SAMPLES, rng), _exact(free) * _exact(wired))
