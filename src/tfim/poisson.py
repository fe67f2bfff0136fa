"""Poisson point sets on time intervals, drawn by :func:`draw_times`, with
local modifications.

The three modification schemes (delete everything; add two points when empty;
add a point to small configurations, delete one from large) come with their
exact likelihood ratios relative to the unmodified process.  The tests
check the count law against a Bernoulli-slot discretization: put a point in
each of n slots independently with probability alpha/n and compare with the
Poisson law as n grows.

Likelihood-ratio conventions.  For the two "add" schemes the returned density
is d(modified law)/d(original law) evaluated at the *input* configuration,
which is the factor that appears when bounding expectations.  The add-or-
delete ratio at a k-point configuration collects every route producing k
points, so at k = 1 it is 1/(alpha t) + alpha t / 2 (added-from-empty and
deleted-from-two routes both contribute); the per-route leading terms alone
do not satisfy the change-of-variables identity.  The delete-all scheme
returns the density at the modified (empty) configuration, e^{alpha t},
which also bounds the ratio everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .stats import Check, mean_estimate


class DegenerateRateError(ValueError):
    """Raised when a modification scheme needs alpha * t > 0."""


@dataclass(frozen=True)
class Carrier:
    """A time interval [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError(f"empty carrier [{self.a}, {self.b}]")

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


@dataclass(frozen=True)
class PointSet:
    """A finite, strictly increasing set of times in a carrier."""

    carrier: Carrier
    points: tuple

    def __post_init__(self):
        pts = self.points
        for t in pts:
            if not self.carrier.contains(t):
                raise ValueError(f"point {t} outside carrier")
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty(carrier: Carrier) -> "PointSet":
        return PointSet(carrier, ())

    @staticmethod
    def of(carrier: Carrier, times: Sequence[float]) -> "PointSet":
        return PointSet(carrier, tuple(sorted(float(t) for t in times)))


def draw_times(lo: float, hi: float, rate: float, rng: np.random.Generator) -> list:
    """Sorted times, as a list of floats, of a rate-``rate`` Poisson process
    on [lo, hi): the count, then that many uniform times (a count of zero
    draws no uniforms).  Every point-process draw of the package goes through
    here.  The times are ``lo + (hi - lo) * u``, which is how
    ``rng.uniform(lo, hi)`` forms them from the same doubles ``u``, so they
    are its times bit for bit.  One point reads its double with the scalar
    ``rng.random()``, which draws what ``rng.random(1)`` draws: about a third
    of the draws of the estimator and identity runs hold one point, and the
    scalar call saves the array, its conversion and the sort on each."""
    w = hi - lo
    n = rng.poisson(rate * w)
    if n == 0:
        return []
    if n == 1:
        return [lo + w * rng.random()]
    return sorted([lo + w * u for u in rng.random(n).tolist()])


def sample_constant(carrier: Carrier, rate: float, rng: np.random.Generator) -> PointSet:
    """A rate-``rate`` Poisson point set on the carrier.  Coincident times
    (probability zero) make :class:`PointSet` raise ``ValueError``."""
    return PointSet.of(carrier, draw_times(carrier.a, carrier.b, rate, rng))


# -- local modification schemes -------------------------------------------

def rn_delete_all(x: PointSet, alpha: float, t: float) -> tuple[PointSet, float]:
    """Delete every point.  Returns the density e^{alpha t} at the modified
    (empty) configuration, which also bounds the ratio everywhere."""
    return PointSet.empty(x.carrier), math.exp(alpha * t)


def add_two_if_empty_density(x: PointSet, alpha: float, t: float) -> float:
    if alpha * t <= 0:
        raise DegenerateRateError("add-two-if-empty needs alpha * t > 0")
    k = len(x)
    return (1.0 if k > 0 else 0.0) + (2.0 / (alpha * t) ** 2 if k == 2 else 0.0)


def rn_add_two_if_empty(x: PointSet, alpha: float, t: float,
                        rng: np.random.Generator) -> tuple[PointSet, float]:
    """Add two uniform points when x is empty, else keep x.

    The returned density is the likelihood ratio at the input configuration;
    it is bounded by 1 + 2/(alpha t)^2.
    """
    density = add_two_if_empty_density(x, alpha, t)
    if len(x) == 0:
        lo = x.carrier.a
        pts = np.sort(rng.uniform(lo, lo + t, size=2))
        while pts[0] == pts[1]:
            pts = np.sort(rng.uniform(lo, lo + t, size=2))
        return PointSet.of(x.carrier, pts), density
    return x, density


def add_or_delete_density(x: PointSet, alpha: float, t: float) -> float:
    if alpha * t <= 0:
        raise DegenerateRateError("add-or-delete needs alpha * t > 0")
    k = len(x)
    at = alpha * t
    density = 0.0
    if k == 1:
        density += 1.0 / at
    if k == 2:
        density += 2.0 / at
    if k >= 1:
        density += at / (k + 1)
    return density


def rn_add_or_delete(x: PointSet, alpha: float, t: float,
                     rng: np.random.Generator) -> tuple[PointSet, float]:
    """Add a uniform point when |x| <= 1, delete a uniform point when |x| >= 2.

    The returned density is the likelihood ratio at the input configuration;
    it is bounded by 2/(alpha t) + alpha t.
    """
    density = add_or_delete_density(x, alpha, t)
    if len(x) <= 1:
        lo = x.carrier.a
        while True:
            p = float(rng.uniform(lo, lo + t))
            if p not in x.points:
                break
        modified = PointSet.of(x.carrier, x.points + (p,))
    else:
        drop = int(rng.integers(len(x)))
        modified = PointSet(x.carrier, x.points[:drop] + x.points[drop + 1:])
    return modified, density


# scheme -> (modify, c2 as a function of (alpha, t), the event A)
SCHEMES = {
    "delete-all": (lambda x, a, t, rng: rn_delete_all(x, a, t),
                   lambda a, t: math.exp(a * t),
                   lambda x: len(x) == 0),
    "add-two-if-empty": (rn_add_two_if_empty,
                         lambda a, t: 1.0 + 2.0 / (a * t) ** 2,
                         lambda x: len(x) > 0),
    "add-or-delete": (rn_add_or_delete,
                      lambda a, t: 2.0 / (a * t) + a * t,
                      lambda x: len(x) > 0),
}


def verify_modification_identity(f: Callable[[PointSet], float], scheme: str,
                                 alpha: float, t: float, n_samples: int,
                                 rng: np.random.Generator) -> Check:
    """Monte Carlo check of the bound E[f(X)] <= c1 c2 E[f(X) 1_A(X)] for a
    functional f >= 0.

    c1 bounds f(X)/f(modified X); it is measured over the joint draws and
    reported with c2 in the check's detail.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    modify, c2_of, in_a = SCHEMES[scheme]
    carrier = Carrier(0.0, t)
    c2 = c2_of(alpha, t)

    f_x = np.empty(n_samples)
    f_x_ind = np.empty(n_samples)
    ratio_max = 0.0
    for i in range(n_samples):
        x = sample_constant(carrier, alpha, rng)
        modified, _ = modify(x, alpha, t, rng)
        fx = f(x)
        fm = f(modified)
        f_x[i] = fx
        f_x_ind[i] = fx if in_a(x) else 0.0
        if fm > 0:
            ratio_max = max(ratio_max, fx / fm)
        elif fx > 0:
            ratio_max = math.inf
    c1 = ratio_max if ratio_max > 0 else 1.0

    lhs = mean_estimate(f_x)
    rhs = mean_estimate(f_x_ind)
    return Check("bound", lhs.value, c1 * c2 * rhs.value, lhs.stderr, c1 * c2 * rhs.stderr,
                 {"scheme": scheme, "c1": c1, "c2": c2})
