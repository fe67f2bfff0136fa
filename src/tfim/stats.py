"""Means, the one ratio estimator, batch-means errors and the verification
record.

``RatioAccumulator`` estimates every ratio of weighted means, and each caller
fixes its ``covariance`` from how the pool was drawn (measured over 100
seeds on 3 sites, 300 draws, lam = delta = 1, against ED).  Dense shared
pools (spin importance weights, the event-probability lhs) keep the
covariance term: RMS z 0.99-1.33, as the jackknife's.  Coupled pools drop it
although their sides share draws: on about 13 nonzero weights of 300 it gave
RMS z 2.84, the paired formula 23.6.  Independent pools (the random-parity
correlation, the spin partition pools of the event-probability rhs, the
ghost-connection bound) have no covariance to keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOW_ESS = 100.0  # ratio estimates with a smaller Kish ESS carry "low-ess"
N_SE = 3.0  # a check passes when its gap is at most N_SE combined standard errors
BATCHES = 32  # batch count of batch_means_estimate


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a standard error and bookkeeping fields."""

    value: float
    stderr: float
    n: int
    ess: float = float("nan")
    warnings: tuple = ()

    def agrees_with(self, other: "Estimate | float") -> bool:
        """The identity check of this estimate against another or an exact value."""
        if isinstance(other, Estimate):
            return Check("identity", self.value, other.value, self.stderr, other.stderr).passed
        return Check("identity", self.value, other, self.stderr, 0.0).passed


@dataclass(frozen=True)
class Check:
    """One verification: both sides with their standard errors.

    An ``identity`` claims lhs = rhs, a ``bound`` claims lhs <= rhs.  ``gap``
    is the violation in units of the combined standard error
    hypot(se_lhs, se_rhs): |lhs - rhs| for an identity, max(lhs - rhs, 0) for
    a bound.  With a zero combined error it is 0.0 when the claim holds
    exactly and inf when it does not.  The check passes when the gap is at
    most ``N_SE``.  ``detail`` carries extras such as constants and the
    printed forms of an identity.
    """

    kind: str
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("identity", "bound"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    @property
    def gap(self) -> float:
        excess = (abs(self.lhs - self.rhs) if self.kind == "identity"
                  else max(self.lhs - self.rhs, 0.0))
        if excess == 0:
            return 0.0
        se = math.hypot(self.se_lhs, self.se_rhs)
        return excess / se if se > 0 else math.inf

    @property
    def passed(self) -> bool:
        return self.gap <= N_SE


def mean_estimate(xs) -> Estimate:
    """Sample mean with the standard error sqrt(var / n) (nan below two
    values; an empty input reads 0.0)."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n == 0:
        return Estimate(0.0, math.nan, 0)
    mean = float(xs.mean())
    m2 = float(((xs - mean) ** 2).sum())
    return Estimate(mean, math.sqrt(m2 / (n - 1) / n) if n > 1 else math.nan, n)


def difference_estimate(a: Estimate, b: Estimate) -> Estimate:
    return Estimate(a.value - b.value, math.hypot(a.stderr, b.stderr), min(a.n, b.n))


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its budget or a ratio pool
    has no weight."""


@dataclass
class RatioAccumulator:
    """Mergeable sums for the ratio mean(num)/mean(den), the one ratio
    estimator.

    ``covariance`` says how the pairs were drawn.  With it, num and den come
    from the same draws and the standard error is the paired delta method;
    without it, the independent-pools delta method, which drops the num-den
    covariance term.  Both take the n-1 sample variances, so sums from any
    split of the pairs merge to the same estimate.
    """

    covariance: bool
    n: int = 0
    sum_num: float = 0.0
    sum_den: float = 0.0
    sum_num2: float = 0.0
    sum_den2: float = 0.0
    sum_cross: float = 0.0

    @classmethod
    def of(cls, num, den, covariance: bool) -> "RatioAccumulator":
        """The sums of one pool of (num, den) pairs."""
        acc = cls(covariance)
        acc.push_many(num, den)
        return acc

    def push_many(self, num, den) -> None:
        num = np.asarray(num, dtype=float)
        den = np.asarray(den, dtype=float)
        self.n += num.size
        self.sum_num += float(num.sum())
        self.sum_den += float(den.sum())
        self.sum_num2 += float((num * num).sum())
        self.sum_den2 += float((den * den).sum())
        self.sum_cross += float((num * den).sum())

    def merge(self, other: "RatioAccumulator") -> None:
        if other.covariance != self.covariance:
            raise ValueError("cannot merge sums drawn with and without paired pools")
        self.n += other.n
        self.sum_num += other.sum_num
        self.sum_den += other.sum_den
        self.sum_num2 += other.sum_num2
        self.sum_den2 += other.sum_den2
        self.sum_cross += other.sum_cross

    def estimate(self, pool: str) -> Estimate:
        """The ratio with its standard error (nan below two pairs) and the
        Kish ESS of the denominator weights; ``SamplingError`` naming
        ``pool`` when every denominator weight is zero."""
        n = self.n
        if self.sum_den == 0:
            raise SamplingError(f"all {n} weights of the {pool} are zero, "
                                "so its ratio is undefined")
        mn, md = self.sum_num / n, self.sum_den / n
        ratio = mn / md
        if n < 2:
            return Estimate(ratio, math.nan, n)
        # variances of the two means, and their covariance when paired
        vn = (self.sum_num2 - n * mn * mn) / (n - 1) / n
        vd = (self.sum_den2 - n * md * md) / (n - 1) / n
        cv = (self.sum_cross - n * mn * md) / (n - 1) / n if self.covariance else 0.0
        var = (vn + ratio * ratio * vd - 2.0 * ratio * cv) / (md * md)
        ess = self.sum_den**2 / self.sum_den2
        warnings = ("low-ess",) if ess < LOW_ESS else ()
        return Estimate(ratio, math.sqrt(max(var, 0.0)), n, ess, warnings)


def batch_means_estimate(xs) -> Estimate:
    """Mean with an autocorrelation-robust SE from ``BATCHES`` batch means
    (for MCMC)."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n < 2 * BATCHES:
        return mean_estimate(xs)
    b = n // BATCHES
    batches = xs[: b * BATCHES].reshape(BATCHES, b).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(BATCHES)
    return Estimate(float(xs.mean()), float(se), n)


def integrated_autocorrelation_time(xs, est: Estimate) -> float | None:
    """tau_int = n SE^2 / (2 s^2) of a series from its ``batch_means_estimate``
    and its sample variance s^2 (1/2 for independent values); None when
    s^2 = 0."""
    xs = np.asarray(xs, dtype=float)
    var = float(xs.var(ddof=1)) if xs.size > 1 else 0.0
    return xs.size * est.stderr**2 / (2.0 * var) if var > 0 else None
