"""Means, mergeable ratio sums, and error estimates for ratio estimators."""

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


def effective_sample_size(weights) -> float:
    w = np.asarray(weights, dtype=float)
    s = w.sum()
    s2 = (w * w).sum()
    return float(s * s / s2) if s2 > 0 else 0.0


def ratio_estimate_jackknife(num, den) -> Estimate:
    """Delete-one jackknife for a ratio mean(num)/mean(den) on a shared pool."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    n = num.size
    s_num, s_den = num.sum(), den.sum()
    if s_den == 0:
        raise ZeroDivisionError("ratio estimate with all-zero denominator")
    theta = s_num / s_den
    loo = (s_num - num) / (s_den - den)
    theta_j = loo.mean()
    var = (n - 1) / n * ((loo - theta_j) ** 2).sum()
    ess = effective_sample_size(np.abs(den))
    warnings = ("low-ess",) if ess < LOW_ESS else ()
    return Estimate(float(n * theta - (n - 1) * theta_j), math.sqrt(var), n, ess, warnings)


def ratio_estimate_independent(num, den) -> Estimate:
    """Delta-method SE for mean(num)/mean(den) from independent pools."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    nb, db = num.mean(), den.mean()
    if db == 0:
        raise ZeroDivisionError("ratio estimate with zero denominator mean")
    vn = num.var(ddof=1) / num.size if num.size > 1 else 0.0
    vd = den.var(ddof=1) / den.size if den.size > 1 else 0.0
    var = vn / db**2 + nb**2 * vd / db**4
    ess = effective_sample_size(np.abs(den))
    warnings = ("low-ess",) if ess < LOW_ESS else ()
    return Estimate(float(nb / db), math.sqrt(var), num.size, ess, warnings)


def difference_estimate(a: Estimate, b: Estimate) -> Estimate:
    return Estimate(a.value - b.value, math.hypot(a.stderr, b.stderr), min(a.n, b.n))


@dataclass
class RatioAccumulator:
    """Mergeable sums for a ratio of means over a shared pool.

    Tracks first and second moments of (num, den) including their covariance,
    so chains can be merged exactly and the delta-method standard error of
    mean(num)/mean(den) computed from the pooled sums.
    """

    n: int = 0
    sum_num: float = 0.0
    sum_den: float = 0.0
    sum_num2: float = 0.0
    sum_den2: float = 0.0
    sum_cross: float = 0.0

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
        self.n += other.n
        self.sum_num += other.sum_num
        self.sum_den += other.sum_den
        self.sum_num2 += other.sum_num2
        self.sum_den2 += other.sum_den2
        self.sum_cross += other.sum_cross

    def estimate(self) -> Estimate:
        if self.n < 2 or self.sum_den == 0:
            raise ZeroDivisionError("ratio accumulator needs data and nonzero denominator")
        n = self.n
        mn, md = self.sum_num / n, self.sum_den / n
        vn = (self.sum_num2 / n - mn * mn) / n
        vd = (self.sum_den2 / n - md * md) / n
        cv = (self.sum_cross / n - mn * md) / n
        var = vn / md**2 + mn**2 * vd / md**4 - 2.0 * mn * cv / md**3
        ess = self.sum_den**2 / self.sum_den2 if self.sum_den2 > 0 else 0.0
        warnings = ("low-ess",) if ess < LOW_ESS else ()
        return Estimate(mn / md, math.sqrt(max(var, 0.0)), n, ess, warnings)


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
