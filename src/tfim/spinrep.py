"""Space-time spin representation: a-priori sampler, Gibbs reweighting,
and importance-sampling correlation estimators.

A configuration assigns each site a +-1 value at time zero and a finite set
of flip times; the trajectory is right-continuous and switches value exactly
at the flips.  Correlations are estimated by reweighting a-priori samples
with exp(lam * sum over edges of the pair-overlap integral); the weights are
handled in log space so large boxes do not overflow.  The overlap integral
reads the spin product once per time window and flips its sign at every
flip of either site, and spin values are bisect counts on the per-site flip
lists.  A pool of importance draws is weighed
in blocks of flat arrays, bit for bit as that walk weighs each draw.  The
a-priori measure does not depend on the coupling, so a pool's overlap sums
are computed once and multiplied by each coupling of a grid.  Importance
sampling from the a-priori measure degrades exponentially with space-time
volume, so a Suzuki-Trotter discretized Metropolis sampler is provided
behind the same estimator surface for the larger magnetization sweeps; it
is approximate and its time step is recorded in every result it produces.
It runs one chain per coupling of a grid on one stacked lattice, each chain
drawing from its own generator.  Its sweep draws one uniform per site-slot
cell of each chain and updates one colour class of cells of every chain at
a time from precomputed neighbour indices and per-coupling acceptance
tables over integer neighbour sums.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (Holes, SpaceTimeRegion, edge_windows, line_components)
from .poisson import draw_times
from .stats import (Estimate, RatioAccumulator, SamplingError, batch_means_estimate,
                    integrated_autocorrelation_time)


_REJECT_BUDGET = 10000


def _even_poisson_times(lo: float, hi: float, rate: float, rng: np.random.Generator) -> list:
    for _ in range(_REJECT_BUDGET):
        times = draw_times(lo, hi, rate, rng)
        if len(times) % 2 == 0:
            return times
    raise SamplingError(
        f"even-parity rejection budget exceeded (rate {rate}, length {hi - lo})")


@dataclass
class SpinConfiguration:
    """Per-site initial value at time 0 and sorted flip times (float lists)."""

    region: SpaceTimeRegion
    initial: dict
    flips: dict

    @functools.cached_property
    def _flip_lists(self) -> dict:
        """Site -> (flip times, flips at or before time 0)."""
        return {x: (times, bisect.bisect_right(times, 0.0)) for x, times in self.flips.items()}

    def value(self, x, t: float) -> int:
        x = tuple(x)
        if x not in self.initial:
            # frozen exterior sites under the wired spatial condition
            return 1
        times, at_zero = self._flip_lists[x]
        # the parity of the flips between 0 and t, on either side of 0
        count = bisect.bisect_right(times, t) - at_zero
        return self.initial[x] * (1 if count % 2 == 0 else -1)

    def flip_times(self, x) -> list:
        return self.flips.get(tuple(x), [])

    def product_over(self, points: Sequence) -> int:
        out = 1
        for (x, t) in points:
            out *= self.value(x, t)
        return out


def sample_apriori(region: SpaceTimeRegion, delta: float,
                   rng: np.random.Generator) -> SpinConfiguration:
    """Draw from the a-priori measure with the region's time boundary rule.

    Free time: unconstrained flips, fair initial signs.  Periodic time: flip
    counts conditioned even per site (acceptance at least 1/2 per site).
    Wired time: even flip counts and the initial sign chosen so both endpoint
    values are +1.
    """
    initial = {}
    flips = {}
    lo, hi = region.t_min, region.t_max
    for x in region.box.sites():
        if region.bc_time == "f":
            times = draw_times(lo, hi, delta, rng)
            init = 1 if rng.random() < 0.5 else -1
        elif region.bc_time == "p":
            times = _even_poisson_times(lo, hi, delta, rng)
            init = 1 if rng.random() < 0.5 else -1
        else:  # wired endpoints
            times = _even_poisson_times(lo, hi, delta, rng)
            init = 1 if bisect.bisect_right(times, 0.0) % 2 == 0 else -1
        initial[x] = init
        flips[x] = times
    return SpinConfiguration(region, initial, flips)


def overlap_integral(config, x, y, windows: Sequence | None = None) -> float:
    """int sigma(x,t) sigma(y,t) dt over the line (or the given windows, which
    may wrap past t_max on the circle) for a :class:`SpinConfiguration` or a
    :class:`CutSpinConfiguration`.  The product is constant between the flips
    of x and y.  Every break inside a window is a flip of x or of y, so the
    product is read once per window and changes sign at each break.  It is
    read at the midpoint of the longest piece, which rounding cannot move
    across a break."""
    region = config.region
    if windows is None:
        windows = [(region.t_min, region.t_max)]
    x, y = tuple(x), tuple(y)
    flips = [*config.flip_times(x), *config.flip_times(y)]
    total = 0.0
    for (lo, hi) in windows:
        cand = flips if hi <= region.t_max else flips + [t + region.r for t in flips]
        breaks = [lo, *sorted(t for t in cand if lo < t < hi), hi]
        k = max(range(len(breaks) - 1), key=lambda i: breaks[i + 1] - breaks[i])
        mid = (breaks[k] + breaks[k + 1]) / 2.0
        base = mid if mid <= region.t_max else mid - region.r
        sign = config.value(x, base) * config.value(y, base) * (-1) ** k
        for a, b in zip(breaks, breaks[1:]):
            total += (b - a) * sign
            sign = -sign
    return total


def gibbs_log_weight(config: SpinConfiguration, lam: float,
                     edges: Sequence) -> float:
    """lam times the overlap integrals (frozen sites read as +1), added edge
    by edge in order: the order the pool kernel keeps, which ``sum`` does not
    promise (from Python 3.12 it compensates float rounding)."""
    total = 0.0
    for (x, y) in edges:
        total += overlap_integral(config, x, y)
    return lam * total


# Pools are weighed this many samples at a time, so that a pool's working
# memory does not grow with its size.
POOL_BLOCK = 128


def _piece_sums(samples: np.ndarray, times: np.ndarray, first_sign: np.ndarray,
                lo: float, hi: float) -> np.ndarray:
    """Per sample, the sum of :func:`overlap_integral` over [lo, hi], piece by
    piece from 0.0: the pieces run between ``lo``, the sample's ``times``
    (all inside, sorted by sample and then by time) and ``hi``, and their
    signs alternate from ``first_sign``."""
    n = first_sign.size
    counts = np.bincount(samples, minlength=n)
    # one row of breaks per sample, padded with hi: a padded piece adds 0.0
    breaks = np.full((n, counts.max(initial=0) + 2), hi)
    breaks[:, 0] = lo
    rank = np.arange(times.size) - (np.cumsum(counts) - counts)[samples]
    breaks[samples, rank + 1] = times
    terms = np.diff(breaks, axis=1) * first_sign[:, None]
    terms[:, 1::2] *= -1.0
    total = np.zeros(n)
    for column in terms.T:
        total += column
    return total


def _block_overlap_sums(region, edges: Sequence, site_index: dict, flips: list,
                        initial: list) -> np.ndarray:
    """The overlap sums of configurations, each the sum that
    :func:`gibbs_log_weight` multiplies by lam, bit for bit, from their flip
    lists and initial signs listed sample by sample, site by site.  On each
    edge the spin product is constant between the two sites' flips and
    changes sign at each of them."""
    lo, hi = region.t_min, region.t_max
    n_sites = len(site_index)
    n = len(flips) // n_sites
    counts = np.fromiter(map(len, flips), dtype=np.intp, count=len(flips))
    times = np.array([t for ts in flips for t in ts], dtype=float)
    row = np.repeat(np.arange(len(flips)), counts)
    # each site's value from t_min to its first flip: its initial sign times
    # the parity of its flips from 0 back to t_min; a last column of ones
    # stands for the frozen +1 sites of wired space
    parity = (np.bincount(row[times <= 0.0], minlength=len(flips))
              + np.bincount(row[times <= lo], minlength=len(flips))) % 2
    first = np.ones((n, n_sites + 1))
    first[:, :-1] = (np.array(initial, dtype=float) * (1 - 2 * parity)).reshape(n, n_sites)
    sample, site = np.divmod(row, n_sites)
    inside = (times > lo) & (times < hi)
    total = np.zeros(n)
    for (x, y) in edges:
        kx, ky = site_index.get(x, n_sites), site_index.get(y, n_sites)
        pair = np.flatnonzero(inside & ((site == kx) | (site == ky)))
        pair = pair[np.lexsort((times[pair], sample[pair]))]
        total += _piece_sums(sample[pair], times[pair], first[:, kx] * first[:, ky], lo, hi)
    return total


def _overlap_sums_and_values(region, delta, n_samples, rng, value_fn):
    """Overlap sums and values of ``n_samples`` a-priori draws.

    The a-priori measure does not depend on the coupling, so one pool serves
    every coupling: lam times a draw's overlap sum is its log importance
    weight, equal bit for bit to :func:`gibbs_log_weight`.  Each draw is one
    :func:`sample_apriori` call and its value one ``value_fn`` call, in
    stream order; the sums are computed ``POOL_BLOCK`` draws at a time from
    the draws' flips and initial signs."""
    edges = region.edge_set().edges
    site_index = {x: k for k, x in enumerate(region.box.sites())}
    sums = np.empty(n_samples)
    vals = np.empty(n_samples)
    for start in range(0, n_samples, POOL_BLOCK):
        stop = min(start + POOL_BLOCK, n_samples)
        flips, initial = [], []
        for i in range(start, stop):
            config = sample_apriori(region, delta, rng)
            vals[i] = value_fn(config)
            flips += config.flips.values()  # both in site order
            initial += config.initial.values()
        sums[start:stop] = _block_overlap_sums(region, edges, site_index, flips, initial)
    return sums, vals


def estimate_correlation(points: Sequence, region: SpaceTimeRegion, lam: float,
                         delta: float, n_samples: int,
                         rng: np.random.Generator) -> Estimate:
    """Importance-sampling estimate of the correlation over the point set."""
    for (x, t) in points:
        if not region.contains_point((x, t)):
            raise ValueError(f"point {(x, t)} outside region")
        if region.at_time_end(t):
            raise ValueError("correlation points must avoid the time endpoints")
    sums, vals = _overlap_sums_and_values(region, delta, n_samples, rng,
                                          lambda c: c.product_over(points))
    logs = lam * sums
    w = np.exp(logs - logs.max())
    return RatioAccumulator.of(w * vals, w, covariance=True).estimate("spin importance pool")


def restricted_overlap_sum(config: SpinConfiguration, holes: Holes,
                           edges: Sequence) -> float:
    """Sum over edges of the overlap integral restricted to the hole shadow
    (windows where at least one endpoint lies in the holes)."""
    region = config.region
    total = 0.0
    for (x, y) in edges:
        full = overlap_integral(config, x, y)
        outside = overlap_integral(config, x, y,
                                   edge_windows(region, holes, tuple(x), tuple(y)))
        total += full - outside
    return total


def estimate_exp_overlap_in(holes: Holes, region: SpaceTimeRegion, lam: float,
                            delta: float, n_samples: int,
                            rng: np.random.Generator) -> Estimate:
    """mu[exp(-lam L)] where L is the overlap integral over edge windows
    shadowed by the holes (edges with an endpoint inside)."""
    edges = region.edge_set().edges

    def value(config):
        return math.exp(-lam * restricted_overlap_sum(config, holes, edges))

    sums, vals = _overlap_sums_and_values(region, delta, n_samples, rng, value)
    logs = lam * sums
    w = np.exp(logs - logs.max())
    return RatioAccumulator.of(w * vals, w, covariance=True).estimate("spin importance pool")


# -- partition-style estimates over cut regions ------------------------------

@dataclass
class CutSpinConfiguration:
    """Spin values on a region with holes: independent components per site.

    Each component carries its own fair initial sign and sorted list of flip
    offsets; values are undefined inside the holes (never queried there).
    """

    region: SpaceTimeRegion
    components: dict  # site -> list of (start, length, init, flip offsets)

    def value(self, x, t: float) -> int:
        for (start, length, init, flips) in self.components[tuple(x)]:
            offset = t - start
            if self.region.time_topology == "circle":
                offset = offset % self.region.r
            if -1e-12 <= offset <= length + 1e-12:
                count = bisect.bisect_right(flips, offset)
                return init * (1 if count % 2 == 0 else -1)
        raise ValueError(f"time {t} not in any component of site {x}")

    def flip_times(self, x) -> list:
        """Flip times of site x in base coordinates [t_min, t_max]."""
        times = [start + f for (start, _, _, flips) in self.components[tuple(x)] for f in flips]
        return [t - self.region.r if t > self.region.t_max else t for t in times]


def _sample_cut_config(region: SpaceTimeRegion, holes: Holes, delta: float,
                       rng: np.random.Generator) -> tuple[CutSpinConfiguration, float]:
    """Sample the a-priori measure on the cut region.

    Returns the configuration and the exact conditioning factor contributed
    by the time boundary rule: uncut periodic circles are conditioned on even
    flip counts (factor (1 + e^{-2 delta r})/2 per site); cut components are
    free on both ends and carry no factor.
    """
    comps = {}
    log_factor = 0.0
    for x in region.box.sites():
        site_comps = []
        parts = line_components(region, holes, x)
        cut = bool(holes.on_site(x))
        for part in parts:
            if region.time_topology == "circle":
                start, length = part
            else:
                start, length = part[0], part[1] - part[0]
            if region.bc_time == "p" and not cut:
                times = _even_poisson_times(0.0, length, delta, rng)
                log_factor += math.log((1.0 + math.exp(-2.0 * delta * length)) / 2.0)
            else:
                times = draw_times(0.0, length, delta, rng)
            init = 1 if rng.random() < 0.5 else -1
            site_comps.append((start, length, init, times))
        comps[x] = site_comps
    return CutSpinConfiguration(region, comps), log_factor


def estimate_cut_partition(region: SpaceTimeRegion, holes: Holes, lam: float,
                           delta: float, n_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """``n_samples`` draws whose mean estimates the Gibbs partition value of
    the region with holes removed: a-priori values of exp(lam * overlap over
    surviving edge windows), multiplied by the exact boundary conditioning
    factors."""
    if region.bc_time == "w":
        raise ValueError("cut-partition estimates support free and periodic time")
    if region.bc_space == "w":
        raise ValueError("cut-partition estimates support free and periodic space")
    edges = region.edge_set().edges
    windows = {e: edge_windows(region, holes, e[0], e[1]) for e in edges}
    vals = np.empty(n_samples)
    for i in range(n_samples):
        config, log_factor = _sample_cut_config(region, holes, delta, rng)
        total = sum(overlap_integral(config, x, y, windows[(x, y)]) for (x, y) in edges)
        vals[i] = math.exp(lam * total + log_factor)
    return vals


# -- Suzuki-Trotter discretized Metropolis sampler ---------------------------

def _proper_ring_colors(n: int, neighbours: list) -> np.ndarray:
    colors = -np.ones(n, dtype=int)
    for i in range(n):
        used = {colors[j] for j in neighbours[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


@dataclass
class TrotterResult:
    estimate: Estimate
    dt: float
    n_slots: int
    flip_frac: float  # accepted flips per site-slot per measured sweep
    tau_int: float | None  # of the measured series; None when it never varies
    approximate: bool = True

    @classmethod
    def of_series(cls, series: np.ndarray, sampler: TrotterSampler,
                  flip_frac: float) -> TrotterResult:
        est = batch_means_estimate(series)
        return cls(est, sampler.dt, sampler.n_slots, flip_frac,
                   integrated_autocorrelation_time(series, est))


# A cell's table code is s + 3 T + 15 S for its spin s = +-1, its time
# neighbour sum |T| <= 2 and its space neighbour sum S: s + 3 T is one-to-one
# on those s and T and spans fewer than ``_S_STRIDE`` values.
_T_STRIDE = 3
_S_STRIDE = 15


class TrotterSampler:
    """Checkerboard Metropolis on the Suzuki-Trotter lattice of a region,
    one chain per coupling of ``lams``, stacked on a leading coupling axis.

    The time direction is discretized into slots of width ~dt; space coupling
    per slot is lam*dt and the time coupling is -log(tanh(delta*dt))/2.
    Results are approximate with an O(dt^2) bias; the step used is recorded
    in every result.

    Cell (site, slot) has colour (site colour + slot colour) mod K, where
    K is the larger of the site and slot colour counts: space neighbours
    differ in site colour and time neighbours in slot colour, so no two cells
    of a colour are neighbours.  Each chain's cells are one row of a
    (couplings, site-slots + 1) array whose last cell is a zero that stands
    in for a missing neighbour; ``spins`` is its (couplings, sites, slots)
    view.  Set-up stores, per colour, the flat indices of its cells in every
    chain, one contiguous (1 + neighbours, cells) block of the indices of
    those cells and of their space and time neighbours in the same chain, and
    one block of acceptance probabilities over the integer neighbour sums per
    coupling; frozen +1 neighbours (wired space) and the wired time ends are
    constants of each cell.  A sweep draws one uniform per site-slot from
    each chain's own generator, copies the cells, then visits the colours in
    order, for all chains at once: gather the block, scale its rows by the
    code weights and sum them in int8 into table codes, look up, compare
    against each cell's own uniform and flip that colour's cells.  A decision
    reads only its own chain's cells, table block and uniform, so each chain
    is the chain a one-coupling sampler would run from the same generator.
    Every cell is offered one flip per sweep with a fresh uniform, so each
    colour update is an exact Metropolis step, and the accepted flips are
    the cells that differ from the copy.
    """

    def __init__(self, region: SpaceTimeRegion, lams: Sequence[float], delta: float,
                 dt: float = 0.1):
        self.region = region
        self.lams = tuple(lams)
        self.delta = delta
        self.n_slots = max(4, int(round(region.r / dt)))
        self.dt = region.r / self.n_slots
        self.k_time = -0.5 * math.log(math.tanh(delta * self.dt))
        self.k_space = np.array(self.lams) * self.dt

        self.sites = region.box.sites()
        index = {x: i for i, x in enumerate(self.sites)}
        nbrs = [[] for _ in self.sites]
        frozen = np.zeros(len(self.sites), dtype=int)  # frozen +1 neighbours
        for (x, y) in region.edge_set().edges:
            xi = index.get(tuple(x))
            yi = index.get(tuple(y))
            if xi is not None and yi is not None:
                nbrs[xi].append(yi)
                nbrs[yi].append(xi)
            elif xi is not None:
                frozen[xi] += 1
            elif yi is not None:
                frozen[yi] += 1

        n, m = len(self.sites), self.n_slots
        pad = n * m  # index of a chain's zero cell; cell c = site * m + slot
        max_deg = max((len(v) for v in nbrs), default=0)
        space_nbr = np.full((n, max_deg), -1)
        for i, v in enumerate(nbrs):
            space_nbr[i, :len(v)] = v
        slots = np.arange(m)
        time_nbr = np.stack([slots - 1, slots + 1], axis=1)
        if region.bc_time == "p":
            time_nbr %= m
        else:
            time_nbr[(time_nbr < 0) | (time_nbr >= m)] = -1
        wired = np.zeros(m, dtype=int)  # wired time ends read a frozen +1
        if region.bc_time == "w":
            wired[[0, -1]] = 1

        # gather rows: the cell, its space neighbours, its time neighbours
        site_of, slot_of = np.divmod(np.arange(pad), m)
        gather = np.vstack([
            np.arange(pad),
            np.where(space_nbr[site_of] >= 0, space_nbr[site_of] * m + slot_of[:, None], pad).T,
            np.where(time_nbr[slot_of] >= 0, site_of[:, None] * m + time_nbr[slot_of], pad).T])
        centre = _S_STRIDE * max_deg + 2 * _T_STRIDE + 1
        block = 2 * centre + 1
        # int8 code sums (no cast of the gathered spins) while they fit
        self._code_type = np.int8 if centre <= np.iinfo(np.int8).max else np.int64
        self._weights = np.array([1] + [_S_STRIDE] * max_deg + [_T_STRIDE] * 2,
                                 dtype=np.int8)[:, None]

        # per coupling, one table block per (frozen neighbours, wired ends)
        # pair, each entry in the floating operations of a full-lattice field
        n_frozen = frozen.max(initial=0) + 1
        j, f, w, S, T, s = np.meshgrid(np.arange(len(self.lams)), np.arange(n_frozen),
                                       [0, 1], np.arange(-max_deg, max_deg + 1),
                                       np.arange(-2, 3), [-1, 1], indexing="ij")
        k = self.k_space[j]
        local = (k * S.astype(float) + f * k) + self.k_time * (T + w).astype(float)
        chain_table = 2 * n_frozen * block
        code = (j * chain_table + (2 * f + w) * block + centre + s + _T_STRIDE * T
                + _S_STRIDE * S)
        self._table = np.zeros(len(self.lams) * chain_table)
        self._table[code.ravel()] = np.exp(-np.clip((2.0 * s) * local, 0, 700)).ravel()
        base = (2 * frozen[site_of] + wired[slot_of]) * block + centre

        site_colors = _proper_ring_colors(n, nbrs)
        slot_colors = _proper_ring_colors(m, [[j for j in row if j >= 0] for row in time_nbr])
        n_colors = max(site_colors.max(), slot_colors.max()) + 1
        full = ((site_colors[:, None] + slot_colors[None, :]) % n_colors).ravel()
        # chain j's cells, gathers and table block sit j rows further on
        chain = np.arange(len(self.lams))[:, None]
        self._plan = []
        for c in range(n_colors):
            cells = np.flatnonzero(full == c)
            self._plan.append((
                (chain * (pad + 1) + cells).ravel(),
                np.ascontiguousarray(chain * (pad + 1) + gather[:, None, cells])
                .reshape(len(gather), -1),
                (chain * chain_table + base[cells]).ravel()))

        self._cells = np.ones((len(self.lams), pad + 1), dtype=np.int8)
        self._cells[:, pad] = 0
        self.spins = self._cells[:, :pad].reshape(len(self.lams), n, m)
        self._uniforms = np.empty(self._cells.shape)
        self.origin = index[(0,) * region.box.d]

    def sweep(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One Metropolis update of every colour, chain j drawing from
        ``rngs[j]``; returns the accepted flips per chain."""
        cells = self._cells.reshape(-1)
        u = self._uniforms
        for row, rng in zip(u, rngs, strict=True):
            rng.random(out=row[:-1])
        u = u.reshape(-1)
        before = self._cells.copy()
        for idx, gather, base in self._plan:
            codes = cells[gather]
            codes *= self._weights
            accept = u[idx] < self._table[codes.sum(axis=0, dtype=self._code_type) + base]
            cells[idx[accept]] *= -1
        # each cell is offered one flip per sweep, so the changed cells are the flips
        return (self._cells != before).sum(axis=1)

    def run(self, n_sweeps: int, rngs: Sequence[np.random.Generator],
            measure) -> tuple[np.ndarray, list]:
        """``n_sweeps`` measured sweeps after ``n_sweeps // 5`` burn-in sweeps:
        the measurement series, with one row per sweep and one entry per
        chain, and the accepted flips per site-slot per measured sweep of
        each chain."""
        for _ in range(n_sweeps // 5):
            self.sweep(rngs)
        out = []
        flips = 0
        for _ in range(n_sweeps):
            flips += self.sweep(rngs)
            out.append(measure(self))
        cells = n_sweeps * self.spins[0].size
        return np.asarray(out), [int(f) / cells for f in flips]

    # measurement helpers: one value (or row of values) per chain ------------
    def magnetization_origin(self) -> np.ndarray:
        return self.spins[:, self.origin, self.n_slots // 2].astype(float)

    def pair_correlations(self, distances: Sequence[int]) -> np.ndarray:
        """Translation-averaged equal-time pair correlations at the lattice
        distances (d=1, spatially periodic regions), one row per chain: one
        gather of the site axis rolled by every distance, and one int32 sum
        per chain and distance over the contiguous site-slot products."""
        s = self.spins
        n = s.shape[1]
        rolled = (np.arange(n) + np.asarray(distances)[:, None]) % n
        products = (s[:, None] * s[:, rolled]).reshape(len(s), len(rolled), -1)
        return products.sum(axis=2, dtype=np.int32) / s[0].size


def trotter_magnetization(region: SpaceTimeRegion, lams: Sequence[float], delta: float,
                          n_sweeps: int, rngs: Sequence[np.random.Generator],
                          dt: float = 0.1) -> list[TrotterResult]:
    """The origin magnetization at each coupling, chain j drawn from
    ``rngs[j]``."""
    sampler = TrotterSampler(region, lams, delta, dt)
    series, flip_frac = sampler.run(n_sweeps, rngs, TrotterSampler.magnetization_origin)
    # each chain's series is copied into the layout a one-coupling run had
    return [TrotterResult.of_series(series[:, j].copy(), sampler, flip_frac[j])
            for j in range(len(lams))]


def trotter_pair_correlations(region: SpaceTimeRegion, lams: Sequence[float], delta: float,
                              distances: Sequence[int], n_sweeps: int,
                              rngs: Sequence[np.random.Generator],
                              dt: float = 0.1) -> list[dict]:
    """Equal-time pair correlations at the given distances, one dict per
    coupling, chain j drawn from ``rngs[j]``.  Each estimate
    averages the equal-time correlation over the sites and over every
    Trotter slice of the region's time extent.  On a free-time slab this is
    the slab average, not the mid-time (t = 0) correlation that
    :func:`tfim.spectral.oracle_correlation` gives: near the free time ends
    the correlations are weaker, so the average sits below the mid-time
    value.  Only on a d=1 ring is a roll over the site axis a lattice
    translation, so other regions raise ``ValueError``."""
    if region.box.d != 1 or region.bc_space != "p":
        raise ValueError("pair correlations need d = 1 and periodic space, got "
                         f"d = {region.box.d} and bc_space = {region.bc_space!r}")
    sampler = TrotterSampler(region, lams, delta, dt)
    series, flip_frac = sampler.run(n_sweeps, rngs, lambda s: s.pair_correlations(distances))
    out = []
    for j in range(len(lams)):
        chain = series[:, j].copy()
        out.append({d: TrotterResult.of_series(chain[:, i], sampler, flip_frac[j])
                    for i, d in enumerate(distances)})
    return out
