"""Space-time spin representation: a-priori sampler, Gibbs reweighting,
and importance-sampling correlation estimators.

A configuration assigns each site a +-1 value at time zero and a finite set
of flip times; the trajectory is right-continuous and switches value exactly
at the flips.  Correlations are estimated by reweighting a-priori samples
with exp(lam * sum over edges of the pair-overlap integral); the weights are
handled in log space so large boxes do not overflow.  Spin values are
bisect counts on the per-site flip lists.  Every overlap integral goes
through one kernel, on a layout of the region's lines (whole site lines,
or the components that holes leave) and each edge's windows: a window's
sign starts from its two lines' values and their flip parity up to its
start and changes at every flip of either line inside it.  The kernel
weighs draws in blocks of flat arrays: the importance pools, the cut-region
partition draws, and single configurations as pools of one.  The a-priori
measure does not depend on the coupling, so a pool's overlap sums are
computed once and multiplied by each coupling of a grid.  Importance
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
import collections
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


# Pools are weighed this many samples at a time, so that a pool's working
# memory does not grow with its size.
POOL_BLOCK = 128

# Where the overlap kernel reads each edge: the region's lines, as (site,
# start, length) in site order, and per edge its windows, as (lo, hi, line of
# x, line of y).  A window may wrap past t_max on the circle; the line index
# len(lines) stands for a frozen +1 site of wired space.
_Layout = collections.namedtuple("_Layout", "region lines windows")


def _layout(region: SpaceTimeRegion, holes: Holes, edges: Sequence,
            whole_lines: bool = False) -> _Layout:
    """The layout of the edge windows that ``holes`` leave, on the sites'
    :func:`line_components`, or on their whole lines with ``whole_lines``."""
    circle = region.time_topology == "circle"
    lines, own = [], {}
    for x in region.box.sites():
        for part in line_components(region, Holes.empty() if whole_lines else holes, x):
            own.setdefault(x, []).append(len(lines))
            lines.append((x, *(part if circle else (part[0], part[1] - part[0]))))

    def holder(x, lo, hi):
        if x not in own:
            return len(lines)
        mid = (lo + hi) / 2.0
        return next(k for k in own[x]
                    if 0.0 <= ((mid - lines[k][1]) % region.r if circle
                               else mid - lines[k][1]) < lines[k][2])

    return _Layout(region, tuple(lines), tuple(
        tuple((lo, hi, holder(x, lo, hi), holder(y, lo, hi))
              for (lo, hi) in edge_windows(region, holes, x, y)) for (x, y) in edges))


def _flat(lists: list) -> tuple:
    """The times of ``lists`` in one array, and the index of each one's list."""
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    times = np.array([t for ts in lists for t in ts], dtype=float)
    return times, np.repeat(np.arange(len(lists)), counts)


def _whole_lines(region: SpaceTimeRegion, configs: Sequence) -> tuple:
    """Kernel input for configurations on whole lines: the flip times, their
    rows (draw * sites + site) and each line's value just after t_min, its
    initial sign times the parity of its flips in (t_min, 0]."""
    sites = region.box.sites()
    times, rows = _flat([c.flips[x] for c in configs for x in sites])
    initial = np.array([c.initial[x] for c in configs for x in sites], dtype=float)
    parity = (np.bincount(rows[times <= 0.0], minlength=initial.size)
              + np.bincount(rows[times <= region.t_min], minlength=initial.size)) % 2
    return times, rows, initial * (1 - 2 * parity)


def _cut_lines(layout: _Layout, offsets: list, signs: list) -> tuple:
    """Kernel input for draws on the layout's lines, given draw by draw and
    line by line as flip offsets from the line's start and the sign just
    after it: the flips' times in [t_min, t_max], their rows and the signs."""
    offsets, rows = _flat(offsets)
    starts = np.array([start for (_, start, _) in layout.lines])
    times = offsets + starts[rows % len(starts)]
    times[times > layout.region.t_max] -= layout.region.r
    return times, rows, np.array(signs, dtype=float)


def _summed(rows: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """The rows added in order to ``total``, 0.0 by default: the order every
    overlap sum keeps."""
    total = np.zeros(rows.shape[1]) if total is None else total
    for row in rows:
        total += row
    return total


def _piece_sums(samples: np.ndarray, times: np.ndarray, first_sign: np.ndarray,
                lo: float, hi: float, total: np.ndarray) -> np.ndarray:
    """Adds to ``total``, per sample and piece by piece, the pieces between
    ``lo``, the sample's ``times`` (all inside, sorted by sample and then by
    time) and ``hi``, signed alternately from ``first_sign``."""
    n = first_sign.size
    counts = np.bincount(samples, minlength=n)
    # one row of breaks per sample, padded with hi: a padded piece adds 0.0
    breaks = np.full((n, counts.max(initial=0) + 2), hi)
    breaks[:, 0] = lo
    rank = np.arange(times.size) - (np.cumsum(counts) - counts)[samples]
    breaks[samples, rank + 1] = times
    terms = np.diff(breaks, axis=1) * first_sign[:, None]
    terms[:, 1::2] *= -1.0
    return _summed(terms.T, total)


def _overlap_sums(layout: _Layout, times: np.ndarray, rows: np.ndarray,
                  first: np.ndarray) -> np.ndarray:
    """The overlap integrals of int sigma(x,t) sigma(y,t) dt over each edge's
    windows, one row per edge and one column per draw, each added piece by
    piece from 0.0.  ``times`` are the flips, ``rows`` their lines (draw *
    lines + line) and ``first`` each line's value just after its start.

    A window's sign starts from its two lines' values and their flip parity
    up to lo, counted along each line: a line that runs past t_max reads a
    flip below its start at t + r.  It changes at each flip of either line
    in (lo, hi), and at each t + r there past t_max.  A flip at a line's
    start changes nothing."""
    region = layout.region
    n_lines = len(layout.lines)
    n = first.size // n_lines
    sample, line = np.divmod(rows, n_lines)
    signs = np.ones((n, n_lines + 1))  # the last column: frozen +1 sites
    signs[:, :-1] = first.reshape(n, n_lines)
    wrapped = times + region.r
    out = np.zeros((len(layout.windows), n))
    for total, windows in zip(out, layout.windows):
        for (lo, hi, kx, ky) in windows:
            sign = signs[:, kx] * signs[:, ky]
            for k in {kx, ky} - {n_lines}:
                start = layout.lines[k][1]
                # nothing lies past a start and up to it, unless a circle
                # reaches t_max from a flip at t_min
                if lo == start < region.t_max:
                    continue
                on = np.flatnonzero(line == k)
                after = times[on] > start
                before = (np.where(after, times[on] <= lo, wrapped[on] <= lo) if lo >= start
                          else after | (times[on] <= lo))
                sign *= 1 - 2 * (np.bincount(sample[on[before]], minlength=n) % 2)
            pair = (line == kx) | (line == ky)
            picked = np.flatnonzero(pair & (times > lo) & (times < hi))
            at, of = times[picked], sample[picked]
            if hi > region.t_max:
                picked = np.flatnonzero(pair & (wrapped > lo) & (wrapped < hi))
                at = np.concatenate([at, wrapped[picked]])
                of = np.concatenate([of, sample[picked]])
            order = np.lexsort((at, of))
            _piece_sums(of[order], at[order], sign, lo, hi, total)
    return out


def gibbs_log_weight(config: SpinConfiguration, lam: float,
                     edges: Sequence) -> float:
    """lam times the overlap integrals (frozen sites read as +1), added edge
    by edge in order: the overlap kernel on a pool of one."""
    region = config.region
    sums = _overlap_sums(_layout(region, Holes.empty(), edges), *_whole_lines(region, [config]))
    return lam * float(_summed(sums)[0])


def _overlap_sums_and_values(region, delta, n_samples, rng, value_fn):
    """Overlap sums and values of ``n_samples`` a-priori draws.

    The a-priori measure does not depend on the coupling, so one pool serves
    every coupling: lam times a draw's overlap sum is its log importance
    weight, equal bit for bit to :func:`gibbs_log_weight`.  Each draw is one
    :func:`sample_apriori` call and its value one ``value_fn`` call, in
    stream order; the sums are computed ``POOL_BLOCK`` draws at a time."""
    layout = _layout(region, Holes.empty(), region.edge_set().edges)
    sums = np.empty(n_samples)
    vals = np.empty(n_samples)
    for start in range(0, n_samples, POOL_BLOCK):
        stop = min(start + POOL_BLOCK, n_samples)
        configs = [sample_apriori(region, delta, rng) for _ in range(start, stop)]
        vals[start:stop] = [value_fn(config) for config in configs]
        sums[start:stop] = _summed(_overlap_sums(layout, *_whole_lines(region, configs)))
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
    (windows where at least one endpoint lies in the holes): per edge, its
    whole-line integral less the one over its windows, from one pool of one
    through the overlap kernel."""
    region = config.region
    lines = _whole_lines(region, [config])
    full = _overlap_sums(_layout(region, Holes.empty(), edges), *lines)
    outside = _overlap_sums(_layout(region, holes, edges, whole_lines=True), *lines)
    return float(_summed(full - outside)[0])


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

def estimate_cut_partition(region: SpaceTimeRegion, holes: Holes, lam: float,
                           delta: float, n_samples: int,
                           rng: np.random.Generator) -> np.ndarray:
    """``n_samples`` draws whose mean estimates the Gibbs partition value of
    the region with holes removed: a-priori values of exp(lam * overlap over
    surviving edge windows), multiplied by the exact boundary conditioning
    factor.

    Each component of a site line is a line of its own, drawn in order as
    its flip offsets on (0, length), then a fair sign.  An uncut periodic
    circle is conditioned on an even flip count, which contributes the
    factor (1 + e^{-2 delta r})/2; cut components are free on both ends.
    The overlaps are weighed ``POOL_BLOCK`` draws at a time."""
    if region.bc_time == "w":
        raise ValueError("cut-partition estimates support free and periodic time")
    if region.bc_space == "w":
        raise ValueError("cut-partition estimates support free and periodic space")
    layout = _layout(region, holes, region.edge_set().edges)
    even = [region.bc_time == "p" and not holes.on_site(x) for (x, _, _) in layout.lines]
    log_factor = 0.0
    for (_, _, length), conditioned in zip(layout.lines, even):
        if conditioned:
            log_factor += math.log((1.0 + math.exp(-2.0 * delta * length)) / 2.0)
    vals = np.empty(n_samples)
    for start in range(0, n_samples, POOL_BLOCK):
        stop = min(start + POOL_BLOCK, n_samples)
        offsets, signs = [], []
        for _ in range(start, stop):
            for (_, _, length), conditioned in zip(layout.lines, even):
                offsets.append(_even_poisson_times(0.0, length, delta, rng) if conditioned
                               else draw_times(0.0, length, delta, rng))
                signs.append(1 if rng.random() < 0.5 else -1)
        totals = _summed(_overlap_sums(layout, *_cut_lines(layout, offsets, signs)))
        vals[start:stop] = [math.exp(lam * total + log_factor) for total in totals.tolist()]
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
