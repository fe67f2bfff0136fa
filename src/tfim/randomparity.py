"""Random-parity representation: bridges, ghosts, cuts, labellings, the
coupled measure, connectivity, and the switching and local-modification
verifiers.

A labelling assigns alternating even/odd tags to each site line; tags switch
exactly at the switching points (sources, bridge endpoints, ghost points) and
the odd set is closed.  A labelling is consistent when every site carries an
even number of switching points, and its weight is exp(2*delta*even-length);
the code works with weights normalized by the maximum exp(2*delta*volume),
i.e. exp(-2*delta*odd-length), which is scale-equivalent in every identity
and avoids overflow.

Boundary conventions: free time anchors the endpoints even, wired time odd,
periodic time anchors the label at time zero with a fair coin tau that is
resampled per draw and never exposed, and hole endpoints are even; one
function, :func:`_end_labels`, turns them into labels and parity tests.
Wired space draws ghost points on boundary sites at rate lam times the number
of exterior neighbours.  Coupled configurations pair a plain labelling (free
space) with a ghosted one (wired space, always with ghost points):
periodic/periodic when the region is a finite-beta circle, free/wired
otherwise, plus an independent rate-4*delta cut process.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (Box, EdgeSet, Holes, SpaceTimeRegion, edge_shadow_length,
                       edge_windows, l1_norm, line_components)
from .poisson import draw_times
from .stats import (Check, Estimate, RatioAccumulator, SamplingError, difference_estimate,
                    mean_estimate)
from . import spinrep


class InconsistentSourceError(ValueError):
    """Raised for source points at the time endpoints."""


def _check_sources(region: SpaceTimeRegion, sources: Sequence) -> tuple:
    """The sources as (site, time) pairs, checked against the region."""
    pts = tuple((tuple(x), float(t)) for (x, t) in sources)
    for (x, t) in pts:
        if not region.contains_point((x, t)):
            raise InconsistentSourceError(f"source {(x, t)} outside region")
        if region.at_time_end(t):
            raise InconsistentSourceError("sources must avoid the time endpoints")
    if len(set(pts)) != len(pts):
        raise InconsistentSourceError("duplicate source points")
    return pts


# -- labellings ---------------------------------------------------------------

def _end_labels(bc_time: str, count, tau=None, hole_start: bool = False,
                hole_end: bool = False) -> tuple:
    """The labelling rule of one segment of a site line: (its start label is
    even, ``count`` switches on it are consistent).  A hole end (flagged by
    ``hole_start`` and ``hole_end``) is even; otherwise a free time end is
    even and a wired one odd, and on a circle an end is the point at time 0,
    even iff ``tau`` == 0.  The switch count is odd exactly when the two end
    labels differ.  ``count`` and ``tau`` may be arrays."""
    time_end = tau == 0 if bc_time == "p" else bc_time == "f"
    start = hole_start or time_end
    return start, (count % 2 == 1) == (start != (hole_end or time_end))


def _odd_spans(bounds: Sequence, first_even: bool) -> list:
    """The odd spans among consecutive ``bounds``: labels alternate from span
    to span, and the first span is even iff ``first_even``."""
    return [(a, b) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if (i % 2 == 0) != first_even]


def _line_odd_spans(region: SpaceTimeRegion, times: list, first_even: bool,
                    circle: bool) -> list:
    """Odd spans of a site line with sorted switch ``times``, labelled even iff
    ``first_even`` at t_min (on a circle, at time 0), in walking order: from
    t_min to t_max, except that a circle line with switches is walked from
    switch to switch and its last arc, wrapping past t_max, is one span."""
    if circle and times:
        below = bisect.bisect_right(times, 0.0)
        return _odd_spans([*times, times[0] + region.r], first_even == ((1 - below) % 2 == 0))
    return _odd_spans([region.t_min, *times, region.t_max], first_even)


@dataclass
class Labelling:
    """Even/odd decomposition of the site lines of a region.

    ``switches`` maps each site to its sorted switching times.  ``first_even``
    says whether the interval beginning at the reference point (time t_min on
    intervals, the anchor time 0 on circles) is even.  Inconsistent labellings
    keep ``consistent`` False and weight zero.
    """

    region: SpaceTimeRegion
    switches: dict
    first_even: dict
    consistent: bool
    bc_time: str

    def span_even(self, x, k: int) -> bool:
        """Label of the open span of x after its k-th switch in time order
        (k = 0: the span from t_min).  Periodic labels count the switches
        between the span and the anchor at time 0."""
        x = tuple(x)
        if self.bc_time == "p":
            k -= bisect.bisect_right(self.switches[x], 0.0)
        return self.first_even[x] == (k % 2 == 0)

    def label_is_even(self, x, t: float) -> bool:
        """Label at (x, t); switching points themselves are odd (closed odd)."""
        times = self.switches[tuple(x)]
        idx = bisect.bisect_left(times, t)
        if idx < len(times) and times[idx] == t:
            return False
        return self.span_even(x, idx)

    def odd_length(self) -> float:
        total = 0.0
        for x, times in self.switches.items():
            for (a, b) in _line_odd_spans(self.region, times, self.first_even[x],
                                          self.bc_time == "p"):
                total += b - a
        return total

    def weight_normalized(self, delta: float) -> float:
        if not self.consistent:
            return 0.0
        return math.exp(-2.0 * delta * self.odd_length())


def build_labelling(region: SpaceTimeRegion, bridges: dict, ghosts: dict | None,
                    sources: Sequence, bc_time: str,
                    tau: dict | None = None) -> Labelling:
    """Assemble the labelling from its switching points.

    ``bridges`` maps edges to time lists, ``ghosts`` sites to time lists
    (None for the plain labelling).  ``tau`` supplies the periodic anchors
    (required exactly when bc_time == 'p')."""
    pts = _check_sources(region, sources)
    if (bc_time == "p") != (tau is not None):
        raise ValueError("tau is supplied exactly for periodic time")
    per_site = {x: [] for x in region.box.sites()}
    for (x, y), times in bridges.items():
        for end in (tuple(x), tuple(y)):
            if end in per_site:
                per_site[end].extend(times)
    if ghosts:
        for x, times in ghosts.items():
            per_site[tuple(x)].extend(times)
    for (x, t) in pts:
        per_site[x].append(t)

    first_even, consistent = {}, True
    for x, times in per_site.items():
        times.sort()
        first_even[x], ok = _end_labels(bc_time, len(times), None if tau is None else tau[x])
        consistent = consistent and ok
    return Labelling(region, per_site, first_even, consistent, bc_time)


# -- process sampling ---------------------------------------------------------

def ghost_rates(box: Box, lam: float) -> dict:
    return {x: lam * count for x, count in box.exterior_counts}


def draw_switches(region: SpaceTimeRegion, lam: float, rates: dict,
                  rng: np.random.Generator) -> tuple[dict, dict]:
    """The bridges and ghost points of one labelling draw, in that order:
    rate-``lam`` bridge times on each free edge of the box, then ghost times
    on each site of ``rates`` (site -> rate; empty for no ghost points)."""
    lo, hi = region.t_min, region.t_max
    bridges = {e: draw_times(lo, hi, lam, rng) for e in region.box.free_edges}
    ghosts = {x: draw_times(lo, hi, rate, rng) for x, rate in rates.items()}
    return bridges, ghosts


@dataclass
class CoupledConfiguration:
    """Two independent labellings plus the cut process.

    The plain labelling comes from (bridges, tau) with free-space edges; the
    ghosted one from (bridges_hat, ghosts, tau_hat).  Bridges and ghosts map
    to time lists, and ``cuts`` maps sites to sorted rate-4*delta time lists.
    Weight is the product of the two normalized labelling weights."""

    region: SpaceTimeRegion
    lam: float
    delta: float
    labelling1: Labelling
    labelling2: Labelling
    bridges1: dict
    bridges2: dict
    ghosts: dict
    cuts: dict

    @property
    def weight(self) -> float:
        return (self.labelling1.weight_normalized(self.delta)
                * self.labelling2.weight_normalized(self.delta))

    @functools.cached_property
    def blocking_cuts(self) -> dict:
        """Site -> sorted cut times labelled even in both labellings, as
        :meth:`Labelling.label_is_even` reads them; all other cuts are
        invisible to open paths.  One walk per site merges the cuts against
        both labellings' switches, flipping a label at each switch, so each
        site's cuts must be sorted, as :func:`sample_coupled` draws them; a
        configuration built by hand with unsorted cuts gets wrong results."""
        out = {}
        for x in self.region.box.sites():
            (s1, even1), (s2, even2) = ((lab.switches[x] + [math.inf], lab.span_even(x, 0))
                                        for lab in (self.labelling1, self.labelling2))
            i = j = 0
            out[x] = kept = []
            for t in self.cuts.get(x, ()):
                while s1[i] < t:
                    i, even1 = i + 1, not even1
                while s2[j] < t:
                    j, even2 = j + 1, not even2
                if even1 and even2 and s1[i] != t != s2[j]:
                    kept.append(t)
        return out

    @functools.cached_property
    def index(self) -> "VertexIndex":
        """The whole-region vertices and the vertex of every bridge end, built
        once and shared by :attr:`clusters` and the trifurcation probes."""
        return VertexIndex.build(self)

    @functools.cached_property
    def clusters(self) -> "_UnionFind":
        """Ghost-free open-path clusters: a union-find over the vertices of
        :attr:`index`, joined at the circle seams and by both bridge sets."""
        index = self.index
        uf = _UnionFind(index.n_vertices)
        for i, j in index.seams.values():
            uf.union(i, j)
        for (_, _, _, ids_x, ids_y) in index.edges:
            for i, j in zip(ids_x, ids_y):
                uf.union(i, j)
        return uf

    def root(self, p: tuple) -> int | None:
        """Root in :attr:`clusters` of the class of the point p = (x, t), or
        None off [t_min, t_max]."""
        v = self.index.vertex(tuple(p[0]), p[1])
        return None if v is None else self.clusters.find(v)

    @functools.cached_property
    def ghost_roots(self) -> set:
        """Roots of the classes of :attr:`clusters` that reach the ghost: those
        holding a ghost point or, when the ghosted labelling has wired time, a
        time endpoint."""
        index, find = self.index, self.clusters.find
        ids = [index.vertex(x, t) for x, times in self.ghosts.items() for t in times]
        if coupled_bc_pair(self.region)[1] == "w":  # a line's end vertices hold t_min, t_max
            ids += [v for x, o in index.offsets.items() for v in (o, o + len(index.starts[x]) - 1)]
        return {None if v is None else find(v) for v in ids}


def coupled_bc_pair(region: SpaceTimeRegion) -> tuple[str, str]:
    """Time boundary pairings of the coupled measure: periodic/periodic on
    circles (finite beta), free/wired on intervals (ground-state style)."""
    if region.bc_time == "p":
        return "p", "p"
    return "f", "w"


def _distinct(lists: list) -> bool:
    """True when no time repeats across and within the time ``lists`` of a
    draw (finite times, so a set sees every tie; -0.0 equals 0.0)."""
    times = [t for times in lists for t in times]
    return len(set(times)) == len(times)


def sample_coupled(region: SpaceTimeRegion, lam: float, delta: float,
                   sources1: Sequence = (), sources2: Sequence = (),
                   rng: np.random.Generator = None) -> CoupledConfiguration:
    """One weighted draw of the coupled measure (weight may be zero).  Raises
    SamplingError when 100 draws in a row repeat a bridge or ghost time."""
    t1, t2 = coupled_bc_pair(region)
    box = region.box
    lo, hi = region.t_min, region.t_max
    rates = ghost_rates(box, lam)
    for _ in range(100):
        bridges1, _ = draw_switches(region, lam, {}, rng)
        bridges2, ghosts = draw_switches(region, lam, rates, rng)
        cuts = {x: draw_times(lo, hi, 4.0 * delta, rng) for x in box.sites()}
        if _distinct([*bridges1.values(), *bridges2.values(), *ghosts.values()]):
            break
    else:
        raise SamplingError(
            "coupled draw: 100 draws in a row had coincident bridge or ghost times")
    tau1 = {x: int(rng.integers(2)) for x in box.sites()} if t1 == "p" else None
    tau2 = {x: int(rng.integers(2)) for x in box.sites()} if t2 == "p" else None
    lab1 = build_labelling(region, bridges1, None, sources1, t1, tau1)
    lab2 = build_labelling(region, bridges2, ghosts, sources2, t2, tau2)
    return CoupledConfiguration(region, lam, delta, lab1, lab2,
                                bridges1, bridges2, ghosts, cuts)


# -- connectivity -------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Join the classes of i and j; True when they were apart.  (The
        finds are inlined: the trifurcation probes make most of the calls.)"""
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        parent[i] = j
        return i != j


@dataclass
class VertexIndex:
    """The interval graph of a configuration: its vertices and the vertex
    ids of its bridge ends, read by :attr:`CoupledConfiguration.clusters` and
    by the trifurcation probes, which build small union-finds of their own.

    ``starts``, ``ends`` and ``offsets`` lay out the site lines split at the
    blocking cuts: vertex ``offsets[x] + i`` spans ``[starts[x][i],
    ends[x][i]]``.  Span ends are the cut times as drawn, so lookups need no
    tolerance.  ``seams`` maps each site of a circle to its first and last
    vertex, which meet at the point t_min = t_max.  ``edges`` holds one
    ``(x, y, times, ids_x, ids_y)`` record per edge with bridges: the times of
    both bridge sets in order, and the vertex of each bridge end at x and at
    y.  Ghost jumps are not edges of the graph:
    :attr:`CoupledConfiguration.ghost_roots` names the classes that reach the
    ghost.
    """

    region: SpaceTimeRegion
    starts: dict
    ends: dict
    offsets: dict
    n_vertices: int
    seams: dict
    edges: list

    @staticmethod
    def build(coupled: CoupledConfiguration) -> "VertexIndex":
        region = coupled.region
        t_min, t_max = region.t_min, region.t_max
        starts, ends, offsets, total = {}, {}, {}, 0
        for x, cuts in coupled.blocking_cuts.items():
            inner = cuts[bisect.bisect_right(cuts, t_min):bisect.bisect_left(cuts, t_max)]
            starts[x], ends[x], offsets[x] = [t_min, *inner], [*inner, t_max], total
            total += len(inner) + 1
        seams = ({x: (offsets[x], offsets[x] + len(starts[x]) - 1) for x in starts}
                 if region.time_topology == "circle" else {})
        times = {}
        for bridges in (coupled.bridges1, coupled.bridges2):
            for (x, y), ts in bridges.items():
                times.setdefault((tuple(x), tuple(y)), []).extend(ts)
        edges = []
        find = bisect.bisect_right
        for (x, y), ts in times.items():
            ts.sort()
            sx, sy, ox, oy = starts[x], starts[y], offsets[x] - 1, offsets[y] - 1
            edges.append((x, y, ts, [ox + find(sx, t) for t in ts],
                          [oy + find(sy, t) for t in ts]))
        return VertexIndex(region, starts, ends, offsets, total, seams, edges)

    def vertex(self, x, t: float) -> int | None:
        """The vertex of site x holding time t (at a cut, the later one), or
        None off [t_min, t_max]."""
        if not self.region.t_min <= t <= self.region.t_max:
            return None
        return self.offsets[x] + bisect.bisect_right(self.starts[x], t) - 1

    def clip(self, sites, spans: list) -> tuple[dict, list, int]:
        """The pieces of the vertices of each site that the closed ``spans``
        (sorted, disjoint) meet, as a partition of those spans would cut them.

        Returns (pieces, seams, next free id).  ``pieces`` maps each site to
        one (a, b, first, lo, hi) per span with b > a: vertices lo..hi meet
        [a, b], and ``first`` is the id of the piece of vertex lo.  A piece
        keeps its vertex's id (see :func:`_piece`), except that a vertex met
        by two spans takes a new id, from ``n_vertices`` up, in the second.
        ``seams`` pairs the first and last piece of each site whose spans run
        from t_min to t_max on a circle."""
        region = self.region
        pieces, seams, fresh = {}, [], self.n_vertices
        for x in sites:
            starts, offset, site = self.starts[x], self.offsets[x] - 1, []
            for (a, b) in spans:
                if b <= a:
                    continue
                lo = first = offset + bisect.bisect_right(starts, a)
                if site and site[-1][4] == lo:
                    first, fresh = fresh, fresh + 1
                site.append((a, b, first, lo, offset + bisect.bisect_left(starts, b)))
            pieces[x] = site
            if (region.time_topology == "circle" and site and site[0][0] == region.t_min
                    and site[-1][1] == region.t_max):
                seams.append((site[0][2], _piece(site[-1], site[-1][4])))
        return pieces, seams, fresh

    def piece_at(self, x, spans: list, t: float) -> int | None:
        """The piece of site x holding time t among its clipped ``spans``, as
        :meth:`vertex` finds it: at a shared end the later piece, on circles
        t_min and t_max as one point, None off the spans."""
        v = self.vertex(x, t)
        for span in reversed(spans):
            if span[0] <= t <= span[1]:
                return _piece(span, min(max(v, span[3]), span[4]))
        region = self.region
        if region.time_topology == "circle" and spans:
            if t == region.t_min and spans[-1][1] == region.t_max:
                return _piece(spans[-1], spans[-1][4])
            if t == region.t_max and spans[0][0] == region.t_min:
                return spans[0][2]
        return None

    @functools.cached_property
    def boundary_sites(self) -> frozenset:
        return frozenset(self.region.box.boundary_sites())

    def boundary_vertices(self, x, lo: int, hi: int, a: float, b: float) -> list:
        """The vertices lo..hi of site x that meet the region boundary once
        clipped to [a, b]: all of them on a spatial-boundary site; on
        intervals, those reaching a time end to within 1e-12."""
        if x in self.boundary_sites:
            return list(range(lo, hi + 1))
        region = self.region
        if region.time_topology == "circle":
            return []
        offset = self.offsets[x]
        t_lo, t_hi = region.t_min + 1e-12, region.t_max - 1e-12
        early = (offset + bisect.bisect_right(self.starts[x], t_lo, lo - offset, hi - offset + 1)
                 if a <= t_lo else lo)
        late = (offset + bisect.bisect_left(self.ends[x], t_hi, lo - offset, hi - offset + 1)
                if b >= t_hi else hi + 1)
        return [*range(lo, early), *range(max(early, late), hi + 1)]

    @functools.cached_property
    def boundary(self) -> dict:
        """Site -> the ids of its vertices that meet the region boundary."""
        region = self.region
        return {x: self.boundary_vertices(x, offset, offset + len(self.starts[x]) - 1,
                                          region.t_min, region.t_max)
                for x, offset in self.offsets.items()}


def _piece(span: tuple, vertex: int) -> int:
    """Id of the piece of ``vertex`` in a clipped span (a, b, first, lo, hi)
    (see :meth:`VertexIndex.clip`)."""
    return span[2] if vertex == span[3] else vertex


def connectivity(coupled: CoupledConfiguration, p: tuple, q: tuple,
                 mode: str = "plain") -> bool:
    """Open-path connectivity between space-time points, read off the
    configuration's :attr:`~CoupledConfiguration.clusters`.

    ``plain`` allows ghost jumps (wired-time intervals also wire the time
    endpoints), ``off-gamma`` forbids all ghost jumps, ``to-gamma`` asks
    whether p reaches the ghost class (q ignored)."""
    if mode not in ("plain", "off-gamma", "to-gamma"):
        raise ValueError(f"unknown connectivity mode {mode!r}")
    root = coupled.root(p)
    if mode == "to-gamma":
        return root in coupled.ghost_roots
    other = coupled.root(q)
    if root is None or other is None:
        return False
    return root == other or (mode == "plain" and {root, other} <= coupled.ghost_roots)


def block_of(region: SpaceTimeRegion, center: tuple, n0: int, r0: float) -> tuple:
    """(sites, window) of the block around center = (x, t0): the sites within
    sup-distance n0 of x, and the closed time window of length r0 around t0
    as sorted spans of [t_min, t_max].  Intervals clip the window.  Circles
    wrap it modulo r (an end less than 1e-9 max(r, 1) past the seam is
    clipped instead) and take the whole circle when r0 >= r.  Both are
    tuples, computed once per region and (x, t0, n0, r0) and kept in
    :attr:`~tfim.geometry.SpaceTimeRegion.blocks`."""
    key = (tuple(center[0]), center[1], n0, r0)
    if key in region.blocks:
        return region.blocks[key]
    coords, t0 = region.box.coord_range, center[1]
    sites = tuple(itertools.product(*(range(max(math.ceil(c0 - n0), coords[0]),
                                            min(math.floor(c0 + n0), coords[-1]) + 1)
                                      for c0 in key[0])))
    lo, hi = t0 - r0 / 2.0, t0 + r0 / 2.0
    t_min, t_max, r = region.t_min, region.t_max, region.r
    window = None
    if region.time_topology == "circle":
        eps = 1e-9 * max(r, 1.0)
        lo, hi = (t + r if t < t_min - eps else t - r if t > t_max + eps else t for t in (lo, hi))
        if r0 >= r - eps:
            window = ((t_min, t_max),)
        elif hi < lo:
            window = ((t_min, hi), (lo, t_max))
    region.blocks[key] = sites, window or ((max(lo, t_min), min(hi, t_max)),)
    return region.blocks[key]


def block_fully_connected(coupled: CoupledConfiguration, center: tuple, n0: int,
                          r0: float) -> bool:
    """Whether every pair of points of the block around center = (x, t0)
    (see :func:`block_of`) is joined by an open path inside the block.  Only
    bridges between two block sites can join block vertices.

    The block's vertices are the pieces of those of
    :attr:`CoupledConfiguration.index` in the window
    (:meth:`VertexIndex.clip`), and a bisect of each block edge's times finds
    its bridges there."""
    index = coupled.index
    sites, window = block_of(coupled.region, center, n0, r0)
    pieces, seams, n = index.clip(sites, window)
    uf = _UnionFind(n)
    classes = sum(hi - lo + 1 for spans in pieces.values() for (*_, lo, hi) in spans)
    classes -= sum(uf.union(i, j) for i, j in seams)
    for (x, y, times, ids_x, ids_y) in index.edges:
        if x in pieces and y in pieces:
            for span_x, span_y in zip(pieces[x], pieces[y]):
                for k in range(bisect.bisect_left(times, span_x[0]),
                               bisect.bisect_right(times, span_x[1])):
                    classes -= uf.union(_piece(span_x, ids_x[k]), _piece(span_y, ids_y[k]))
    return classes == 1


# -- estimators and verifiers -------------------------------------------------

def coupled_event_probability(region: SpaceTimeRegion, lam: float, delta: float,
                              event, n_samples: int,
                              rng: np.random.Generator) -> Estimate:
    """Weighted frequency of ``event`` (a predicate on coupled configurations)
    over source-free coupled draws.  Numerator and denominator come from the
    same draws, but the standard error drops the covariance term (see
    :mod:`tfim.stats`); ``SamplingError`` when every coupled weight is zero."""
    num = np.empty(n_samples)
    den = np.empty(n_samples)
    for i in range(n_samples):
        c = sample_coupled(region, lam, delta, (), (), rng)
        w = den[i] = c.weight
        num[i] = w if (w > 0 and event(c)) else 0.0
    return RatioAccumulator.of(num, den, covariance=False).estimate(
        f"source-free coupled pool at lam={lam}")


def origin_ghost_probability(region: SpaceTimeRegion, lam: float, delta: float,
                             n_samples: int, rng: np.random.Generator) -> Estimate:
    """Weighted frequency of {origin <-> Gamma} over source-free coupled draws."""
    origin = ((0,) * region.box.d, 0.0)
    return coupled_event_probability(region, lam, delta,
                                     lambda c: connectivity(c, origin, None, "to-gamma"),
                                     n_samples, rng)


def _odd_lengths(region: SpaceTimeRegion, times: np.ndarray, rows: np.ndarray,
                 tau: np.ndarray | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``n`` labellings are consistent, and the odd length of each
    consistent one, equal bit for bit to :meth:`Labelling.odd_length`.
    ``times`` are the switching points, ``rows`` the row (sample * sites +
    site) of each, and ``tau`` the periodic anchors by row (None off
    periodic time)."""
    n_sites = region.box.site_count
    counts = np.bincount(rows, minlength=n * n_sites)
    first_even, ok = _end_labels(region.bc_time, counts, tau)
    consistent = ok.reshape(n, n_sites).all(axis=1)
    # the switching points of the consistent labellings, their rows
    # renumbered among them, sorted by row and then by time
    sample, site = np.divmod(rows, n_sites)
    keep = consistent[sample]
    times = times[keep]
    rows = (np.cumsum(consistent) - 1)[sample[keep]] * n_sites + site[keep]
    order = np.lexsort((times, rows))
    times, rows = times[order], rows[order]
    kept = np.repeat(consistent, n_sites)
    counts = counts[kept]
    # the bounds of each row's spans, as _line_odd_spans walks them: a
    # periodic line with switches from its first switch round to it again,
    # every other line from t_min to t_max; rows are padded with their last
    # bound, and a padded span has length 0.0
    wraps = (counts > 0) & (tau is not None)
    starts = np.cumsum(counts) - counts
    last = np.full(counts.size, region.t_max)
    last[wraps] = times[starts[wraps]] + region.r
    bounds = np.repeat(last[:, None], counts.max(initial=0) + 2, axis=1)
    bounds[~wraps, 0] = region.t_min
    rank = np.arange(times.size) - starts[rows]
    bounds[rows, rank + (~wraps)[rows]] = times
    # whether each row's first span is even (Labelling.span_even): a wrapped
    # row's walk starts after its first switch, and counts from time 0
    if tau is None:
        first_even = np.full(counts.size, first_even)
    else:
        below = np.bincount(rows[times <= 0.0], minlength=counts.size)
        first_even = first_even[kept] == ((wraps - below) % 2 == 0)
    terms = np.diff(bounds, axis=1)
    terms[(np.arange(terms.shape[1]) % 2 == 0) == first_even[:, None]] = 0.0  # even spans
    # the odd arcs of a labelling site by site, arc by arc, summed from 0.0
    terms = terms.reshape(-1, n_sites * terms.shape[1])
    total = np.zeros(len(terms))
    for column in terms.T:
        total += column
    return consistent, total


def _even_throughout(region: SpaceTimeRegion, holes: Holes, times: np.ndarray,
                     rows: np.ndarray, tau: np.ndarray | None, n: int) -> np.ndarray:
    """Which of ``n`` labellings, laid out as :func:`_odd_lengths` takes them,
    are even throughout the holes: for each hole [a, b] of a site, no switch
    of the site lies in [a, b], and the switches from the line's start (on a
    circle, from time 0) to the midpoint (a itself when a == b) are
    consistent with an even label there."""
    n_sites = region.box.site_count
    sample, site = np.divmod(rows, n_sites)
    even = np.ones(n, dtype=bool)
    for x, (a, b) in holes.intervals:
        k = region.box.sites().index(x)
        on_site = site == k
        mid = a if a == b else (a + b) / 2.0
        inside = np.bincount(sample[on_site & (times >= a) & (times <= b)], minlength=n)
        before = np.bincount(sample[on_site & (times < mid)], minlength=n)
        if tau is not None:  # a circle's labels count from time 0
            before -= np.bincount(sample[on_site & (times <= 0.0)], minlength=n)
        _, mid_even = _end_labels(region.bc_time, before,
                                  None if tau is None else tau[k::n_sites], hole_end=True)
        even &= (inside == 0) & mid_even
    return even


def _labelling_weights(region: SpaceTimeRegion, lam: float, delta: float,
                       sources: Sequence, n_samples: int, rng: np.random.Generator,
                       holes: Holes | None = None):
    """The normalized weights of ``n_samples`` labellings, each drawn as
    bridges on the free edges, then ghost points (wired space only), then the
    periodic anchors tau, equal bit for bit to
    :meth:`Labelling.weight_normalized`.  The switching points are kept in
    one flat array and weighed ``spinrep.POOL_BLOCK`` draws at a time.  With
    ``holes``, returns (num, den): den the weights, num the same weights
    where the labelling is even throughout the holes and 0 elsewhere."""
    sources = _check_sources(region, sources)
    sites = region.box.sites()
    site_index = {x: k for k, x in enumerate(sites)}
    periodic = region.bc_time == "p"
    rates = ghost_rates(region.box, lam) if region.bc_space == "w" else {}
    # a draw lists one time list per site that it switches: each bridge list
    # once per end, each ghost list, then one list per source
    end_sites = np.array([*(site_index[x] for e in region.box.free_edges for x in e),
                          *(site_index[x] for x in rates),
                          *(site_index[x] for (x, _) in sources)], dtype=np.intp)
    source_lists = [[t] for (_, t) in sources]
    out = np.zeros(n_samples)
    even = None if holes is None else np.ones(n_samples, dtype=bool)
    for start in range(0, n_samples, spinrep.POOL_BLOCK):
        n = min(spinrep.POOL_BLOCK, n_samples - start)
        lists, tau = [], []
        for _ in range(n):
            bridges, ghosts = draw_switches(region, lam, rates, rng)
            for times in bridges.values():
                lists += (times, times)
            lists += ghosts.values()
            lists += source_lists
            if periodic:
                tau += [int(rng.integers(2)) for _ in sites]
        counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        rows = np.repeat((np.arange(n)[:, None] * len(sites) + end_sites).ravel(), counts)
        times = np.array([t for ts in lists for t in ts], dtype=float)
        tau = np.array(tau) if periodic else None
        consistent, odd = _odd_lengths(region, times, rows, tau, n)
        out[start:start + n][consistent] = [math.exp(-2.0 * delta * length)
                                            for length in odd.tolist()]
        if holes is not None:
            even[start:start + n] = _even_throughout(region, holes, times, rows, tau, n)
    return out if holes is None else (np.where(even, out, 0.0), out)


def estimate_rpr_correlation(sources: Sequence, region: SpaceTimeRegion,
                             lam: float, delta: float, n_samples: int,
                             rng: np.random.Generator) -> Estimate:
    """Correlation as a ratio of mean labelling weights (sources over empty),
    using the region's spatial condition (wired space adds ghost points).
    Numerator and denominator use independent pools; ``SamplingError`` when
    every denominator weight is zero."""
    num = _labelling_weights(region, lam, delta, sources, n_samples, rng)
    den = _labelling_weights(region, lam, delta, (), n_samples, rng)
    return RatioAccumulator.of(num, den, covariance=False).estimate(
        f"denominator (source-free) labelling pool at lam={lam}")


def verify_switching(region: SpaceTimeRegion, lam: float, delta: float,
                     kappa: tuple, n_samples: int,
                     rng: np.random.Generator) -> Check:
    """Monte Carlo check of the switching identity at sources {origin, kappa}.

    Left side needs no cuts; the right side carries the off-ghost
    connectivity indicator evaluated on the coupled draw."""
    origin = ((0,) * region.box.d, 0.0)
    kappa = (tuple(kappa[0]), float(kappa[1]))
    sources = (origin, kappa)
    lhs = np.empty(n_samples)
    rhs = np.empty(n_samples)
    for i in range(n_samples):
        c_l = sample_coupled(region, lam, delta, sources, (), rng)
        lhs[i] = c_l.weight
        c_r = sample_coupled(region, lam, delta, (), sources, rng)
        w = c_r.weight
        if w > 0 and connectivity(c_r, origin, kappa, "off-gamma"):
            rhs[i] = w
        else:
            rhs[i] = 0.0
    el, er = mean_estimate(lhs), mean_estimate(rhs)
    return Check("identity", el.value, er.value, el.stderr, er.stderr)


def _wired_and_free(region: SpaceTimeRegion, lam: float, delta: float, sources: tuple,
                    n_samples: int, rng: np.random.Generator) -> tuple[Estimate, Estimate]:
    """The correlation of ``sources`` with wired, then with free space (ghosted
    and plain labelling ratios), on the region's box and time condition."""
    return tuple(estimate_rpr_correlation(
        sources, SpaceTimeRegion(region.box, region.r, bc_space, region.bc_time,
                                 region.beta_infinite), lam, delta, n_samples, rng)
        for bc_space in ("w", "f"))


def correlation_difference_bound(region: SpaceTimeRegion, lam: float, delta: float,
                                 kappa: tuple, n_samples: int,
                                 rng: np.random.Generator) -> tuple[Check, Check]:
    """The two-sided bound chain for the wired/free correlation difference:
    free <= wired, and wired - free <= the ghost-connection bound
    E(w1 w2(0k) 1{0<->Gamma}) / E(w1 w2); returns the lower and the upper
    check."""
    origin = ((0,) * region.box.d, 0.0)
    sources = (origin, (tuple(kappa[0]), float(kappa[1])))
    corr_w, corr_f = _wired_and_free(region, lam, delta, sources, n_samples, rng)
    num = np.empty(n_samples)
    den = np.empty(n_samples)
    for i in range(n_samples):
        c = sample_coupled(region, lam, delta, (), sources, rng)
        w = c.weight
        den_c = sample_coupled(region, lam, delta, (), (), rng)
        den[i] = den_c.weight
        num[i] = w if (w > 0 and connectivity(c, origin, None, "to-gamma")) else 0.0
    bound = RatioAccumulator.of(num, den, covariance=False).estimate(
        f"source-free coupled pool of the ghost-connection bound at lam={lam}")
    diff = difference_estimate(corr_w, corr_f)
    return (Check("bound", corr_f.value, corr_w.value, corr_f.stderr, corr_w.stderr),
            Check("bound", diff.value, bound.value, diff.stderr, bound.stderr))


# -- local modification constants and verifiers -------------------------------

def constant_A(kappa: tuple, lam: float, delta: float, beta: float | None) -> float:
    """Source-removal constant: exp(6 delta (|t|+2+|x|)) (2/lam + lam)^{|t|+2+|x|}
    in the ground-state regime, exp(6 delta beta |x|) (2/(lam beta) +
    lam beta)^{|x|} at finite beta."""
    if lam <= 0:
        raise ValueError("constant_A needs lam > 0")
    x, t = kappa
    nx = l1_norm(tuple(x))
    if beta is None:
        m = abs(t) + 2.0 + nx
        return math.exp(6.0 * delta * m) * (2.0 / lam + lam) ** m
    if lam * beta <= 0:
        raise ValueError("constant_A needs lam * beta > 0")
    return math.exp(6.0 * delta * beta * nx) * (2.0 / (lam * beta) + lam * beta) ** nx


def constant_B(n0: int, r0: float, lam: float, delta: float, d: int) -> float:
    """Block-wiring constant exp(4 delta r0 (2 n0+1)^d)^2 (1 + 2/(lam r0)^2)^
    {2 d (2 n0 + 1)^d}."""
    if lam * r0 <= 0:
        raise ValueError("constant_B needs lam * r0 > 0")
    cells = (2 * n0 + 1) ** d
    return math.exp(4.0 * delta * r0 * cells) ** 2 * (1.0 + 2.0 / (lam * r0) ** 2) ** (2 * d * cells)


def verify_local_modification_A(region: SpaceTimeRegion, lam: float, delta: float,
                                kappa: tuple, n_samples: int,
                                rng: np.random.Generator) -> Check:
    """Checks wired-minus-free correlation <= C_kappa * Pbar(origin <-> Gamma)."""
    beta = region.r if region.bc_time == "p" else None
    c_k = constant_A(kappa, lam, delta, beta)
    origin = ((0,) * region.box.d, 0.0)
    sources = (origin, (tuple(kappa[0]), float(kappa[1])))
    diff = difference_estimate(*_wired_and_free(region, lam, delta, sources, n_samples, rng))
    p_ghost = origin_ghost_probability(region, lam, delta, n_samples, rng)
    return Check("bound", diff.value, c_k * p_ghost.value, diff.stderr, c_k * p_ghost.stderr,
                 {"p_origin_ghost": p_ghost, "constant": c_k})


def verify_local_modification_B(region: SpaceTimeRegion, lam: float, delta: float,
                                n0: int, r0: float, events: dict,
                                n_samples: int, rng: np.random.Generator) -> dict:
    """Checks Pbar(A) <= c(n0, r0) Pbar(A and block fully connected) for each
    named event A (callables on coupled configurations, measurable outside
    the block); returns one check per event name."""
    c = constant_B(n0, r0, lam, delta, region.box.d)
    origin = ((0,) * region.box.d, 0.0)
    weights = np.empty(n_samples)
    hits = {name: np.zeros(n_samples) for name in events}
    joint = {name: np.zeros(n_samples) for name in events}
    for i in range(n_samples):
        config = sample_coupled(region, lam, delta, (), (), rng)
        w = config.weight
        weights[i] = w
        if w == 0:
            continue
        wired = None
        for name, event in events.items():
            if event(config):
                hits[name][i] = w
                if wired is None:
                    wired = block_fully_connected(config, origin, n0, r0)
                if wired:
                    joint[name][i] = w
    results = {}
    pool = f"source-free coupled pool of local modification B at lam={lam}"
    for name in events:
        pa = RatioAccumulator.of(hits[name], weights, covariance=False).estimate(pool)
        pac = RatioAccumulator.of(joint[name], weights, covariance=False).estimate(pool)
        results[name] = Check("bound", pa.value, c * pac.value, pa.stderr, c * pac.stderr,
                              {"constant": c})
    return results


# -- holes and event-probability identities -----------------------------------

def sample_cut_labelling_weight(region: SpaceTimeRegion, holes: Holes, lam: float,
                                delta: float, rng: np.random.Generator) -> float:
    """One normalized weight draw of the source-free labelling on the region
    with the holes removed (bridge intensity vanishes when either endpoint is
    missing; anchors at hole endpoints are even)."""
    box = region.box
    switch_per_site = {x: [] for x in box.sites()}
    for e in EdgeSet.free(box).edges:
        for (lo, hi) in edge_windows(region, holes, e[0], e[1]):
            for t in draw_times(lo, hi, lam, rng):
                base = t if t <= region.t_max else t - region.r
                switch_per_site[tuple(e[0])].append(base)
                switch_per_site[tuple(e[1])].append(base)
    odd_total = 0.0
    circle = region.time_topology == "circle"
    for x in box.sites():
        times = sorted(switch_per_site[x])
        if circle and not holes.on_site(x):
            # a whole circle's parity does not read tau, which is drawn after it
            if not _end_labels(region.bc_time, len(times), 0)[1]:
                return 0.0
            first_even, _ = _end_labels(region.bc_time, len(times), rng.integers(2))
            odd = _line_odd_spans(region, times, first_even, True)
        else:
            odd = []
            for comp in line_components(region, holes, x):
                lo_c, hi_c = (comp[0], comp[0] + comp[1]) if circle else comp
                inside = sorted([t for t in times if lo_c < t < hi_c]
                                + [t + region.r for t in times
                                   if circle and lo_c < t + region.r < hi_c])
                first_even, ok = _end_labels(region.bc_time, len(inside), None,
                                             circle or lo_c > region.t_min,
                                             circle or hi_c < region.t_max)
                if not ok:
                    return 0.0
                odd += _odd_spans([lo_c, *inside, hi_c], first_even)
        for (a, b) in odd:
            odd_total += b - a
    return math.exp(-2.0 * delta * odd_total)


def holes_identity_check(holes: Holes, region: SpaceTimeRegion, lam: float,
                         delta: float, n_samples: int,
                         rng: np.random.Generator) -> Check:
    """Both sides of the holes identity, in normalized-weight form:

        E_{cut}[W'] = 2^{m_p} e^{lam |Jt|} E[W 1{even in J}],

    where W, W' are the weights normalized by their regions' volumes, |Jt| is
    the shadowed edge measure, and m_p counts cut circles (periodic time
    only).  The printed form of the identity omits the e^{lam |Jt|} and
    2^{m_p} factors; the check's detail carries that form and its residual."""
    if region.bc_space != "f":
        raise ValueError("the holes identity concerns the plain labelling")
    edges = EdgeSet.free(region.box).edges
    shadow = edge_shadow_length(region, holes, edges)
    m_p = len(holes.cut_sites()) if region.bc_time == "p" else 0

    lhs = np.empty(n_samples)
    for i in range(n_samples):
        lhs[i] = sample_cut_labelling_weight(region, holes, lam, delta, rng)
    rhs, _ = _labelling_weights(region, lam, delta, (), n_samples, rng, holes)
    scale = (2.0**m_p) * math.exp(lam * shadow)
    el = mean_estimate(lhs)
    er = mean_estimate(rhs)
    # the identity as printed has no shadow or cut-circle factor
    return Check("identity", el.value, scale * er.value, el.stderr, scale * er.stderr,
                 {"shadow": shadow, "m_p": m_p, "printed_rhs": er.value,
                  "printed_residual": el.value - er.value})


def event_probability_identity(holes: Holes, region: SpaceTimeRegion, lam: float,
                               delta: float, n_samples: int,
                               rng: np.random.Generator) -> Check:
    """Cross-representation identity for P(labelling even throughout J).

    Left: the tilted-labelling probability, a ratio on one labelling pool.
    Right: 2^{-m_p} times the ratio of spin-side partition values of the cut
    and full regions."""
    if region.bc_space != "f":
        raise ValueError("the tilted measure concerns the plain labelling")
    num, den = _labelling_weights(region, lam, delta, (), n_samples, rng, holes)
    lhs = RatioAccumulator.of(num, den, covariance=True).estimate(
        f"source-free labelling pool of the event probability at lam={lam}")

    m_p = len(holes.cut_sites()) if region.bc_time == "p" else 0
    z_cut = spinrep.estimate_cut_partition(region, holes, lam, delta, n_samples, rng)
    z_full = spinrep.estimate_cut_partition(region, Holes.empty(), lam, delta,
                                            n_samples, rng)
    rhs = RatioAccumulator.of(z_cut, z_full, covariance=False).estimate(
        f"full-region spin pool of the event probability at lam={lam}")
    scale = 0.5**m_p
    return Check("identity", lhs.value, scale * rhs.value, lhs.stderr, scale * rhs.stderr,
                 {"m_p": m_p})
