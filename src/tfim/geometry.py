"""Lattice boxes, edge sets, space-time regions and dual (Fourier) lattices.

Two box conventions are supported: the symmetric box {-n, ..., n}^d used by
the samplers, and the even-side box {-n+1, ..., n}^d used by the Fourier
sweeps (an even side length is what makes the momentum grid land on
(-pi, pi]).  All geometry values are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

Site = Tuple[int, ...]
Edge = Tuple[Site, Site]

SYMMETRIC = "symmetric"
EVEN_SIDE = "even-side"


class GeometryError(ValueError):
    """Raised for invalid geometric parameters or out-of-domain points."""


@dataclass(frozen=True)
class Box:
    """A finite box in Z^d.

    ``symmetric`` convention: sites {-n, ..., n}^d (odd side 2n+1).
    ``even-side`` convention: sites {-n+1, ..., n}^d (even side 2n).
    """

    d: int
    n: int
    convention: str = SYMMETRIC

    def __post_init__(self):
        if self.d < 1:
            raise GeometryError(f"dimension must be positive, got {self.d}")
        if self.n < 0:
            raise GeometryError(f"half-side must be nonnegative, got {self.n}")
        if self.convention not in (SYMMETRIC, EVEN_SIDE):
            raise GeometryError(f"unknown box convention {self.convention!r}")
        if self.convention == EVEN_SIDE and self.n < 1:
            raise GeometryError("even-side boxes need n >= 1")

    @property
    def coord_range(self) -> range:
        if self.convention == SYMMETRIC:
            return range(-self.n, self.n + 1)
        return range(-self.n + 1, self.n + 1)

    @property
    def side(self) -> int:
        return 2 * self.n + 1 if self.convention == SYMMETRIC else 2 * self.n

    @functools.cached_property
    def _sites(self) -> tuple:
        return tuple(itertools.product(self.coord_range, repeat=self.d))

    def sites(self) -> list[Site]:
        """The sites in lexicographic order, as a fresh list per call."""
        return list(self._sites)

    @property
    def site_count(self) -> int:
        return self.side**self.d

    def __contains__(self, x: Sequence[int]) -> bool:
        r = self.coord_range
        return len(x) == self.d and all(c in r for c in x)

    def boundary_sites(self) -> list[Site]:
        """Sites of the box not contained in the next-smaller box (all of a
        minimal box): those with a neighbour outside, in site order."""
        return [x for x, _ in self.exterior_counts]

    def exterior_neighbour_count(self, x: Site) -> int:
        """Number of nearest neighbours of x lying outside the box."""
        if x not in self:
            raise GeometryError(f"site {x} not in box")
        lo, hi = self.coord_range[0], self.coord_range[-1]
        return sum((c == lo) + (c == hi) for c in x)

    @functools.cached_property
    def exterior_counts(self) -> tuple:
        """(site, exterior neighbour count) for every site with a neighbour
        outside the box, in site order; built once per box."""
        return tuple((x, c) for x in self._sites if (c := self.exterior_neighbour_count(x)))

    @functools.cached_property
    def free_edges(self) -> Tuple[Edge, ...]:
        """The sorted nearest-neighbour pairs inside the box; built once per box."""
        return tuple(_nn_pairs(self._sites))


def _nn_pairs(sites: Iterable[Site]) -> list[Edge]:
    site_set = set(sites)
    edges = []
    for x in site_set:
        for j in range(len(x)):
            y = tuple(c + (1 if i == j else 0) for i, c in enumerate(x))
            if y in site_set:
                edges.append((x, y))
    return sorted(edges)


@dataclass(frozen=True)
class EdgeSet:
    """Unordered nearest-neighbour pairs for one of the three spatial modes.

    ``free``: pairs inside the box.  ``wired-extended``: pairs inside the
    box enlarged by the frozen shell.  ``spatially-periodic``:
    free pairs plus wrap-around pairs whose differing coordinate takes the two
    extreme values.  Wrap pairs are kept with multiplicity, so a side-2
    periodic box carries a doubled edge.
    """

    edges: Tuple[Edge, ...]

    @staticmethod
    def free(box: Box) -> "EdgeSet":
        return EdgeSet(box.free_edges)

    @staticmethod
    def wired_extended(box: Box) -> "EdgeSet":
        extended = Box(box.d, box.n + 1, box.convention)
        return EdgeSet(tuple(_nn_pairs(extended.sites())))

    @staticmethod
    def spatially_periodic(box: Box) -> "EdgeSet":
        lo, hi = box.coord_range[0], box.coord_range[-1]
        edges = list(_nn_pairs(box.sites()))
        if hi > lo:
            for x in box.sites():
                for j in range(box.d):
                    if x[j] == hi:
                        y = tuple(lo if i == j else c for i, c in enumerate(x))
                        edges.append((y, x) if y <= x else (x, y))
        return EdgeSet(tuple(sorted(edges)))


def edges_for_bc(box: Box, bc_space: str) -> EdgeSet:
    if bc_space == "f":
        return EdgeSet.free(box)
    if bc_space == "w":
        return EdgeSet.wired_extended(box)
    if bc_space == "p":
        return EdgeSet.spatially_periodic(box)
    raise GeometryError(f"unknown spatial boundary condition {bc_space!r}")


@dataclass(frozen=True)
class SpaceTimeRegion:
    """A box crossed with a time interval [-r/2, r/2] or a circle of length r.

    The time direction is a circle exactly when bc_time == 'p'.  Ground-state
    regions (the beta = infinity family) couple the time length to the box via
    r = 2n; use :meth:`ground_state` to get that schedule enforced.
    """

    box: Box
    r: float
    bc_space: str
    bc_time: str
    beta_infinite: bool = False

    def __post_init__(self):
        if self.r <= 0:
            raise GeometryError(f"time length must be positive, got {self.r}")
        if self.bc_space not in ("f", "w", "p"):
            raise GeometryError(f"bad spatial boundary condition {self.bc_space!r}")
        if self.bc_time not in ("f", "w", "p"):
            raise GeometryError(f"bad temporal boundary condition {self.bc_time!r}")
        if self.beta_infinite:
            if self.bc_time == "p":
                raise GeometryError("ground-state regions use interval time topology")
            if self.r != 2 * self.box.n:
                raise GeometryError("ground-state regions require r = 2n")

    @staticmethod
    def finite_beta(box: Box, beta: float, bc_space: str = "f", bc_time: str = "p") -> "SpaceTimeRegion":
        return SpaceTimeRegion(box, float(beta), bc_space, bc_time)

    @staticmethod
    def ground_state(box: Box, bc_space: str = "f", bc_time: str = "f") -> "SpaceTimeRegion":
        return SpaceTimeRegion(box, float(2 * box.n), bc_space, bc_time, beta_infinite=True)

    @property
    def time_topology(self) -> str:
        return "circle" if self.bc_time == "p" else "interval"

    @functools.cached_property
    def t_min(self) -> float:
        return -self.r / 2.0

    @functools.cached_property
    def t_max(self) -> float:
        return self.r / 2.0

    def edge_set(self) -> EdgeSet:
        return edges_for_bc(self.box, self.bc_space)

    @functools.cached_property
    def blocks(self) -> dict:
        """The block geometries of :func:`tfim.randomparity.block_of` on this
        region, filled on first use."""
        return {}

    def sites(self) -> list[Site]:
        return self.box.sites()

    def contains_time(self, t: float) -> bool:
        return self.t_min <= t <= self.t_max

    def contains_point(self, point: Tuple[Site, float]) -> bool:
        x, t = point
        return tuple(x) in self.box and self.contains_time(t)

    def at_time_end(self, t: float) -> bool:
        """True when time is an interval and t lies within 1e-12 of one of its
        ends, where no source or correlation point may sit."""
        return self.time_topology == "interval" and abs(abs(t) - self.r / 2) < 1e-12


@dataclass(frozen=True)
class DualLattice:
    """Momentum/frequency grid dual to a space-time region.

    Momenta are (pi/n) * (box coordinates); frequencies are the multiples of
    2*pi/r with |l| <= l_max.
    """

    box: Box
    r: float
    l_max: float

    def momenta(self) -> list[Tuple[float, ...]]:
        step = math.pi / self.box.n
        return [tuple(step * c for c in x) for x in self.box.sites()]

    def frequencies(self) -> np.ndarray:
        step = 2.0 * math.pi / self.r
        j_max = int(math.floor(self.l_max / step + 1e-9))
        return step * np.arange(-j_max, j_max + 1)

    def points(self):
        """Iterate over (k, l) pairs, excluding the zero mode (0, 0)."""
        for k in self.momenta():
            for l in self.frequencies():
                if all(c == 0.0 for c in k) and l == 0.0:
                    continue
                yield k, float(l)


@dataclass(frozen=True)
class Holes:
    """A finite union of closed per-site time intervals removed from a region.

    ``intervals`` maps a site to disjoint, sorted (a, b) pairs with a <= b
    (a == b is an excised point).  Cutting a site's full circle or interval
    into pieces changes the labelling anchors of the graphical
    representations, so the per-site component structure is exposed here.
    """

    intervals: tuple  # ((site, (a, b)), ...) sorted

    @staticmethod
    def of(mapping: dict) -> "Holes":
        items = []
        for site, spans in mapping.items():
            spans = sorted((float(a), float(b)) for (a, b) in spans)
            for i, (a, b) in enumerate(spans):
                if b < a:
                    raise GeometryError(f"bad hole ({a}, {b})")
                if i and a <= spans[i - 1][1]:
                    raise GeometryError("holes on one site must be disjoint")
                items.append((tuple(site), (a, b)))
        return Holes(tuple(sorted(items)))

    @staticmethod
    def empty() -> "Holes":
        return Holes(())

    def on_site(self, site: Site) -> list:
        return [span for (x, span) in self.intervals if x == site]

    def cut_sites(self) -> list:
        return sorted({x for (x, _) in self.intervals})


def _complement(region: SpaceTimeRegion, spans: list) -> list:
    """Complement of sorted disjoint spans on a site line: (lo, hi) pairs on
    the interval, (start, length) arcs on the circle."""
    if region.time_topology == "interval":
        comps = []
        lo = region.t_min
        for (a, b) in spans:
            if a > lo:
                comps.append((lo, a))
            lo = max(lo, b)
        if region.t_max > lo:
            comps.append((lo, region.t_max))
        return comps
    if not spans:
        return [(region.t_min, region.r)]
    arcs = []
    for i, (_, b) in enumerate(spans):
        next_a = spans[(i + 1) % len(spans)][0]
        length = (next_a - b) % region.r
        if length == 0.0 and len(spans) == 1 and spans[0][0] == b:
            length = region.r  # a single excised point opens the full circle
        if length > 0:
            arcs.append((b, length))
    return arcs


def line_components(region: SpaceTimeRegion, holes: Holes, site: Site) -> list:
    """Connected components of a site line after removing the holes.

    Interval topology returns (lo, hi) pairs inside [-r/2, r/2].  Circle
    topology returns (start, length) arcs, where an uncut circle is the single
    arc (t_min, r); a degenerate excised point still cuts the circle.
    """
    return _complement(region, holes.on_site(site))


def edge_windows(region: SpaceTimeRegion, holes: Holes, x: Site, y: Site) -> list:
    """Time windows where both endpoints of an edge are present (holes removed).

    Returned as (lo, hi) in base coordinates; on the circle the windows are
    the complement of the union of the two sites' holes, possibly wrapping,
    reported as (start, start + length) with start in [-r/2, r/2)."""
    merged = []
    for (a, b) in sorted(holes.on_site(x) + holes.on_site(y)):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    windows = _complement(region, merged)
    if region.time_topology == "interval":
        return windows
    return [(b, b + length) for (b, length) in windows]


def edge_shadow_length(region: SpaceTimeRegion, holes: Holes, edges: Iterable[Edge]) -> float:
    """Total length of edge-time windows touching the holes (the measure of
    the edge set shadowed by the removed intervals)."""
    total = 0.0
    for (x, y) in edges:
        present = sum(hi - lo for (lo, hi) in edge_windows(region, holes, x, y))
        total += region.r - present
    return total


def l1_norm(point) -> float:
    """l1 norm of a lattice point, or of a space-time point ((x...), t)."""
    if len(point) == 2 and isinstance(point[0], (tuple, list, np.ndarray)):
        x, t = point
        return float(sum(abs(c) for c in x) + abs(t))
    return float(sum(abs(c) for c in point))


def graph_laplacian_ft(p: Sequence[float]) -> float:
    """Fourier transform of the graph Laplacian, sum_j (1 - cos p_j).

    Each coordinate must lie in (-pi, pi].
    """
    slack = 1e-12
    for c in p:
        if not (-math.pi - slack < c <= math.pi + slack):
            raise GeometryError(f"momentum coordinate {c} outside (-pi, pi]")
    return float(sum(1.0 - math.cos(c) for c in p))
