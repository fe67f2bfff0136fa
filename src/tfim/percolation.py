"""Cluster statistics of the coupled measure and the trifurcation diagnostic.

Clusters are computed from the open-path structure (blocking cuts are the
cut points labelled even in both labellings).  "Unbounded" has no meaning in
a finite box, so the reports use boundary-touching clusters as the standard
finite-size surrogate.  The leaf-bound comparison counts maximal cut-free
intervals meeting the region boundary, using the raw cut process: that
collection refines the clusters, which is what makes the per-configuration
trifurcation inequality structural rather than statistical.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import SpaceTimeRegion
from .randomparity import (CoupledConfiguration, _piece, _UnionFind, block_fully_connected,
                           block_of, connectivity, coupled_event_probability)
from .stats import Estimate


@dataclass
class ClusterReport:
    n_clusters: int
    boundary_touching: int
    origin_to_ghost: bool
    largest_cluster_measure: float


def cluster_report(coupled: CoupledConfiguration) -> ClusterReport:
    """Cluster decomposition of the region under the open-path semantics.

    Cluster counts use ghost-free connectivity (the ghost class is a
    boundary artifact); origin-to-ghost uses the ghost-jump rules.  Each
    cluster's measure is summed in one pass over the vertex ids, which run
    site by site and in time order along each line; boundary-touching
    clusters hold a vertex that meets the region boundary (see
    :meth:`~tfim.randomparity.VertexIndex.boundary_vertices`)."""
    index, find = coupled.index, coupled.clusters.find
    roots = [find(v) for v in range(index.n_vertices)]
    measure = {}
    for root, a, b in zip(roots, itertools.chain(*index.starts.values()),
                          itertools.chain(*index.ends.values())):
        measure[root] = measure.get(root, 0) + (b - a)
    touching = {roots[v] for ids in index.boundary.values() for v in ids}
    origin = coupled.root(((0,) * coupled.region.box.d, 0.0))
    return ClusterReport(len(measure), len(touching), origin in coupled.ghost_roots,
                         max(measure.values()))


def two_point_connectivity(region: SpaceTimeRegion, lam: float, delta: float,
                           p: tuple, q: tuple, n_samples: int,
                           rng: np.random.Generator) -> Estimate:
    """Weighted frequency of {p <-> q} under the coupled measure (paths may
    jump via the ghost class, as the identity with the correlation product
    requires)."""
    return coupled_event_probability(region, lam, delta,
                                     lambda c: connectivity(c, p, q, "plain"),
                                     n_samples, rng)


# -- trifurcation diagnostic ---------------------------------------------------

def boundary_interval_count(coupled: CoupledConfiguration) -> int:
    """Number of maximal cut-free intervals meeting the region boundary.

    Raw cuts (not only blocking ones): spatial-boundary sites contribute all
    their intervals, other sites the intervals touching the time endpoints."""
    region = coupled.region
    boundary_sites = set(region.box.boundary_sites())
    circle = region.time_topology == "circle"
    total = 0
    for x in region.box.sites():
        k = len(coupled.cuts.get(x, ()))
        if x in boundary_sites:
            total += max(1, k) if circle else k + 1
        elif not circle:
            total += 1 if k == 0 else 2
    return total


def leaf_bound(region: SpaceTimeRegion, delta: float) -> float:
    """Expected boundary-interval bound 2|box| + 4 delta r |spatial boundary|."""
    n_boundary = len(region.box.boundary_sites())
    return 2.0 * region.box.site_count + 4.0 * delta * region.r * n_boundary


def leaf_bound_printed_form(region: SpaceTimeRegion, delta: float) -> float:
    """The looser printed form 2(2N+1)^d + 4 delta r (2N+1)^{d-1}, kept for
    reference (it undercounts the boundary sites)."""
    side = region.box.side
    return 2.0 * side**region.box.d + 4.0 * delta * region.r * side ** (region.box.d - 1)


def _complement_branches(coupled: CoupledConfiguration, center_x, t0: float,
                         n0: int, r0: float) -> int:
    """Boundary-touching components of the region minus the block that attach
    to the block, by a bridge into it or along a line through a window end.

    The union-find runs over the vertex ids of
    :attr:`~tfim.randomparity.CoupledConfiguration.index`: whole lines off
    the block, and on block sites the pieces in the closed rest spans outside
    the window (:meth:`~tfim.randomparity.VertexIndex.clip`).  A bridge end
    inside the open window is not kept, so the bridge's other end, if kept,
    attaches to the block."""
    region = coupled.region
    index = coupled.index
    sites, window = block_of(region, (center_x, t0), n0, r0)
    bounds = [region.t_min, *itertools.chain(*window), region.t_max]
    rest = list(zip(bounds[::2], bounds[1::2]))
    pieces, seams, n = index.clip(sites, rest)
    seams += [seam for x, seam in index.seams.items() if x not in pieces]
    boundary = [v for x, ids in index.boundary.items() if x not in pieces for v in ids]
    boundary += [_piece(span, v) for x, spans in pieces.items() for span in spans
                 for v in index.boundary_vertices(x, *span[3:], *span[:2])]
    uf = _UnionFind(n)
    for i, j in seams:
        uf.union(i, j)
    attached = []
    for (x, y, times, ids_x, ids_y) in index.edges:
        px, py = pieces.get(x), pieces.get(y)
        if px is None and py is None:
            for i, j in zip(ids_x, ids_y):
                uf.union(i, j)
            continue
        # a bridge outside every rest span has its block end in the open
        # window, and attaches its other end if that end is kept
        dangling = ids_x if px is None else ids_y if py is None else []
        done = 0
        for k, span in enumerate(py if px is None else px):
            lo = bisect.bisect_left(times, span[0], done)
            hi = bisect.bisect_right(times, span[1], done)
            attached += dangling[done:lo]
            for i, j in zip(ids_x[lo:hi], ids_y[lo:hi]):
                uf.union(i if px is None else _piece(px[k], i),
                         j if py is None else _piece(py[k], j))
            done = hi
        attached += dangling[done:]
    attached += [index.piece_at(x, spans, t) for x, spans in pieces.items()
                 for t in itertools.chain(*window)]
    attached_roots = {uf.find(v) for v in attached if v is not None}
    return len(attached_roots & {uf.find(v) for v in boundary})


def _block_fully_connected(coupled: CoupledConfiguration, center_x, t0: float,
                           n0: int, r0: float) -> bool:
    """The block test of one probe, under its own name so that probe costs
    can be traced apart (tfimbench patches it by name)."""
    return block_fully_connected(coupled, (center_x, t0), n0, r0)


@dataclass
class TrifurcationReport:
    n_trifurcations: int
    n_boundary_intervals: int
    n_probes: int
    n_clipped: int
    leaf_bound: float
    leaf_bound_printed: float


def trifurcation_diagnostic(coupled: CoupledConfiguration, n0: int,
                            r0: float, delta: float) -> TrifurcationReport:
    """Count probe points whose translated block is internally all-connected
    while its complement shows at least three distinct boundary-touching
    branches.  Probes whose block exits the region are clipped and counted."""
    region = coupled.region
    step_x = 2 * n0 + 1
    step_t = 2.0 * r0
    lo_c, hi_c = region.box.coord_range[0], region.box.coord_range[-1]
    d = region.box.d
    coords = range(-(abs(lo_c) // step_x) * step_x, hi_c + 1, step_x)
    probes_x = list(itertools.product(coords, repeat=d))
    n_t = int(region.r / step_t) + 1
    circle = region.time_topology == "circle"
    # a circle's t_min and t_max are one slice, probed once
    probes_t = [t for t in (k * step_t for k in range(-n_t, n_t + 1))
                if region.t_min <= t < region.t_max or (t == region.t_max and not circle)]
    n_trif = 0
    n_clipped = 0
    n_probes = 0
    for cx in probes_x:
        inside = all(lo_c <= c - n0 and c + n0 <= hi_c for c in cx)
        for t0 in probes_t:
            window_ok = (circle or
                         (region.t_min <= t0 - r0 / 2 and t0 + r0 / 2 <= region.t_max))
            if not (inside and window_ok):
                n_clipped += 1
                continue
            n_probes += 1
            if not _block_fully_connected(coupled, cx, t0, n0, r0):
                continue
            if _complement_branches(coupled, cx, t0, n0, r0) >= 3:
                n_trif += 1
    return TrifurcationReport(
        n_trif, boundary_interval_count(coupled), n_probes, n_clipped,
        leaf_bound(region, delta), leaf_bound_printed_form(region, delta))
