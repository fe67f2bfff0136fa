import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from tfim.geometry import (Box, DualLattice, EdgeSet, GeometryError, Holes,
                           SpaceTimeRegion, edge_shadow_length, edge_windows,
                           graph_laplacian_ft, l1_norm, line_components)


def test_box_site_counts():
    assert Box(1, 2).site_count == 5
    assert Box(2, 1).site_count == 9
    assert Box(1, 2, "even-side").site_count == 4
    assert Box(3, 1, "even-side").site_count == 8


def test_box_sites_fresh_list_in_lexicographic_order():
    box = Box(2, 1, "even-side")
    first = box.sites()
    assert first == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert first == [tuple(p) for p in itertools.product(box.coord_range, repeat=2)]
    # a caller mutating the returned list does not change the next call
    first.append((9, 9))
    first[0] = (7, 7)
    first.sort(reverse=True)
    assert box.sites() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert box.sites() is not box.sites()
    # a box that built its sites still compares, hashes and pickles by its fields
    assert box == Box(2, 1, "even-side") and hash(box) == hash(Box(2, 1, "even-side"))
    assert pickle.loads(pickle.dumps(box)).sites() == box.sites()


def _shrunk(box: Box) -> Box:
    """The box with half-side n-1 in the same convention."""
    if box.n == 0 or (box.convention == "even-side" and box.n == 1):
        raise GeometryError("cannot shrink a minimal box")
    return Box(box.d, box.n - 1, box.convention)


def test_boundary_partition_is_disjoint_cover():
    for box in (Box(1, 3), Box(2, 2), Box(1, 2, "even-side")):
        inner = set(_shrunk(box).sites())
        boundary = set(box.boundary_sites())
        assert inner | boundary == set(box.sites())
        assert not (inner & boundary)


def test_exterior_neighbour_count():
    box = Box(2, 2)
    assert box.exterior_neighbour_count((2, 2)) == 2
    assert box.exterior_neighbour_count((2, 0)) == 1
    assert box.exterior_neighbour_count((0, 0)) == 0
    with pytest.raises(GeometryError):
        box.exterior_neighbour_count((3, 0))


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_periodic_edge_count(d, n):
    box = Box(d, n)
    edges = EdgeSet.spatially_periodic(box)
    assert len(edges.edges) == d * (2 * n + 1) ** d


def test_periodic_wrap_edges_connect_extremes():
    edges = EdgeSet.spatially_periodic(Box(1, 2))
    assert ((-2,), (2,)) in edges.edges


def test_wired_extended_frozen_shell():
    box = Box(1, 1)
    edges = EdgeSet.wired_extended(box)
    assert ((1,), (2,)) in edges.edges


def test_at_time_end_within_1e_12_of_an_interval_end():
    interval = SpaceTimeRegion(Box(1, 1), 1.0, "f", "f")
    assert interval.at_time_end(0.5) and interval.at_time_end(-0.4999999999999)
    assert not interval.at_time_end(0.49999999999) and not interval.at_time_end(0.0)
    assert not SpaceTimeRegion.finite_beta(Box(1, 1), 1.0).at_time_end(0.5)


def test_region_invariants():
    box = Box(1, 2)
    region = SpaceTimeRegion.finite_beta(box, 1.5)
    assert region.time_topology == "circle"
    gs = SpaceTimeRegion.ground_state(box)
    assert gs.r == 4.0 and gs.time_topology == "interval"
    with pytest.raises(GeometryError):
        SpaceTimeRegion(box, 3.0, "f", "f", beta_infinite=True)
    with pytest.raises(GeometryError):
        SpaceTimeRegion(box, 2.0, "f", "q")


def test_l1_norm_examples():
    assert l1_norm((0, 0, 0)) == 0.0
    assert l1_norm(((1, -2), 0.5)) == 3.5
    assert l1_norm(((0, 0), -1.25)) == 1.25


def test_graph_laplacian_examples():
    assert graph_laplacian_ft((0.0, 0.0)) == 0.0
    assert graph_laplacian_ft((math.pi,)) == pytest.approx(2.0)
    assert graph_laplacian_ft((math.pi / 2, math.pi / 2)) == pytest.approx(2.0)
    with pytest.raises(GeometryError):
        graph_laplacian_ft((4.0,))


@given(st.lists(st.floats(-math.pi + 1e-9, math.pi), min_size=1, max_size=3))
@settings(max_examples=50)
def test_graph_laplacian_even_and_positive(p):
    value = graph_laplacian_ft(p)
    assert value >= 0.0
    flipped = [-c if c < math.pi else c for c in p]
    assert graph_laplacian_ft(flipped) == pytest.approx(value, abs=1e-12)
    if any(abs(c) > 1e-6 and abs(c) < math.pi for c in p):
        assert value > 0.0


def test_dual_lattice_grid():
    dual = DualLattice(Box(1, 2, "even-side"), 2.0, 10.0)
    ks = [k[0] for k in dual.momenta()]
    assert ks == pytest.approx([-math.pi / 2, 0.0, math.pi / 2, math.pi])
    freqs = dual.frequencies()
    assert freqs[0] == -freqs[-1]
    assert all(abs(l) <= 10.0 + 1e-9 for l in freqs)
    pts = list(dual.points())
    assert ((0.0,), 0.0) not in [(k, l) for (k, l) in pts]


def test_line_components_interval():
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "f")
    holes = Holes.of({(0,): [(-0.5, -0.2), (0.3, 0.4)]})
    comps = line_components(region, holes, (0,))
    assert comps == [(-1.0, -0.5), (-0.2, 0.3), (0.4, 1.0)]


def test_line_components_circle():
    region = SpaceTimeRegion.finite_beta(Box(1, 0), 2.0)
    holes = Holes.of({(0,): [(-0.25, 0.25)]})
    arcs = line_components(region, holes, (0,))
    assert len(arcs) == 1
    start, length = arcs[0]
    assert start == 0.25 and length == pytest.approx(1.5)
    # a single excised point opens the full circle
    point = Holes.of({(0,): [(0.1, 0.1)]})
    arcs = line_components(region, point, (0,))
    assert arcs == [(0.1, 2.0)]


def test_edge_windows_and_shadow():
    region = SpaceTimeRegion(Box(1, 1), 2.0, "f", "f")
    holes = Holes.of({(0,): [(-0.2, 0.5)]})
    windows = edge_windows(region, holes, (0,), (1,))
    assert windows == [(-1.0, -0.2), (0.5, 1.0)]
    edges = EdgeSet.free(region.box).edges
    # both edges touch the cut site, each loses the hole length
    assert edge_shadow_length(region, holes, edges) == pytest.approx(1.4)
