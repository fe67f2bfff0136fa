import bisect
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfim.geometry import Box, Holes, SpaceTimeRegion
from tfim import percolation as pc
from tfim import randomparity as rp
from tfim import spectral as sp
from tfim.spinrep import SamplingError
from tfim.rng import chain_generator


def region_f(n=1, r=4.0):
    return SpaceTimeRegion(Box(1, n), r, "f", "f")


def test_labelling_trivial_cases():
    region = region_f()
    lab = rp.build_labelling(region, {}, None, [], "f")
    assert lab.consistent
    assert lab.odd_length() == pytest.approx(0.0)
    assert lab.weight_normalized(1.0) == pytest.approx(1.0)

    lab2 = rp.build_labelling(region, {}, None, [((0,), 0.0), ((0,), 1.0)], "f")
    assert lab2.consistent
    assert lab2.odd_length() == pytest.approx(1.0)
    assert not lab2.label_is_even((0,), 0.5)
    assert lab2.label_is_even((0,), -0.5)
    # the odd subset is closed: switching points are odd
    assert not lab2.label_is_even((0,), 0.0)

    lab3 = rp.build_labelling(region, {}, None, [((0,), 0.0)], "f")
    assert not lab3.consistent
    assert lab3.weight_normalized(1.0) == 0.0


def test_labelling_source_at_endpoint_rejected():
    region = region_f()
    with pytest.raises(rp.InconsistentSourceError):
        rp.build_labelling(region, {}, None, [((0,), 2.0)], "f")


def test_labelling_wired_anchor():
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "w")
    lab = rp.build_labelling(region, {}, None, [], "w")
    assert lab.consistent
    assert lab.odd_length() == pytest.approx(2.0)
    lab2 = rp.build_labelling(region, {}, None, [((0,), -0.5), ((0,), 0.5)], "w")
    assert lab2.odd_length() == pytest.approx(1.0)


def test_labelling_periodic_tau():
    region = SpaceTimeRegion.finite_beta(Box(1, 0), 2.0)
    lab = rp.build_labelling(region, {}, None, [], "p", {(0,): 0})
    assert lab.odd_length() == pytest.approx(0.0)
    lab1 = rp.build_labelling(region, {}, None, [], "p", {(0,): 1})
    assert lab1.odd_length() == pytest.approx(2.0)
    sources = [((0,), -0.5), ((0,), 0.5)]
    lab2 = rp.build_labelling(region, {}, None, sources, "p", {(0,): 0})
    assert lab2.consistent
    assert lab2.odd_length() == pytest.approx(1.0)


def test_weight_positive_iff_even_switch_counts():
    region = SpaceTimeRegion(Box(1, 1, "even-side"), 2.0, "f", "f")
    odd_bridge = {((0,), (1,)): [0.2]}
    lab = rp.build_labelling(region, odd_bridge, None, [], "f")
    assert not lab.consistent
    even_bridge = {((0,), (1,)): [0.2, 0.5]}
    lab2 = rp.build_labelling(region, even_bridge, None, [], "f")
    assert lab2.consistent and lab2.weight_normalized(1.0) > 0


def test_rpr_empty_sources_ratio_is_one():
    rng = chain_generator(11, 0)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    est = rp.estimate_rpr_correlation([], region, 1.0, 1.0, 500, rng)
    assert est.value == pytest.approx(1.0, abs=3 * est.stderr)


def test_rpr_zero_coupling_pair_vanishes():
    rng = chain_generator(11, 1)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    est = rp.estimate_rpr_correlation([((0,), 0.0), ((1,), 0.0)], region, 0.0,
                                      1.0, 300, rng)
    assert est.value == 0.0


def test_rpr_all_zero_denominator_pool_raises_sampling_error():
    # 11 sites at beta = 6: none of the 20 source-free labellings is consistent
    region = SpaceTimeRegion.finite_beta(Box(1, 5), 6.0, "f", "p")
    with pytest.raises(SamplingError, match=r"all 20 weights of the denominator .*lam=1\.0"):
        rp.estimate_rpr_correlation([((0,), 0.0), ((1,), 0.0)], region, 1.0, 1.0, 20,
                                    chain_generator(1, 0))


def test_all_zero_coupled_pool_raises_sampling_error():
    # ground state, N = 4, wired space: none of the 4 coupled draws has a
    # nonzero weight
    region = SpaceTimeRegion.ground_state(Box(1, 4), "w", "f")
    rng = chain_generator(1, 0)
    weights = [rp.sample_coupled(region, 1.0, 1.0, (), (), rng).weight for _ in range(4)]
    assert weights == [0.0] * 4
    for event in (lambda c: True, lambda c: False):
        with pytest.raises(SamplingError, match=r"all 4 weights of the source-free "
                                                r"coupled pool at lam=1\.0 are zero"):
            rp.coupled_event_probability(region, 1.0, 1.0, event, 4, chain_generator(1, 0))


def test_labelling_pool_checks_sources_before_drawing():
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f")
    rng = chain_generator(3, 0)
    with pytest.raises(rp.InconsistentSourceError):
        rp._labelling_weights(region, 1.0, 1.0, [((0,), 0.5)], 10, rng)
    assert rng.random() == chain_generator(3, 0).random()
    # points checked for one region are checked again for another
    checked = rp._check_sources(SpaceTimeRegion.finite_beta(Box(1, 1), 2.0, "f", "f"),
                                [((0,), 0.5)])
    with pytest.raises(rp.InconsistentSourceError):
        rp.build_labelling(region, {}, None, checked, "f")


def test_rpr_matches_oracle_and_spin():
    rng = chain_generator(11, 2)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    pts = [((0,), 0.0), ((1,), 0.0)]
    exact = sp.oracle_correlation(region, 1.0, 1.0, pts)
    est = rp.estimate_rpr_correlation(pts, region, 1.0, 1.0, 30000, rng)
    assert est.agrees_with(exact)


def test_rpr_wired_space_matches_oracle():
    rng = chain_generator(11, 3)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    pts = [((0,), 0.0), ((1,), 0.25)]
    exact = sp.oracle_correlation(region, 1.0, 1.0, pts)
    est = rp.estimate_rpr_correlation(pts, region, 1.0, 1.0, 30000, rng)
    assert est.agrees_with(exact)


def test_coupled_weight_zero_iff_inconsistent():
    rng = chain_generator(12, 0)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    seen_zero = seen_positive = False
    for _ in range(200):
        c = rp.sample_coupled(region, 1.0, 1.0, (), (), rng)
        w = c.weight
        consistent = c.labelling1.consistent and c.labelling2.consistent
        assert (w > 0) == consistent
        seen_zero |= w == 0
        seen_positive |= w > 0
    assert seen_zero and seen_positive


def test_coupled_zero_coupling_no_ghosts_all_even():
    rng = chain_generator(12, 1)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    # tau anchors make all-even only half the time per site; weight <= 1 and
    # equals 1 exactly when every line is fully even
    c = rp.sample_coupled(region, 0.0, 1.0, (), (), rng)
    assert c.weight <= 1.0
    assert c.weight > 0


@pytest.mark.parametrize("lists, distinct", [
    ([[0.1, 0.5], [0.3, 0.5]], False),
    ([[0.2, 0.7, 0.2], [0.4]], False),
    ([], True),
    ([[0.25]], True),
    ([[0.1, 0.9], [], [0.3]], True),
    ([[0.0], [-0.0]], False),
])
def test_distinct_times(lists, distinct):
    assert rp._distinct(lists) is distinct


def test_coupled_draw_raises_when_retries_run_out(monkeypatch):
    monkeypatch.setattr(rp, "_distinct", lambda lists: False)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    with pytest.raises(SamplingError, match="coincident"):
        rp.sample_coupled(region, 1.0, 1.0, (), (), chain_generator(1, 0))


def test_bridge_ends_resolved_once():
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    c = rp.sample_coupled(region, 2.0, 1.0, (), (), chain_generator(2, 0))
    assert c.index is c.index
    times = [t for bridges in (c.bridges1, c.bridges2) for ts in bridges.values() for t in ts]
    assert sorted(t for (_, _, ts, _, _) in c.index.edges for t in ts) == sorted(times)
    for (x, y, ts, ids_x, ids_y) in c.index.edges:
        assert ts == sorted(ts)
        assert ids_x == [c.index.vertex(x, t) for t in ts]
        assert ids_y == [c.index.vertex(y, t) for t in ts]


# sha256 of the whole-region vertex layout and its clusters over 20 successive
# draws of chain_generator(46, k) at lam = delta = 1, one line per draw:
# starts, ends, offsets, seams and edges of the index, then the sorted member
# lists of the classes.  Recorded while the index copied its layout from a
# span partition.
_LAYOUT_PINS = {
    "3-site circle": "b303fce51c69c91afd172f7b755e2d83c06ea052649c71171a619ea18fda1767",
    "3-site interval": "cac76cc3cf9fe9196dffe00b15bbd64637b3802831e5b7e6293b08b3eb59dbcc",
    "3x3 wired circle": "07b78f2c5d2e3ed3f19a8d0244d63bc624d127d3956ea02490945d21db98c8ca",
    "3x3 wired interval": "f4a441268c35c9ecd0454dd3b969a6ce6c9d74ca509018d94d4c4fce62a3da85",
}
_LAYOUT_REGIONS = {
    "3-site circle": SpaceTimeRegion.finite_beta(Box(1, 1), 2.0, "w", "p"),
    "3-site interval": SpaceTimeRegion(Box(1, 1), 2.0, "w", "f"),
    "3x3 wired circle": SpaceTimeRegion.finite_beta(Box(2, 1), 2.0, "w", "p"),
    "3x3 wired interval": SpaceTimeRegion(Box(2, 1), 2.0, "w", "f"),
}


def classes(coupled):
    """The configuration's clusters: class root -> list of (site, vertex
    number on that site's line), in vertex order."""
    index, find = coupled.index, coupled.clusters.find
    out = {}
    for x, offset in index.offsets.items():
        for i in range(len(index.starts[x])):
            out.setdefault(find(offset + i), []).append((x, i))
    return out


@pytest.mark.parametrize("k,shape", enumerate(_LAYOUT_PINS))
def test_vertex_layout_pinned(k, shape):
    rng = chain_generator(46, k)
    lines = []
    for _ in range(20):
        c = rp.sample_coupled(_LAYOUT_REGIONS[shape], 1.0, 1.0, (), (), rng)
        index = c.index
        clusters = sorted(sorted(members) for members in classes(c).values())
        lines.append(repr((index.starts, index.ends, index.offsets, index.seams,
                           index.edges, clusters)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _LAYOUT_PINS[shape]


@pytest.mark.parametrize("shape", _LAYOUT_REGIONS)
def test_root_is_the_class_root_of_each_vertex(shape):
    region = _LAYOUT_REGIONS[shape]
    rng = chain_generator(47, 0)
    for _ in range(10):
        c = rp.sample_coupled(region, 1.0, 1.0, (), (), rng)
        starts, ends = c.index.starts, c.index.ends
        for root, members in classes(c).items():
            for x, i in members:
                assert c.root((x, (starts[x][i] + ends[x][i]) / 2)) == root
        x = next(iter(starts))
        assert c.root((x, region.t_max + 0.1)) is None
        assert c.root((x, region.t_min - 0.1)) is None


@pytest.mark.parametrize("shape", _LAYOUT_REGIONS)
def test_cluster_measure_is_the_per_class_sum(shape):
    """cluster_report adds each cluster's measure in one pass over the vertex
    ids; that is the per-class sum over classes(), bit for bit."""
    rng = chain_generator(48, 0)
    for _ in range(20):
        c = rp.sample_coupled(_LAYOUT_REGIONS[shape], 1.0, 1.0, (), (), rng)
        starts, ends = c.index.starts, c.index.ends
        members = classes(c)
        report = pc.cluster_report(c)
        assert report.n_clusters == len(members)
        assert report.largest_cluster_measure == max(
            sum(ends[x][i] - starts[x][i] for (x, i) in cls) for cls in members.values())


def even_points(lab, x, times):
    """The sorted ``times`` labelled even at x: one merge of the times against
    the switches, slicing out the times strictly inside each even span (the
    former ``Labelling.even_points``, which blocking cuts were filtered by)."""
    bounds = [-math.inf, *lab.switches[tuple(x)], math.inf]
    out = []
    for k in range(0 if lab.span_even(x, 0) else 1, len(bounds) - 1, 2):
        out += times[bisect.bisect_right(times, bounds[k]):
                     bisect.bisect_left(times, bounds[k + 1])]
    return out


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50)
def test_even_points_match_label_is_even(seed, circle):
    region = SpaceTimeRegion(Box(1, 2), 3.0, "w", "p" if circle else "f")
    c = rp.sample_coupled(region, 1.0, 1.0, (), (), np.random.default_rng(seed))
    for lab in (c.labelling1, c.labelling2):
        for x in region.box.sites():
            # switching points themselves are odd
            times = sorted([*lab.switches[x][::2], *c.cuts[x]])
            assert even_points(lab, x, times) == [t for t in times if lab.label_is_even(x, t)]


@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
@settings(max_examples=60)
def test_blocking_cuts_are_the_cuts_even_in_both_labellings(seed, circle, data):
    """The one-pass blocking cuts equal the filter by both labels and the
    former two even_points passes, also for cuts placed at switches, at 0.0
    and at t_min and t_max."""
    region = SpaceTimeRegion(Box(1, 2), 3.0, "w", "p" if circle else "f")
    c = rp.sample_coupled(region, 1.0, 1.0, (), (), np.random.default_rng(seed))
    lab1, lab2 = c.labelling1, c.labelling2
    cuts = {}
    for x in region.box.sites():
        special = [0.0, region.t_min, region.t_max, *lab1.switches[x], *lab2.switches[x]]
        placed = data.draw(st.lists(st.sampled_from(special), max_size=6))
        cuts[x] = sorted([*placed, *c.cuts[x]])
    c = dataclasses.replace(c, cuts=cuts)
    for x in region.box.sites():
        times = cuts[x]
        assert c.blocking_cuts[x] == [t for t in times if lab1.label_is_even(x, t)
                                      and lab2.label_is_even(x, t)]
        assert c.blocking_cuts[x] == even_points(lab2, x, even_points(lab1, x, times))


def test_connectivity_examples():
    rng = chain_generator(12, 2)
    region = SpaceTimeRegion.ground_state(Box(1, 1), "w", "f")
    c = rp.sample_coupled(region, 0.0, 1.0, (), (), rng)
    p = ((0,), 0.0)
    q = ((1,), 0.3)
    assert rp.connectivity(c, p, p, "plain")
    assert not rp.connectivity(c, p, q, "off-gamma")  # no bridges, no ghosts


def test_single_blocking_cut_blocks_and_removal_reconnects():
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "f")
    lab1 = rp.build_labelling(region, {}, None, [], "f")
    lab2 = rp.build_labelling(region, {}, None, [], "w")
    # second labelling all odd: no cut can block (needs even in both)
    c = rp.CoupledConfiguration(region, 0.0, 1.0, lab1, lab2, {}, {}, {},
                                {(0,): [0.1]})
    assert rp.connectivity(c, ((0,), -0.4), ((0,), 0.4), "off-gamma")
    # make both labellings even: the cut blocks
    lab2e = rp.build_labelling(region, {}, None, [], "f")
    c2 = rp.CoupledConfiguration(region, 0.0, 1.0, lab1, lab2e, {}, {}, {},
                                 {(0,): [0.1]})
    assert not rp.connectivity(c2, ((0,), -0.4), ((0,), 0.4), "off-gamma")
    c3 = rp.CoupledConfiguration(region, 0.0, 1.0, lab1, lab2e, {}, {}, {},
                                 {(0,): []})
    assert rp.connectivity(c3, ((0,), -0.4), ((0,), 0.4), "off-gamma")


def test_cut_thinning_never_disconnects():
    rng = chain_generator(12, 3)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    pairs_checked = 0
    for _ in range(400):
        c = rp.sample_coupled(region, 1.0, 1.0, (), (), rng)
        if c.weight == 0:
            continue
        p = ((0,), 0.0)
        q = ((1,), 0.2)
        before = rp.connectivity(c, p, q, "plain")
        thinned = {x: t[1:] for x, t in c.cuts.items()}
        c_thin = rp.CoupledConfiguration(region, c.lam, c.delta, c.labelling1,
                                         c.labelling2, c.bridges1, c.bridges2,
                                         c.ghosts, thinned)
        after = rp.connectivity(c_thin, p, q, "plain")
        if before:
            assert after
        pairs_checked += 1
    assert pairs_checked > 10


def test_switching_continuum_mc():
    rng = chain_generator(13, 0)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    rep = rp.verify_switching(region, 1.0, 1.0, ((1,), 0.25), 8000, rng)
    assert rep.kind == "identity" and rep.passed


def test_switching_zero_coupling_both_sides_vanish():
    rng = chain_generator(13, 1)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    rep = rp.verify_switching(region, 0.0, 1.0, ((1,), 0.25), 500, rng)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    # both sides vanish with zero standard errors: the identity holds exactly
    assert rep.se_lhs == rep.se_rhs == 0.0
    assert rep.gap == 0.0 and rep.passed


def test_correlation_difference_chain():
    rng = chain_generator(13, 2)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "f", "p")
    lower, upper = rp.correlation_difference_bound(region, 1.0, 1.0, ((1,), 0.0), 8000, rng)
    assert lower.kind == upper.kind == "bound"
    assert lower.passed and upper.passed
    # the upper check's left side is the wired-minus-free difference
    assert upper.lhs == lower.rhs - lower.lhs


def test_correlation_difference_ghost_free_collapses():
    rng = chain_generator(13, 3)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "f", "p")
    _, upper = rp.correlation_difference_bound(region, 0.0, 1.0, ((0,), 0.3), 4000, rng)
    # zero coupling: no ghosts reachable, difference = 0, bound = 0
    assert upper.rhs == pytest.approx(0.0, abs=1e-12)
    assert abs(upper.lhs) <= 3 * upper.se_lhs


def test_constants_closed_forms():
    assert rp.constant_A(((0,) , 0.0), 1.0, 1.0, None) == pytest.approx(9 * math.exp(12.0))
    assert rp.constant_A(((0,), 0.0), 1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert rp.constant_A(((1,), 0.0), 1.0, 1.0, 1.0) == pytest.approx(3 * math.exp(6.0))
    with pytest.raises(ValueError):
        rp.constant_A(((0,), 0.0), 0.0, 1.0, None)
    assert rp.constant_B(0, math.sqrt(2.0), 1.0, 0.0, 1) == pytest.approx(4.0)
    assert rp.constant_B(1, 1.0, 1.0, 1.0, 1) > rp.constant_B(0, 1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        rp.constant_B(0, 0.0, 1.0, 1.0, 1)


def test_local_modification_bounds():
    rng = chain_generator(14, 0)
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    rep = rp.verify_local_modification_A(region, 1.0, 1.0, ((1,), 0.0), 6000, rng)
    assert rep.kind == "bound" and rep.passed
    events = {"far-site-no-cuts": lambda c: len(c.cuts.get((1,), ())) == 0,
              "far-site-many-cuts": lambda c: len(c.cuts.get((1,), ())) >= 2}
    out = rp.verify_local_modification_B(region, 1.0, 1.0, 0, 1.0, events,
                                         6000, rng)
    assert list(out) == list(events)
    assert all(res.kind == "bound" and res.passed for res in out.values())


# (difference, its stderr, P(origin <-> Gamma), its stderr, rhs) on the
# 3-site circle and interval; the difference was recorded before the
# origin-to-ghost ratio shared the weighted-event loop of the connectivity
# ratios, P(origin <-> Gamma) and rhs once A stopped drawing the unread
# ghost-connection bound of the correlation-difference chain, and the last
# bit of one stderr when the accumulator took over the ratio
_LOCAL_MODIFICATION_A_PINS = [
    (-0.20748077566543077, 0.28909759874245045, 0.9388909134877359,
     0.7907490227814492, 1136.3268853489476),
    (0.13816995164615214, 0.23756107963787243, 0.35408081819960635,
     0.3216491568946446, 3702447210.720676),
]


@pytest.mark.parametrize("k", range(2))
def test_local_modification_A_pinned(k):
    region = (SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p") if k == 0
              else SpaceTimeRegion(Box(1, 1), 2.0, "w", "f"))
    rep = rp.verify_local_modification_A(region, 1.0, 1.0, ((1,), 0.25), 200,
                                         chain_generator(43, k))
    p_ghost = rep.detail["p_origin_ghost"]
    assert (rep.lhs, rep.se_lhs, p_ghost.value, p_ghost.stderr,
            rep.rhs) == _LOCAL_MODIFICATION_A_PINS[k]
    assert rep.passed


def test_holes_identity_zero_coupling_closed_form():
    rng = chain_generator(14, 1)
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "f")
    holes = Holes.of({(0,): [(-0.3, 0.4)]})
    rep = rp.holes_identity_check(holes, region, 0.0, 1.0, 400, rng)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)


def test_holes_identity_periodic_cut_factor():
    rng = chain_generator(14, 2)
    region = SpaceTimeRegion.finite_beta(Box(1, 0), 2.0)
    holes = Holes.of({(0,): [(-0.3, 0.4)]})
    rep = rp.holes_identity_check(holes, region, 0.0, 1.0, 6000, rng)
    assert rep.detail["m_p"] == 1
    assert rep.kind == "identity" and rep.passed


def test_holes_identity_with_coupling():
    rng = chain_generator(14, 3)
    region = SpaceTimeRegion(Box(1, 1, "even-side"), 2.0, "f", "f")
    holes = Holes.of({(0,): [(-0.2, 0.5)]})
    rep = rp.holes_identity_check(holes, region, 1.0, 1.0, 20000, rng)
    assert rep.passed
    # the identity with the printed constant misses the shadow factor
    assert abs(rep.detail["printed_residual"]) > 10 * rep.se_lhs


def test_event_probability_identity():
    rng = chain_generator(14, 4)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    holes = Holes.of({(0,): [(-0.25, 0.25)]})
    rep = rp.event_probability_identity(holes, region, 1.0, 1.0, 15000, rng)
    assert rep.kind == "identity" and rep.passed
    assert 0.0 <= rep.lhs <= 1.0


def test_event_probability_zero_coupling_exact():
    rng = chain_generator(14, 5)
    region = SpaceTimeRegion(Box(1, 1), 1.0, "f", "f")
    holes = Holes.of({(0,): [(-0.25, 0.25)]})
    rep = rp.event_probability_identity(holes, region, 0.0, 1.0, 500, rng)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)


# -- random-parity ratios in the label basis ----------------------------------------

def _label_basis_ratio(region, lam, delta, points):
    """The random-parity ratio Z_A / Z_empty, exactly: the labelling measure is
    the path expansion of e^{-rH} in ``spectral``'s basis, a bit being a label
    with 1 meaning odd.  So the ratio is the ED correlation with the end vector
    that ``_end_labels`` names for a time end (every label even on free time,
    every label odd on wired time), or the trace on periodic time."""
    model = sp.build_for_region(region, lam, delta)
    if region.bc_time == "p":
        return sp.correlation(model, points, region.r, "p")
    even, _ = rp._end_labels(region.bc_time, 0)
    end = np.ones(1)
    for _ in model.sites:
        end = np.kron(end, [1.0, 0.0] if even else [0.0, 1.0])
    end = model.vectors.T @ end
    energies = model.energies - model.energies[0]
    vec, prev = end, region.t_min
    for (t, x) in sorted((float(t), tuple(x)) for (x, t) in points):
        vec = model.s3_matrix(x) @ (np.exp(-(t - prev) * energies) * vec)
        prev = t
    vec = np.exp(-(region.t_max - prev) * energies) * vec
    return float(end @ vec / (end @ (np.exp(-region.r * energies) * end)))


LABEL_POINTS = [((0,), 0.0), ((1,), 0.5)]
WIRED_GROUND = SpaceTimeRegion.ground_state(Box(1, 1), "w", "w")


@pytest.mark.parametrize("bc_space,bc_time", [("f", "f"), ("w", "f"), ("f", "p"), ("w", "p")])
def test_label_basis_ratio_is_the_oracle_where_the_rules_agree(bc_space, bc_time):
    # free time is the all-even end on both sides, periodic time the trace
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 2.0, bc_space, bc_time)
    model = sp.build_for_region(region, 1.0, 1.0)
    assert _label_basis_ratio(region, 1.0, 1.0, LABEL_POINTS) == pytest.approx(
        sp.correlation(model, LABEL_POINTS, region.r, bc_time), rel=1e-12)


def test_label_basis_ratio_pinned_on_the_wired_time_rule():
    # the record of today's wired-time rule, every end label odd, and of the
    # oracle's wired time, which sums over the end labels
    model = sp.build_for_region(WIRED_GROUND, 1.0, 1.0)
    assert sp.correlation(model, LABEL_POINTS, WIRED_GROUND.r, "w") == pytest.approx(
        0.7708424889438034, abs=1e-12)
    assert _label_basis_ratio(WIRED_GROUND, 1.0, 1.0, LABEL_POINTS) == pytest.approx(
        0.8330202540630787, abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="random-parity wired time is the all-odd boundary state, not the "
                          "oracle's sum over end labels (ROADMAP item 12)")
def test_random_parity_wired_time_matches_the_oracle():
    model = sp.build_for_region(WIRED_GROUND, 1.0, 1.0)
    assert _label_basis_ratio(WIRED_GROUND, 1.0, 1.0, LABEL_POINTS) == pytest.approx(
        sp.correlation(model, LABEL_POINTS, WIRED_GROUND.r, "w"), abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a hole at a wired time end is never even, so the rhs reads 0 "
                          "against a positive lhs (ROADMAP item 12)")
def test_holes_identity_with_a_hole_at_a_wired_time_end():
    # the 3-site ground state with free space and wired time; lhs 0.000495 +-
    # 0.000070 against rhs exactly 0
    region = SpaceTimeRegion.ground_state(Box(1, 1), "f", "w")
    holes = Holes.of({(-1,): [(region.t_min, -0.6)], (0,): [(0.6, region.t_max)]})
    rep = rp.holes_identity_check(holes, region, 1.0, 1.0, 2000, chain_generator(7, 0))
    assert rep.passed
