import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from tfim import discrete
from tfim import experiments as ex
from tfim.discrete import (DiscreteSystem, coupled_probability,
                           enumerate_coupled, switching_sides)

# (lhs, rhs) of the exact switching cases as given by the nested-loop
# enumeration (``_reference_switching_sides`` below); the tests of this file
# use the same four systems.
PINNED_SIDES = {
    "1edge-3slot-fw": (0.4501785278320313, 0.45017852783203144),
    "2edge-3slot-fw": (0.1843031433993942, 0.18430314339939421),
    "1edge-4slot-fw": (0.397460158151839, 0.3974601581518384),
    "1edge-3slot-pp": (0.4368832192342155, 0.436883219234213),
}


def _assert_pinned(lhs, rhs, case):
    pinned_lhs, pinned_rhs = PINNED_SIDES[case]
    assert lhs == pytest.approx(pinned_lhs, rel=1e-13, abs=0)
    assert rhs == pytest.approx(pinned_rhs, rel=1e-13, abs=0)


def small_system(**overrides):
    params = dict(sites=("a", "b"), edges=(("a", "b"),), n_slots=3,
                  topology="circle", bc1="p", bc2="p", p_bridge=0.3,
                  w_even=1.2, ghost_multiplicity={"a": 1, "b": 1}, p_ghost=0.15)
    params.update(overrides)
    return DiscreteSystem(**params)


def test_switching_exact_interval_fw():
    system = DiscreteSystem(
        sites=("a", "b"), edges=(("a", "b"),), n_slots=3, topology="interval",
        bc1="f", bc2="w", p_bridge=0.3, w_even=1.25,
        ghost_multiplicity={"a": 1, "b": 1}, p_ghost=0.2)
    lhs, rhs = switching_sides(system, ("a", 1), ("b", 2))
    assert abs(lhs - rhs) <= 1e-12
    _assert_pinned(lhs, rhs, "1edge-3slot-fw")


def test_switching_exact_two_edges():
    system = DiscreteSystem(
        sites=("a", "b", "c"), edges=(("a", "b"), ("b", "c")), n_slots=3,
        topology="interval", bc1="f", bc2="w", p_bridge=0.3, w_even=1.2,
        ghost_multiplicity={"a": 1, "c": 1}, p_ghost=0.1)
    lhs, rhs = switching_sides(system, ("a", 1), ("c", 2))
    assert abs(lhs - rhs) <= 1e-12
    _assert_pinned(lhs, rhs, "2edge-3slot-fw")


def test_switching_exact_four_slots():
    system = DiscreteSystem(
        sites=("a", "b"), edges=(("a", "b"),), n_slots=4, topology="interval",
        bc1="f", bc2="w", p_bridge=0.35, w_even=1.15,
        ghost_multiplicity={"a": 1, "b": 1}, p_ghost=0.15)
    lhs, rhs = switching_sides(system, ("a", 1), ("b", 3))
    assert abs(lhs - rhs) <= 1e-12
    _assert_pinned(lhs, rhs, "1edge-4slot-fw")


def test_switching_exact_circle_pp():
    lhs, rhs = switching_sides(small_system(), ("a", 0), ("b", 1))
    assert abs(lhs - rhs) <= 1e-12
    _assert_pinned(lhs, rhs, "1edge-3slot-pp")


@pytest.mark.parametrize("ghosts", [{}, {"a": 1, "b": 1, "c": 1}], ids=["no-ghosts", "ghosts"])
def test_switching_exact_on_a_cycle(ghosts):
    # a 2-slot circle on the triangle: the naive float sums missed by 1.6e-14
    # (no ghosts) and 7.1e-14 (one ghost per site); compensated sums do not
    system = DiscreteSystem(
        sites=("a", "b", "c"), edges=(("a", "b"), ("b", "c"), ("a", "c")), n_slots=2,
        topology="circle", bc1="p", bc2="p", p_bridge=0.3, w_even=1.2,
        ghost_multiplicity=ghosts, p_ghost=0.15 if ghosts else 0.0)
    lhs, rhs = switching_sides(system, ("a", 0), ("b", 1))
    assert lhs > 0.1
    assert abs(lhs - rhs) <= 1e-15


def test_switching_no_bridges_both_sides_vanish():
    system = small_system(p_bridge=0.0, ghost_multiplicity={}, p_ghost=0.0)
    lhs, rhs = switching_sides(system, ("a", 0), ("b", 1))
    assert lhs == 0.0 and rhs == 0.0


def test_switching_connectivity_memo_is_per_call(monkeypatch):
    """Each distinct (cut cells, bridges) question is asked once per call, at
    most 2^cells * 2^slots of them, and a second call asks them all again."""
    calls = []
    connected = discrete._connected
    monkeypatch.setattr(discrete, "_connected",
                        lambda *args, **kw: calls.append(args) or connected(*args, **kw))
    system = small_system()
    switching_sides(system, ("a", 0), ("b", 1))
    first = len(calls)
    assert 0 < first <= 2**6 * 2**3
    assert len({(frozenset(args[1]), frozenset(args[2])) for args in calls}) == first
    switching_sides(system, ("a", 0), ("b", 1))
    assert len(calls) == 2 * first


@pytest.mark.parametrize("overrides, source, match", [
    (dict(w_even=0.8), None, "w_even >= 1"),
    (dict(p_bridge=0.6), None, "p_bridge"),
    (dict(p_bridge=1.0), None, "p_bridge"),
    (dict(p_bridge=-0.1), None, "p_bridge"),
    (dict(p_ghost=1.5), None, "p_ghost <= 1"),
    (dict(bc2="x"), None, "time rules"),
    (dict(bc1="f"), None, "time rules"),
    (dict(topology="interval"), None, "time rules"),
    (dict(topology="torus"), None, "time rules"),
    (dict(n_slots=0), None, "n_slots"),
    (dict(edges=(("a", "z"),)), None, "edges"),
    (dict(ghost_multiplicity={"z": 1}), None, "ghost multiplicities"),
    (dict(ghost_multiplicity={"a": -1}), None, "ghost multiplicities"),
    ({}, ("z", 0), "source"),
    ({}, ("a", 3), "source"),
    (dict(topology="interval", bc1="f", bc2="w"), ("a", 0), "source"),
    (dict(topology="interval", bc1="f", bc2="w"), ("a", 3), "source"),
])
def test_invalid_discrete_system_raises(overrides, source, match):
    if source is None:
        with pytest.raises(ValueError, match=match):
            small_system(**overrides)
        return
    system = small_system(**overrides)
    with pytest.raises(ValueError, match=match):
        switching_sides(system, source, ("b", 1))
    with pytest.raises(ValueError, match=match):
        enumerate_coupled(system, sources2=(source,))


def test_cut_probability_tied_to_weight():
    system = small_system(w_even=1.25)
    assert system.q_cut == pytest.approx(1.0 - 1.25**-2)


def test_coupled_measure_consistency():
    system = small_system(n_slots=2, p_ghost=0.1)
    configs = enumerate_coupled(system)
    total = sum(c.prob for c in configs)
    # probabilities of the enumerated (consistent-labelling) configurations
    # sum to the consistency probability, at most one
    assert 0 < total <= 1.0
    p_all = coupled_probability(system, lambda c: True, configs)
    assert p_all == pytest.approx(1.0, abs=1e-12)
    event = lambda c: len(c.bridges1) > 0
    p = coupled_probability(system, event, configs)
    p_complement = coupled_probability(system, lambda c: not event(c), configs)
    assert p + p_complement == pytest.approx(1.0, abs=1e-9)
    # ratio formula against direct atom sums
    num = sum(c.prob * c.weight for c in configs if event(c))
    den = sum(c.prob * c.weight for c in configs)
    assert p == pytest.approx(num / den, abs=1e-12)


@pytest.mark.parametrize("case", ex.EXACT_SWITCHING_CASES, ids=lambda c: c["case"])
def test_exact_switching_cases_pinned(case):
    lhs, rhs = switching_sides(case["system"], *case["sources"])
    _assert_pinned(lhs, rhs, case["case"])


# -- nested-loop reference for the switching sides ------------------------------
#
# Every (copy 1, copy 2) state pair with both labellings, and a fresh
# connectivity per cut set and latent-slot set: slow, but a direct transcription
# of the two expectations.

def _reference_switching_sides(system, source_a, source_b):
    src_pair = (source_a, source_b)
    lhs = 0.0
    rhs = 0.0
    for bridges1, _, _, tau, p1 in discrete._iter_copy(system, system.bc1, False):
        par1_src = discrete._switch_parities(system, bridges1, (), src_pair)
        lab1_src = discrete._labelling(system, par1_src, system.bc1, tau)
        par1_emp = discrete._switch_parities(system, bridges1, (), ())
        lab1_emp = discrete._labelling(system, par1_emp, system.bc1, tau)
        if lab1_src is None and lab1_emp is None:
            continue
        for bridges2, ghost_list, _, tau2, p2 in discrete._iter_copy(
                system, system.bc2, True):
            par2_emp = discrete._switch_parities(system, bridges2, ghost_list, ())
            lab2_emp = discrete._labelling(system, par2_emp, system.bc2, tau2)
            par2_src = discrete._switch_parities(system, bridges2, ghost_list, src_pair)
            lab2_src = discrete._labelling(system, par2_src, system.bc2, tau2)
            base = p1 * p2
            if lab1_src is not None and lab2_emp is not None:
                lhs += (base * discrete._weight(system, lab1_src)
                        * discrete._weight(system, lab2_emp))
            if lab1_emp is not None and lab2_src is not None:
                w = discrete._weight(system, lab1_emp) * discrete._weight(system, lab2_src)
                union = set(bridges1) | set(bridges2)
                prob_conn = _reference_connection_probability(
                    system, lab1_emp, lab2_src, union, source_a, source_b)
                rhs += base * w * prob_conn
    return lhs, rhs


def _reference_connection_probability(system, labels1, labels2, bridges_union,
                                      start, end):
    q = system.q_cut
    p = system.p_bridge
    latent_open = (p / (1.0 - p)) ** 2
    ee = [(x, c) for x in system.sites for c in system.cells()
          if labels1[x][c] and labels2[x][c]]
    empty_slots = [((x, y), b) for (x, y) in system.edges
                   for b in system.interior_boundaries
                   if ((x, y), b) not in bridges_union]
    prob = 0.0
    for cut_bits in itertools.product((False, True), repeat=len(ee)):
        cut = {cell for cell, bit in zip(ee, cut_bits) if bit}
        p_cut = 1.0
        for bit in cut_bits:
            p_cut *= q if bit else (1.0 - q)
        if p_cut == 0.0:
            continue
        for open_bits in itertools.product((False, True), repeat=len(empty_slots)):
            extra = [slot for slot, bit in zip(empty_slots, open_bits) if bit]
            p_lat = 1.0
            for bit in open_bits:
                p_lat *= latent_open if bit else (1.0 - latent_open)
            if p_lat == 0.0:
                continue
            # cut cells are even-even, so each blocks its line
            if discrete._connected(system, list(bridges_union) + extra, cut, start, end):
                prob += p_cut * p_lat
    return prob


@st.composite
def _small_switching_systems(draw):
    """Interval f/w with 1-2 edges and 2-3 slots, or the circle p/p with 2
    slots, at random valid parameters and sources."""
    shape = draw(st.sampled_from(["interval-1edge", "interval-2edge", "circle"]))
    if shape == "interval-2edge":
        sites, edges = ("a", "b", "c"), (("a", "b"), ("b", "c"))
    else:
        sites, edges = ("a", "b"), (("a", "b"),)
    if shape == "circle":
        n_slots, topology, bc1, bc2 = 2, "circle", "p", "p"
    else:
        n_slots, topology, bc1, bc2 = draw(st.integers(2, 3)), "interval", "f", "w"
    system = DiscreteSystem(
        sites=sites, edges=edges, n_slots=n_slots, topology=topology, bc1=bc1, bc2=bc2,
        p_bridge=draw(st.floats(0.0, 0.5)), w_even=draw(st.floats(1.0, 2.0)),
        ghost_multiplicity={x: draw(st.integers(0, 1)) for x in sites},
        p_ghost=draw(st.floats(0.0, 1.0)))
    sources = st.tuples(st.sampled_from(sites),
                        st.sampled_from(list(system.interior_boundaries)))
    return system, draw(sources), draw(sources)


@given(_small_switching_systems())
@settings(max_examples=100)
def test_switching_sides_match_nested_loop_reference(drawn):
    system, source_a, source_b = drawn
    lhs, rhs = switching_sides(system, source_a, source_b)
    ref_lhs, ref_rhs = _reference_switching_sides(system, source_a, source_b)
    assert lhs == pytest.approx(ref_lhs, rel=1e-12, abs=1e-15)
    assert rhs == pytest.approx(ref_rhs, rel=1e-12, abs=1e-15)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)
