import hashlib
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from tfim import discrete
from tfim import experiments as ex
from tfim.discrete import DiscreteSystem, enumerate_coupled, switching_sides

# (lhs, rhs) of the exact switching cases as given by the nested-loop
# enumeration (``_reference_switching_sides`` below); the tests of this file
# use the same four systems.
PINNED_SIDES = {
    "1edge-3slot-fw": (0.4501785278320313, 0.45017852783203144),
    "2edge-3slot-fw": (0.1843031433993942, 0.18430314339939421),
    "1edge-4slot-fw": (0.397460158151839, 0.3974601581518384),
    "1edge-3slot-pp": (0.4368832192342155, 0.436883219234213),
}


# the same sides to the last bit, and those of the two triangle systems of
# ``test_switching_exact_on_a_cycle``: every sum of the enumeration is
# ``math.fsum``, so no change of summation order may move them
EXACT_SIDES = {
    "1edge-3slot-fw": (0.4501785278320313, 0.45017852783203127),
    "2edge-3slot-fw": (0.1843031433993942, 0.18430314339939421),
    "1edge-4slot-fw": (0.3974601581518386, 0.3974601581518386),
    "1edge-3slot-pp": (0.4368832192342192, 0.43688321923421924),
    "triangle-no-ghosts": (0.20805200794905795, 0.20805200794905798),
    "triangle-ghosts": (0.11316876094579899, 0.113168760945799),
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
    assert (lhs, rhs) == EXACT_SIDES["triangle-" + ("ghosts" if ghosts else "no-ghosts")]


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


@pytest.mark.parametrize("system, sources", [
    (small_system(), (("a", 0), ("b", 1))),
    (small_system(w_even=1.0, p_bridge=0.5), (("a", 0), ("b", 2))),
    (ex.EXACT_SWITCHING_CASES[1]["system"], ex.EXACT_SWITCHING_CASES[1]["sources"]),
], ids=["pp", "pp-no-cut-all-latent", "2edge-fw"])
def test_connectivity_questions_match_the_walk(monkeypatch, system, sources):
    """The state tables ask ``_connected`` the (bridges, cut) questions of the
    per-state walk, no more and no fewer, zero-probability ones skipped."""
    asked = []
    connected = discrete._connected
    monkeypatch.setattr(discrete, "_connected", lambda *args: asked.append(
        (frozenset(args[1]), frozenset(args[2]))) or connected(*args))
    switching_sides(system, *sources)
    tables = list(asked)
    asked.clear()
    _walk_switching_sides(system, *sources)
    assert len(tables) == len(set(tables))
    assert set(tables) == set(asked)


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
    (dict(sites=tuple("abcdefghijklmnopqrstu"), ghost_multiplicity={}), None, "62"),
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


def coupled_probability(system, event, configs=None) -> float:
    """Probability of an event under the weight-tilted coupled measure: the
    exact reference for weighted coupled events."""
    configs = enumerate_coupled(system) if configs is None else configs
    num = sum(c.prob * c.weight for c in configs if event(c))
    den = sum(c.prob * c.weight for c in configs)
    return num / den


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
    assert (lhs, rhs) == EXACT_SIDES[case["case"]]


def _coupled_digest(configs):
    """Count and sha256 of the sorted lines of an ``enumerate_coupled`` output,
    floats as hex, so that any changed bit, state or label moves it."""
    lines = sorted(repr((sorted(c.bridges1), sorted(c.bridges2), sorted(c.ghosts),
                         sorted(c.cuts), sorted((x, tuple(lab)) for x, lab in c.labels1.items()),
                         sorted((x, tuple(lab)) for x, lab in c.labels2.items()),
                         c.weight.hex(), c.prob.hex())) for c in configs)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_enumerate_coupled_pinned():
    assert _coupled_digest(enumerate_coupled(small_system(n_slots=2, p_ghost=0.1))) == (
        8192, "e2af919fdcc15effd724e9c14903ea523b21b92345e3eaaf5a3a506c1983d99d")
    # two ghost copies on b toggle one boundary twice when they coincide
    interval = DiscreteSystem(
        sites=("a", "b"), edges=(("a", "b"),), n_slots=3, topology="interval",
        bc1="f", bc2="w", p_bridge=0.3, w_even=1.25,
        ghost_multiplicity={"a": 1, "b": 2}, p_ghost=0.2)
    assert _coupled_digest(enumerate_coupled(interval, (("a", 1), ("b", 2)))) == (
        8192, "2e4891b73c1cae53be46d62f294afdfc7817d230c1cf3844f2684d86ed409ff8")


# -- per-state walk: the reference for the bitmask enumeration ------------------
#
# The enumeration as it was written before the state tables: frozensets of
# slots, one parity list and one labelling per state, and a fresh loop over
# every (cut, latent) subset per connection-probability key.  Every float of
# ``switching_sides`` and ``enumerate_coupled`` must equal its float here.

def _subsets(items, p: float):
    """Yield (chosen, p^|chosen| (1-p)^|rest|) over every subset of ``items``."""
    for k in range(len(items) + 1):
        for chosen in itertools.combinations(items, k):
            yield chosen, (p**k) * ((1.0 - p) ** (len(items) - k))


def _labelling(system, switch_parity: dict, bc: str, tau: dict | None):
    """Cell labels (True = even) per site, or None when inconsistent."""
    labels = {}
    m = system.n_slots
    circle = system.topology == "circle"
    for x in system.sites:
        par = switch_parity.get(x, [0] * (m + 1))
        if sum(par[0:m] if circle else par[1:m]) % 2 != 0:
            return None
        # an interval starts even at an "f" anchor, a circle at tau = 0
        current = tau[x] == 0 if circle else bc == "f"
        lab = []
        for c in range(m):
            if c > 0 and par[c] % 2 == 1:
                current = not current
            lab.append(current)
        labels[x] = lab
    return labels


def _weight(system, labels):
    n_even = sum(sum(lab) for lab in labels.values())
    return system.w_even**n_even


def _switch_parities(system, bridges, ghosts, sources):
    m = system.n_slots
    par = {x: [0] * (m + 1) for x in system.sites}
    for ((x, y), b) in bridges:
        par[x][b] += 1
        par[y][b] += 1
    for (x, b) in ghosts:
        par[x][b] += 1
    for (x, b) in sources:
        par[x][b] += 1
    return par


def _iter_copy(system, bc: str, ghosted: bool):
    """Yield (bridges, ghost_list, ghosts, tau, prob) over the states of one
    copy: bridge sets, ghost placements if ``ghosted`` and time-zero parities
    tau if ``bc`` is "p"."""
    ghost_slots = [(x, b, copy) for x in system.sites if ghosted
                   for copy in range(system.ghost_multiplicity.get(x, 0))
                   for b in system.interior_boundaries]
    n = len(system.sites)
    taus = ([(dict(zip(system.sites, bits)), 0.5**n)
             for bits in itertools.product((0, 1), repeat=n)] if bc == "p" else [(None, 1.0)])
    for bridges, p_bridges in _subsets(system.bridge_slots(), system.p_bridge):
        bridges = frozenset(bridges)
        for chosen, p_ghosts in _subsets(ghost_slots, system.p_ghost):
            # distinct copies landing on one boundary toggle twice; keep multiset
            ghost_list = tuple((x, b) for (x, b, _) in chosen)
            for tau, p_tau in taus:
                yield bridges, ghost_list, frozenset(ghost_list), tau, p_bridges * p_ghosts * p_tau


def _copy_states(system, bc: str, ghosted: bool, lhs_sources, rhs_sources):
    """One enumeration of a copy: the sum of p * w over its labellings with
    ``lhs_sources``, and the sums of p * w over its labellings with
    ``rhs_sources`` per (bridges, even cells).  All sums are compensated
    (``math.fsum``)."""
    total = []
    states = {}
    for bridges, ghost_list, _, tau, p in _iter_copy(system, bc, ghosted):
        lab = _labelling(system, _switch_parities(system, bridges, ghost_list, lhs_sources),
                         bc, tau)
        if lab is not None:
            total.append(p * _weight(system, lab))
        lab = _labelling(system, _switch_parities(system, bridges, ghost_list, rhs_sources),
                         bc, tau)
        if lab is not None:
            key = (bridges, frozenset((x, c) for x in system.sites for c in system.cells()
                                      if lab[x][c]))
            states.setdefault(key, []).append(p * _weight(system, lab))
    return math.fsum(total), {key: math.fsum(terms) for key, terms in states.items()}


def _walk_switching_sides(system, source_a, source_b):
    """The switching sides from per-copy states aggregated by (bridges, even
    cells), one connection probability per (even-even cells, bridge union)."""
    system.check_source(source_a)
    system.check_source(source_b)
    src_pair = (source_a, source_b)
    lhs1, states1 = _copy_states(system, system.bc1, False, src_pair, ())
    lhs2, states2 = _copy_states(system, system.bc2, True, (), src_pair)
    connected = {}
    probability = {}
    rhs = []
    for (bridges1, even1), pw1 in states1.items():
        for (bridges2, even2), pw2 in states2.items():
            key = (even1 & even2, bridges1 | bridges2)
            if key not in probability:
                probability[key] = _connection_probability(system, *key, source_a, source_b,
                                                           connected)
            rhs.append(pw1 * pw2 * probability[key])
    return lhs1 * lhs2, math.fsum(rhs)


def _connection_probability(system, even_even: frozenset,
                            bridges_union: frozenset, start, end, connected: dict):
    """P(start <-> end avoiding ghost edges | labellings and processes).

    Conditionally on the label parities, an even-even cell is traversable
    with probability 1 - q_cut (no cut), and a slot carrying no bridge in
    either copy is traversable with the latent doubled-bridge probability
    (p/(1-p))^2, the discrete remnant of coincident bridges.  These latent
    events vanish in the continuum limit but are needed for the identity to
    be exact at a finite slot count.  ``connected`` memoises the open-path
    connectivity on (cut cells, bridges).
    """
    p = system.p_bridge
    latent_open = (p / (1.0 - p)) ** 2
    # listed in system order, so the float sum does not follow set order
    ee = [(x, c) for x in system.sites for c in system.cells() if (x, c) in even_even]
    empty = [slot for slot in system.bridge_slots() if slot not in bridges_union]
    opened = [(bridges_union.union(extra), p_lat)
              for extra, p_lat in _subsets(empty, latent_open) if p_lat != 0.0]
    terms = []
    for cut, p_cut in _subsets(ee, system.q_cut):
        if p_cut == 0.0:
            continue
        cut = frozenset(cut)
        for bridges, p_lat in opened:
            key = (cut, bridges)
            if key not in connected:
                connected[key] = discrete._connected(system, bridges, cut, start, end)
            if connected[key]:
                terms.append(p_cut * p_lat)
    return math.fsum(terms)


def _walk_enumerate_coupled(system, sources1=(), sources2=()):
    """All coupled configurations with nonzero labelling weights."""
    for source in (*sources1, *sources2):
        system.check_source(source)
    cuts = [(frozenset(cut), p_cut) for cut, p_cut in _subsets(
        [(x, c) for x in system.sites for c in system.cells()], system.q_cut)]
    copies = []
    for bc, ghosted, sources in ((system.bc1, False, sources1), (system.bc2, True, sources2)):
        copies.append([])
        for bridges, ghost_list, ghosts, tau, p in _iter_copy(system, bc, ghosted):
            lab = _labelling(system, _switch_parities(system, bridges, ghost_list, sources),
                             bc, tau)
            if lab is not None:
                copies[-1].append((bridges, ghosts, lab, _weight(system, lab), p))
    return [discrete.DiscreteCoupled(bridges1, bridges2, ghosts, cut, lab1, lab2,
                                     w1 * w2, p1 * p2 * p_cut)
            for bridges1, _, lab1, w1, p1 in copies[0]
            for bridges2, ghosts, lab2, w2, p2 in copies[1]
            for cut, p_cut in cuts]


# -- nested-loop reference for the switching sides ------------------------------
#
# Every (copy 1, copy 2) state pair with both labellings, and a fresh
# connectivity per cut set and latent-slot set: slow, but a direct transcription
# of the two expectations.

def _reference_switching_sides(system, source_a, source_b):
    src_pair = (source_a, source_b)
    lhs = 0.0
    rhs = 0.0
    for bridges1, _, _, tau, p1 in _iter_copy(system, system.bc1, False):
        par1_src = _switch_parities(system, bridges1, (), src_pair)
        lab1_src = _labelling(system, par1_src, system.bc1, tau)
        par1_emp = _switch_parities(system, bridges1, (), ())
        lab1_emp = _labelling(system, par1_emp, system.bc1, tau)
        if lab1_src is None and lab1_emp is None:
            continue
        for bridges2, ghost_list, _, tau2, p2 in _iter_copy(
                system, system.bc2, True):
            par2_emp = _switch_parities(system, bridges2, ghost_list, ())
            lab2_emp = _labelling(system, par2_emp, system.bc2, tau2)
            par2_src = _switch_parities(system, bridges2, ghost_list, src_pair)
            lab2_src = _labelling(system, par2_src, system.bc2, tau2)
            base = p1 * p2
            if lab1_src is not None and lab2_emp is not None:
                lhs += (base * _weight(system, lab1_src)
                        * _weight(system, lab2_emp))
            if lab1_emp is not None and lab2_src is not None:
                w = _weight(system, lab1_emp) * _weight(system, lab2_src)
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


@given(_small_switching_systems())
@example((small_system(n_slots=2, p_bridge=0.066, w_even=1.495, ghost_multiplicity={"a": 2},
                       p_ghost=0.258), ("a", 0), ("b", 1)))
@example((DiscreteSystem(sites=("a", "b"), edges=(("a", "b"),), n_slots=3,
                         topology="interval", bc1="f", bc2="w", p_bridge=0.3, w_even=1.25,
                         ghost_multiplicity={"a": 1, "b": 2}, p_ghost=0.35),
          ("a", 1), ("b", 2)))
@settings(max_examples=60)
def test_bitmask_enumeration_matches_per_state_walk(drawn):
    """Every float of the state-table enumeration equals the per-state walk's,
    two ghost copies on one site included (the first example's rhs moves by
    7e-17 when a group of states is summed with ``sum``); ``enumerate_coupled``
    is compared whole, order included, on the systems of at most 6 cells."""
    system, source_a, source_b = drawn
    assert (switching_sides(system, source_a, source_b)
            == _walk_switching_sides(system, source_a, source_b))
    if len(system.sites) * system.n_slots <= 6:
        pair = (source_a, source_b)
        for sources in ((pair, ()), ((), pair)):
            assert enumerate_coupled(system, *sources) == _walk_enumerate_coupled(system, *sources)
