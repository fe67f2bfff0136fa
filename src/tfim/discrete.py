"""Exhaustive enumeration of Bernoulli-slot discretizations.

Each site line is split into cells; bridges, ghost points and sources sit at
cell boundaries and toggle the even/odd label, cuts sit inside cells.  The
weight of a labelling is w_even per even cell.  With the cut probability tied
to the weight by q = 1 - w_even^{-2}, the discretization reproduces the
continuum coupling between labelling weights and the cut process (a cell that
flips from even-even to odd-odd trades a w_even^2 weight factor for the
freedom of carrying a cut), and the switching identity holds exactly at any
slot count.  Enumeration is over every assignment of bridges, ghosts, cuts
and time-zero parities, so expectations are exact up to float rounding.
Connectivity is open-path connectivity without ghost jumps, the one the
switching identity reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .randomparity import _UnionFind


@dataclass(frozen=True)
class DiscreteSystem:
    """A tiny site graph with m cells per line.

    ``topology`` is "interval" (boundaries 0..m, switching only at interior
    boundaries, anchored time ends) or "circle" (boundaries 0..m-1 with
    wrap-around, time-zero parities tau).  ``bc1``/``bc2`` are the time rules
    of the plain and the ghosted labelling ("f"/"w" on an interval, "p" on a
    circle).  ``ghost_multiplicity`` maps sites to the number of exterior
    neighbours (0 for none).  Construction raises ``ValueError`` on a system
    outside these rules or with probabilities that are not probabilities.
    """

    sites: tuple
    edges: tuple
    n_slots: int
    topology: str
    bc1: str
    bc2: str
    p_bridge: float
    w_even: float
    ghost_multiplicity: dict = field(default_factory=dict)
    p_ghost: float = 0.0

    def __post_init__(self):
        rules = {"interval": ("f", "w"), "circle": ("p",)}.get(self.topology, ())
        if self.bc1 not in rules or self.bc2 not in rules:
            raise ValueError(f"time rules {self.bc1!r}/{self.bc2!r} do not fit the "
                             f"topology {self.topology!r} (interval: f/w, circle: p)")
        # latent slots open with (p/(1-p))^2 <= 1, and q_cut = 1 - w_even^-2 >= 0
        if not (0.0 <= self.p_bridge <= 0.5 and self.w_even >= 1.0
                and 0.0 <= self.p_ghost <= 1.0):
            raise ValueError(f"need 0 <= p_bridge <= 0.5, w_even >= 1 and 0 <= p_ghost <= 1, "
                             f"got {self.p_bridge}, {self.w_even}, {self.p_ghost}")
        ghosts = self.ghost_multiplicity
        if (self.n_slots < 1 or not set(itertools.chain(*self.edges)) <= set(self.sites)
                or any(x not in self.sites or k < 0 for x, k in ghosts.items())):
            raise ValueError("need n_slots >= 1, and edges and ghost multiplicities (>= 0) "
                             "on the given sites")

    def check_source(self, source) -> None:
        if source[0] not in self.sites or source[1] not in self.interior_boundaries:
            raise ValueError(f"source {source!r} is not a site at an interior boundary")

    @property
    def q_cut(self) -> float:
        return 1.0 - 1.0 / (self.w_even * self.w_even)

    @property
    def interior_boundaries(self) -> range:
        return range(1, self.n_slots) if self.topology == "interval" else range(self.n_slots)

    def cells(self) -> range:
        return range(self.n_slots)

    def bridge_slots(self) -> list:
        return [((x, y), b) for (x, y) in self.edges for b in self.interior_boundaries]


def _subsets(items, p: float):
    """Yield (chosen, p^|chosen| (1-p)^|rest|) over every subset of ``items``."""
    for k in range(len(items) + 1):
        for chosen in itertools.combinations(items, k):
            yield chosen, (p**k) * ((1.0 - p) ** (len(items) - k))


def _labelling(system: DiscreteSystem, switch_parity: dict, bc: str, tau: dict | None):
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


def _weight(system: DiscreteSystem, labels) -> float:
    n_even = sum(sum(lab) for lab in labels.values())
    return system.w_even**n_even


def _switch_parities(system: DiscreteSystem, bridges, ghosts, sources):
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


def _connected(system: DiscreteSystem, bridges_union, blocked, start, end) -> bool:
    """Open-path connectivity, without ghost jumps, between two (site,
    boundary) nodes; a cut in an even-even cell (``blocked``) stops its line."""
    m = system.n_slots
    n_b = m + 1 if system.topology == "interval" else m
    index = {(x, b): i * n_b + b for i, x in enumerate(system.sites) for b in range(n_b)}
    uf = _UnionFind(len(system.sites) * n_b)
    for x in system.sites:
        for c in system.cells():
            if (x, c) not in blocked:
                uf.union(index[(x, c)], index[(x, (c + 1) % n_b)])
    for ((x, y), b) in bridges_union:
        uf.union(index[(x, b)], index[(y, b)])
    return uf.find(index[start]) == uf.find(index[end])


def _iter_copy(system: DiscreteSystem, bc: str, ghosted: bool):
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


def _copy_states(system: DiscreteSystem, bc: str, ghosted: bool, lhs_sources, rhs_sources):
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


def switching_sides(system: DiscreteSystem, source_a, source_b) -> tuple[float, float]:
    """Exactly enumerated switching-identity sides for the source pair.

    Left: E[w(first labelling with both sources) * w(ghosted labelling, no
    sources)].  Right: E[w(first, no sources) * w(ghosted, both sources) *
    1{sources connected avoiding ghost jumps}].  The cut probability is tied
    to the even-cell weight via q = 1 - w_even^{-2}.

    The copies are independent, so the left side is the product of the two
    per-copy sums, and the right side runs over pairs of per-copy states
    aggregated by (bridges, even cells).  Connection probabilities are
    memoised per call on (even-even cells, bridge union), and connectivity on
    (cut cells, bridges with latent slots).
    """
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


def _connection_probability(system: DiscreteSystem, even_even: frozenset,
                            bridges_union: frozenset, start, end, connected: dict) -> float:
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
                connected[key] = _connected(system, bridges, cut, start, end)
            if connected[key]:
                terms.append(p_cut * p_lat)
    return math.fsum(terms)


@dataclass
class DiscreteCoupled:
    """One fully enumerated coupled configuration with its probability."""

    bridges1: frozenset
    bridges2: frozenset
    ghosts: frozenset
    cuts: frozenset
    labels1: dict
    labels2: dict
    weight: float
    prob: float


def enumerate_coupled(system: DiscreteSystem, sources1=(), sources2=()):
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
    return [DiscreteCoupled(bridges1, bridges2, ghosts, cut, lab1, lab2, w1 * w2,
                            p1 * p2 * p_cut)
            for bridges1, _, lab1, w1, p1 in copies[0]
            for bridges2, ghosts, lab2, w2, p2 in copies[1]
            for cut, p_cut in cuts]


def coupled_probability(system: DiscreteSystem, event: Callable[[DiscreteCoupled], bool],
                        configs=None) -> float:
    """Probability of an event under the weight-tilted coupled measure."""
    configs = enumerate_coupled(system) if configs is None else configs
    num = sum(c.prob * c.weight for c in configs if event(c))
    den = sum(c.prob * c.weight for c in configs)
    return num / den
