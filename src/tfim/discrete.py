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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .randomparity import _UnionFind


@dataclass(frozen=True)
class DiscreteSystem:
    """A tiny site graph with m cells per line.

    ``topology`` is "interval" (boundaries 0..m, switching only at interior
    boundaries, anchored time ends) or "circle" (boundaries 0..m-1 with
    wrap-around, time-zero parities tau).  ``bc1``/``bc2`` are the time rules
    of the plain and the ghosted labelling ("f"/"w"/"p"; circle requires "p"
    on both).  ``ghost_multiplicity`` maps sites to the number of exterior
    neighbours (0 for none).
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

    @property
    def q_cut(self) -> float:
        return 1.0 - 1.0 / (self.w_even * self.w_even)

    @property
    def interior_boundaries(self) -> range:
        return range(1, self.n_slots) if self.topology == "interval" else range(self.n_slots)

    def cells(self) -> range:
        return range(self.n_slots)


def _bernoulli_weight(chosen: int, total: int, p: float) -> float:
    return (p**chosen) * ((1.0 - p) ** (total - chosen))


def _labelling(system: DiscreteSystem, switch_parity: dict, bc: str, tau: dict | None):
    """Cell labels (True = even) per site, or None when inconsistent."""
    labels = {}
    m = system.n_slots
    for x in system.sites:
        par = switch_parity.get(x, [0] * (m + 1))
        if system.topology == "interval":
            if sum(par[1:m]) % 2 != 0:
                return None
            anchor = bc == "f"  # even cells start at an even anchor
            lab = []
            current = anchor
            for c in range(m):
                if c > 0 and par[c] % 2 == 1:
                    current = not current
                lab.append(current)
            labels[x] = lab
        else:
            if sum(par[b] for b in range(m)) % 2 != 0:
                return None
            current = tau[x] == 0
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


def _connected(system: DiscreteSystem, labels1, labels2, bridges_union, ghosts,
               cut_cells, start, end, use_ghost_jumps: bool) -> bool:
    """Open-path connectivity between two (site, boundary) nodes."""
    m = system.n_slots
    n_b = m + 1 if system.topology == "interval" else m
    index = {(x, b): i * n_b + b for i, x in enumerate(system.sites) for b in range(n_b)}
    hub = len(system.sites) * n_b
    uf = _UnionFind(hub + 1)

    for i, x in enumerate(system.sites):
        for c in system.cells():
            blocked = ((x, c) in cut_cells) and labels1[x][c] and labels2[x][c]
            if not blocked:
                b2 = (c + 1) % n_b if system.topology == "circle" else c + 1
                uf.union(index[(x, c)], index[(x, b2)])
    for ((x, y), b) in bridges_union:
        uf.union(index[(x, b)], index[(y, b)])
    if use_ghost_jumps:
        for (x, b) in ghosts:
            uf.union(index[(x, b)], hub)
        if system.topology == "interval" and system.bc2 == "w":
            for x in system.sites:
                uf.union(index[(x, 0)], hub)
                uf.union(index[(x, m)], hub)
    if end == "ghost":
        ghost_nodes = [index[g] for g in ghosts]
        if system.topology == "interval" and system.bc2 == "w":
            ghost_nodes += [index[(x, 0)] for x in system.sites]
            ghost_nodes += [index[(x, m)] for x in system.sites]
        root = uf.find(index[start])
        return any(uf.find(g) == root for g in ghost_nodes)
    return uf.find(index[start]) == uf.find(index[end])


def _iter_processes(system: DiscreteSystem):
    """Yield (bridges, prob) over all bridge assignments of one copy."""
    slots = [((x, y), b) for (x, y) in system.edges for b in system.interior_boundaries]
    for chosen in itertools.chain.from_iterable(
            itertools.combinations(slots, k) for k in range(len(slots) + 1)):
        yield frozenset(chosen), _bernoulli_weight(len(chosen), len(slots), system.p_bridge)


def _iter_ghosts(system: DiscreteSystem):
    slots = []
    for x in system.sites:
        mult = system.ghost_multiplicity.get(x, 0)
        for copy in range(mult):
            for b in system.interior_boundaries:
                slots.append((x, b, copy))
    for chosen in itertools.chain.from_iterable(
            itertools.combinations(slots, k) for k in range(len(slots) + 1)):
        ghosts = frozenset((x, b) for (x, b, _) in chosen)
        # distinct copies landing on one boundary toggle twice; keep multiset
        yield tuple((x, b) for (x, b, _) in chosen), ghosts, \
            _bernoulli_weight(len(chosen), len(slots), system.p_ghost)


def _iter_taus(system: DiscreteSystem, needed: bool):
    if not needed:
        yield None, 1.0
        return
    for bits in itertools.product((0, 1), repeat=len(system.sites)):
        yield dict(zip(system.sites, bits)), 0.5 ** len(system.sites)


def switching_sides(system: DiscreteSystem, source_a, source_b) -> tuple[float, float]:
    """Exactly enumerated switching-identity sides for the source pair.

    Left: E[w(first labelling with both sources) * w(ghosted labelling, no
    sources)].  Right: E[w(first, no sources) * w(ghosted, both sources) *
    1{sources connected avoiding ghost jumps}].  The cut probability is tied
    to the even-cell weight via q = 1 - w_even^{-2}.
    """
    sources = ((source_a,), (source_b,))
    src_pair = (source_a, source_b)
    q = system.q_cut
    lhs = 0.0
    rhs = 0.0
    tau_needed = system.bc1 == "p"
    for bridges1, p1 in _iter_processes(system):
        for tau, pt in _iter_taus(system, tau_needed):
            par1_src = _switch_parities(system, bridges1, (), src_pair)
            lab1_src = _labelling(system, par1_src, system.bc1, tau)
            par1_emp = _switch_parities(system, bridges1, (), ())
            lab1_emp = _labelling(system, par1_emp, system.bc1, tau)
            if lab1_src is None and lab1_emp is None:
                continue
            for bridges2, p2 in _iter_processes(system):
                for ghost_list, ghosts, pg in _iter_ghosts(system):
                    for tau2, pt2 in _iter_taus(system, system.bc2 == "p"):
                        par2_emp = _switch_parities(system, bridges2, ghost_list, ())
                        lab2_emp = _labelling(system, par2_emp, system.bc2, tau2)
                        par2_src = _switch_parities(system, bridges2, ghost_list, src_pair)
                        lab2_src = _labelling(system, par2_src, system.bc2, tau2)
                        base = p1 * pt * p2 * pg * pt2
                        if lab1_src is not None and lab2_emp is not None:
                            lhs += base * _weight(system, lab1_src) * _weight(system, lab2_emp)
                        if lab1_emp is not None and lab2_src is not None:
                            w = _weight(system, lab1_emp) * _weight(system, lab2_src)
                            union = set(bridges1) | set(bridges2)
                            prob_conn = _connection_probability(
                                system, lab1_emp, lab2_src, union, ghosts,
                                source_a, source_b)
                            rhs += base * w * prob_conn
    return lhs, rhs


def _connection_probability(system: DiscreteSystem, labels1, labels2,
                            bridges_union, ghosts, start, end) -> float:
    """P(start <-> end avoiding ghost edges | labellings and processes).

    Conditionally on the label parities, an even-even cell is traversable
    with probability 1 - q_cut (no cut), and a slot carrying no bridge in
    either copy is traversable with the latent doubled-bridge probability
    (p/(1-p))^2, the discrete remnant of coincident bridges.  These latent
    events vanish in the continuum limit but are needed for the identity to
    be exact at a finite slot count.
    """
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
            if _connected(system, labels1, labels2, list(bridges_union) + extra,
                          ghosts, cut, start, end, use_ghost_jumps=False):
                prob += p_cut * p_lat
    return prob


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
    q = system.q_cut
    cells = [(x, c) for x in system.sites for c in system.cells()]
    out = []
    for bridges1, p1 in _iter_processes(system):
        for tau, pt in _iter_taus(system, system.bc1 == "p"):
            lab1 = _labelling(system, _switch_parities(system, bridges1, (), tuple(sources1)),
                              system.bc1, tau)
            if lab1 is None:
                continue
            w1 = _weight(system, lab1)
            for bridges2, p2 in _iter_processes(system):
                for ghost_list, ghosts, pg in _iter_ghosts(system):
                    for tau2, pt2 in _iter_taus(system, system.bc2 == "p"):
                        lab2 = _labelling(
                            system,
                            _switch_parities(system, bridges2, ghost_list, tuple(sources2)),
                            system.bc2, tau2)
                        if lab2 is None:
                            continue
                        w2 = _weight(system, lab2)
                        base = p1 * pt * p2 * pg * pt2
                        for k in range(len(cells) + 1):
                            for cut in itertools.combinations(cells, k):
                                out.append(DiscreteCoupled(
                                    bridges1, bridges2, ghosts, frozenset(cut),
                                    lab1, lab2, w1 * w2,
                                    base * _bernoulli_weight(k, len(cells), q)))
    return out


def coupled_probability(system: DiscreteSystem, event: Callable[[DiscreteCoupled], bool],
                        configs=None) -> float:
    """Probability of an event under the weight-tilted coupled measure."""
    configs = enumerate_coupled(system) if configs is None else configs
    num = sum(c.prob * c.weight for c in configs if event(c))
    den = sum(c.prob * c.weight for c in configs)
    return num / den


def coupled_connected(system: DiscreteSystem, config: DiscreteCoupled,
                      start, end, mode: str = "plain") -> bool:
    """Connectivity query on an enumerated configuration.

    ``mode`` is "plain", "off-gamma" (no ghost jumps) or "to-gamma"
    (``end`` ignored)."""
    union = list(config.bridges1) + list(config.bridges2)
    if mode == "to-gamma":
        return _connected(system, config.labels1, config.labels2, union,
                          config.ghosts, set(config.cuts), start, "ghost", True)
    return _connected(system, config.labels1, config.labels2, union,
                      config.ghosts, set(config.cuts), start, end,
                      use_ghost_jumps=(mode == "plain"))
