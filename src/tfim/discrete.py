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

The enumeration runs on integer bitmasks: a copy state is (bridge mask, ghost
mask, tau bits), and one table lookup per site gives its consistency and
even cells.  Every sum is ``math.fsum``, which is correctly rounded, so the
order states are visited in moves no bit of any result.  The per-state walk
over frozensets that this replaces is kept in the tests as the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .randomparity import _UnionFind

# copy states weighed at a time (whole bridge masks), and state pairs keyed
# at a time on the right side of the switching identity
STATE_BLOCK = 1 << 14
PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class DiscreteSystem:
    """A tiny site graph with m cells per line.

    ``topology`` is "interval" (boundaries 0..m, switching only at interior
    boundaries, anchored time ends) or "circle" (boundaries 0..m-1 with
    wrap-around, time-zero parities tau).  ``bc1``/``bc2`` are the time rules
    of the plain and the ghosted labelling ("f"/"w" on an interval, "p" on a
    circle).  ``ghost_multiplicity`` maps sites to the number of exterior
    neighbours (0 for none).  Construction raises ``ValueError`` on a system
    outside these rules, with probabilities that are not probabilities, or
    with more than 62 cells and bridge slots together.
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
        # a cell mask and a bridge mask share one int64 key
        n_bits = len(self.sites) * self.n_slots + len(self.bridge_slots())
        if n_bits > 62:
            raise ValueError(f"need at most 62 cells and bridge slots together, got {n_bits}")

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


def _connected(system: DiscreteSystem, bridges_union, blocked, start, end) -> bool:
    """Open-path connectivity, without ghost jumps, between two (site,
    boundary) nodes; a cut in an even-even cell (``blocked``) stops its line."""
    m = system.n_slots
    n_b = m + 1 if system.topology == "interval" else m
    # node (x, b) is base[x] + b
    base = {x: i * n_b for i, x in enumerate(system.sites)}
    uf = _UnionFind(len(system.sites) * n_b)
    for x, i in base.items():
        for c in range(m):
            if (x, c) not in blocked:
                uf.union(i + c, i + (c + 1) % n_b)
    for ((x, y), b) in bridges_union:
        uf.union(base[x] + b, base[y] + b)
    return uf.find(base[start[0]] + start[1]) == uf.find(base[end[0]] + end[1])


def _subset_probs(n: int, p: float) -> list:
    """p^k (1-p)^(n-k) for k = 0..n: the probability of one given subset of
    size k of n independent p-slots."""
    return [(p**k) * ((1.0 - p) ** (n - k)) for k in range(n + 1)]


def _slot_states(toggles: list, p: float):
    """Every subset of independent p-slots, in the order of
    ``itertools.combinations`` by size: its bitmask, the XOR of its slots'
    parity ``toggles`` and its probability (int64, int64 and float64 arrays)."""
    par = np.zeros(1 << len(toggles), dtype=np.int64)
    for i, toggle in enumerate(toggles):
        par[1 << i:2 << i] = par[:1 << i] ^ toggle
    listed = [(sum(1 << i for i in chosen), k) for k in range(len(toggles) + 1)
              for chosen in itertools.combinations(range(len(toggles)), k)]
    probs = _subset_probs(len(toggles), p)
    masks = np.array([mask for mask, _ in listed], dtype=np.int64)
    return masks, par[masks], np.array([probs[k] for _, k in listed])


def _ghost_slots(system: DiscreteSystem, ghosted: bool) -> list:
    """(site, boundary) of every ghost slot of a copy, one per exterior
    neighbour: two copies on one boundary toggle it twice."""
    return [(x, b) for x in system.sites if ghosted
            for _ in range(system.ghost_multiplicity.get(x, 0))
            for b in system.interior_boundaries]


def _site_table(system: DiscreteSystem):
    """Consistency and even-cell bits of one site line, indexed by
    start << m | parity bits (bit b: the line switches at boundary b; the
    start is 1 when the first cell is even)."""
    m = system.n_slots
    # a circle counts every boundary, an interval its interior ones
    counted = (1 << m) - (1 if system.topology == "circle" else 2)
    consistent, even = [], []
    for start in (0, 1):
        for par in range(1 << m):
            consistent.append((par & counted).bit_count() % 2 == 0)
            current, bits = start, 0
            for c in range(m):
                if c > 0 and par >> c & 1:
                    current ^= 1
                bits |= current << c
            even.append(bits)
    return np.array(consistent), np.array(even, dtype=np.int64)


def _consistent_states(system: DiscreteSystem, bc: str, ghosted: bool, sources):
    """Yield the copy states whose labelling with ``sources`` is consistent,
    as arrays of bridge masks, ghost masks, even-cell masks, probabilities p
    and weights w_even^(even cells), a block of bridge masks at a time.

    A state is (bridge mask, ghost mask, tau bits); states are listed bridge
    set first, then ghost set, then tau, with the sets in the order of
    ``_slot_states``.  Site i's boundary b is parity bit i*m + b and its cell
    c is cell bit i*m + c; bridge slot j (``bridge_slots()`` order) is bit j of a
    bridge mask.  A block holds whole bridge masks, so working memory grows
    with the ghost and tau states of one bridge mask at most.
    """
    m = system.n_slots
    n = len(system.sites)
    index = {x: i for i, x in enumerate(system.sites)}

    def bit(x, b):
        return 1 << (index[x] * m + b)

    bridges, bridge_par, p_bridges = _slot_states(
        [bit(x, b) ^ bit(y, b) for (x, y), b in system.bridge_slots()], system.p_bridge)
    ghosts, ghost_par, p_ghosts = _slot_states(
        [bit(x, b) for x, b in _ghost_slots(system, ghosted)], system.p_ghost)
    for x, b in sources:
        # a source toggles its boundary in every state, as a fixed ghost would
        ghost_par = ghost_par ^ bit(x, b)
    if bc == "p":
        # tau bits in ``itertools.product`` order; a circle starts even at tau = 0
        taus = np.arange(1 << n, dtype=np.int64)
        starts = [1 - (taus >> (n - 1 - i) & 1) for i in range(n)]
        p_tau = 0.5**n
    else:
        # an interval starts even at an "f" anchor
        starts = [np.full(1, int(bc == "f"), dtype=np.int64)] * n
        p_tau = 1.0
    consistent, even_bits = _site_table(system)
    w_pow = np.array([system.w_even**k for k in range(n * m + 1)])
    low = (1 << m) - 1
    shape = (len(ghosts), len(starts[0]))
    block = max(1, STATE_BLOCK // (shape[0] * shape[1]))
    for lo in range(0, len(bridges), block):
        rows = slice(lo, lo + block)
        par = bridge_par[rows, None, None] ^ ghost_par[None, :, None]
        ok = np.ones((len(bridges[rows]), *shape), dtype=bool)
        even = np.zeros(ok.shape, dtype=np.int64)
        for i in range(n):
            entry = par >> (i * m) & low | starts[i] << m
            ok &= consistent[entry]
            even |= even_bits[entry] << (i * m)
        p = p_bridges[rows, None, None] * p_ghosts[None, :, None] * p_tau
        yield (np.broadcast_to(bridges[rows, None, None], ok.shape)[ok],
               np.broadcast_to(ghosts[None, :, None], ok.shape)[ok], even[ok],
               np.broadcast_to(p, ok.shape)[ok], w_pow[np.bitwise_count(even[ok])])


def _groups(system: DiscreteSystem, bc: str, ghosted: bool, sources):
    """The sums of p * w of one copy's consistent states per (bridge mask,
    even-cell mask): three arrays, the sums compensated (``math.fsum``)."""
    keys, sums = [], []
    for bridges, _, even, p, w in _consistent_states(system, bc, ghosted, sources):
        order = np.lexsort((even, bridges))
        bridges, even, pw = bridges[order], even[order], (p * w)[order].tolist()
        first = np.flatnonzero(np.diff(bridges, prepend=-1) | np.diff(even, prepend=-1))
        keys.append((bridges[first], even[first]))
        ends = [*first[1:].tolist(), len(pw)]
        sums += [math.fsum(pw[a:b]) for a, b in zip(first.tolist(), ends)]
    return (np.concatenate([b for b, _ in keys]), np.concatenate([e for _, e in keys]),
            np.array(sums))


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative int64 ``keys``, sorted: what
    ``np.unique`` gives, without the 1 MB of ``numpy.ma`` it imports."""
    keys = np.sort(keys, axis=None)
    return keys[np.diff(keys, prepend=-1) != 0]


def switching_sides(system: DiscreteSystem, source_a, source_b) -> tuple[float, float]:
    """Exactly enumerated switching-identity sides for the source pair.

    Left: E[w(first labelling with both sources) * w(ghosted labelling, no
    sources)].  Right: E[w(first, no sources) * w(ghosted, both sources) *
    1{sources connected avoiding ghost jumps}].  The cut probability is tied
    to the even-cell weight via q = 1 - w_even^{-2}.

    The copies are independent, so the left side is the product of the two
    per-copy sums, and the right side runs over pairs of per-copy states
    grouped by (bridge mask, even-cell mask), with one connection probability
    per distinct (even-even mask, bridge-union mask).  Every sum is
    ``math.fsum``, which is correctly rounded, so no side depends on the
    order its terms are listed in.
    """
    system.check_source(source_a)
    system.check_source(source_b)
    src_pair = (source_a, source_b)
    lhs = [math.fsum(itertools.chain.from_iterable(
        (p * w).tolist() for *_, p, w in _consistent_states(system, bc, ghosted, sources)))
        for bc, ghosted, sources in ((system.bc1, False, src_pair), (system.bc2, True, ()))]
    bridges1, even1, pw1 = _groups(system, system.bc1, False, ())
    bridges2, even2, pw2 = _groups(system, system.bc2, True, src_pair)
    n_slots = len(system.bridge_slots())
    block = max(1, PAIR_BLOCK // max(1, len(pw2)))
    blocks = [slice(lo, lo + block) for lo in range(0, len(pw1), block)]

    def keys(rows):
        return (even1[rows, None] & even2) << n_slots | bridges1[rows, None] | bridges2

    distinct = _sorted_distinct(np.concatenate(
        [np.zeros(0, dtype=np.int64), *(_sorted_distinct(keys(rows)) for rows in blocks)]))
    probs = np.array(_connection_probabilities(
        system, [(key >> n_slots, key & ((1 << n_slots) - 1)) for key in distinct.tolist()],
        source_a, source_b))
    rhs = math.fsum(itertools.chain.from_iterable(
        (pw1[rows, None] * pw2 * probs[np.searchsorted(distinct, keys(rows))]).ravel().tolist()
        for rows in blocks))
    return lhs[0] * lhs[1], rhs


def _connection_probabilities(system: DiscreteSystem, keys: list, start, end) -> list:
    """P(start <-> end avoiding ghost edges | labellings and processes) per
    (even-even cell mask, bridge-union mask).

    Conditionally on the label parities, an even-even cell is traversable
    with probability 1 - q_cut (no cut), and a slot carrying no bridge in
    either copy is traversable with the latent doubled-bridge probability
    (p/(1-p))^2, the discrete remnant of coincident bridges.  These latent
    events vanish in the continuum limit but are needed for the identity to
    be exact at a finite slot count.  A probability is the ``math.fsum`` of
    p_cut(k) * p_latent(j) over the connecting (cut, latent set) pairs, k and
    j their sizes; the cuts are the submasks of the even-even mask.

    The pair counts per (k, j) are summed as fields of one integer, ``width``
    bits each, field k * (slots + 1) + j; how many latent sets of each size
    connect is memoised per (cut, bridge union), and ``_connected`` is asked
    once per distinct (cut cells, bridges) of the call.
    """
    cells = [(x, c) for x in system.sites for c in system.cells()]
    slots = system.bridge_slots()
    p = system.p_bridge
    p_cut = [_subset_probs(n, system.q_cut) for n in range(len(cells) + 1)]
    p_latent = [_subset_probs(n, (p / (1.0 - p)) ** 2) for n in range(len(slots) + 1)]
    all_slots = (1 << len(slots)) - 1
    # a field counts at most 2^cells * 2^slots pairs
    width = len(cells) + len(slots) + 1
    row = width * (len(slots) + 1)
    field = (1 << width) - 1
    connected = {}
    tallies = {}

    def tally(cut, union):
        """Connecting latent sets per size j, as fields j of one integer."""
        free = all_slots & ~union
        p_lat = p_latent[free.bit_count()]
        fields = 0
        extra = free
        while True:
            j = extra.bit_count()
            if p_lat[j] != 0.0:
                key = (cut, union | extra)
                if key not in connected:
                    connected[key] = _connected(
                        system, frozenset(s for i, s in enumerate(slots) if key[1] >> i & 1),
                        frozenset(c for i, c in enumerate(cells) if cut >> i & 1), start, end)
                fields += connected[key] << (width * j)
            if extra == 0:
                return fields
            extra = (extra - 1) & free

    probs = []
    for even_even, union in keys:
        p_cuts = p_cut[even_even.bit_count()]
        p_lat = p_latent[(all_slots & ~union).bit_count()]
        shifted = tallies.setdefault(union, {})
        fields = 0
        cut = even_even
        while True:
            if p_cuts[cut.bit_count()] != 0.0:
                if cut not in shifted:
                    shifted[cut] = tally(cut, union) << (row * cut.bit_count())
                fields += shifted[cut]
            if cut == 0:
                break
            cut = (cut - 1) & even_even
        terms = []
        for k, p_k in enumerate(p_cuts):
            for j, p_j in enumerate(p_lat):
                n_pairs = fields >> (row * k + width * j) & field
                if n_pairs:
                    terms.append(itertools.repeat(p_k * p_j, n_pairs))
        probs.append(math.fsum(itertools.chain.from_iterable(terms)))
    return probs


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
    """All coupled configurations with nonzero labelling weights: copy-1
    states, then copy-2 states, then cut sets, each in listing order."""
    for source in (*sources1, *sources2):
        system.check_source(source)
    cells = [(x, c) for x in system.sites for c in system.cells()]
    p_cut = _subset_probs(len(cells), system.q_cut)
    cuts = [(frozenset(cut), p_cut[k]) for k in range(len(cells) + 1)
            for cut in itertools.combinations(cells, k)]
    slots = system.bridge_slots()
    m = system.n_slots
    copies = []
    for bc, ghosted, sources in ((system.bc1, False, sources1), (system.bc2, True, sources2)):
        ghost_slots = _ghost_slots(system, ghosted)
        copies.append([])
        for block in _consistent_states(system, bc, ghosted, sources):
            for bridges, ghosts, even, p, w in zip(*(a.tolist() for a in block)):
                labels = {x: [bool(even >> (i * m + c) & 1) for c in range(m)]
                          for i, x in enumerate(system.sites)}
                copies[-1].append((
                    frozenset(s for j, s in enumerate(slots) if bridges >> j & 1),
                    frozenset(g for j, g in enumerate(ghost_slots) if ghosts >> j & 1),
                    labels, w, p))
    return [DiscreteCoupled(bridges1, bridges2, ghosts, cut, lab1, lab2, w1 * w2,
                            p1 * p2 * p_cut)
            for bridges1, _, lab1, w1, p1 in copies[0]
            for bridges2, ghosts, lab2, w2, p2 in copies[1]
            for cut, p_cut in cuts]

