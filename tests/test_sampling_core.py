"""Differential tests of the sampling core.

Each draw or walk is compared, on the same random stream, with a reference
written out here: the implementation it replaced, or a brute-force walk.
Equality is exact unless a test says otherwise.
"""

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tfim import poisson
from tfim import randomparity as rp
from tfim import spinrep as sr
from tfim.geometry import Box, EdgeSet, Holes, SpaceTimeRegion, edge_windows, line_components
from tfim.rng import chain_generator
from tfim.stats import mean_estimate

from overlap_reference import ref_log_weight, ref_overlap as _ref_overlap

REGIONS = [
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.5, "w", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "w"),
    SpaceTimeRegion.ground_state(Box(1, 1), "w", "f"),
    SpaceTimeRegion.finite_beta(Box(2, 1), 0.7, "w", "p"),
]


def _ref_times(lo, hi, rate, rng):
    n = rng.poisson(rate * (hi - lo))
    return np.sort(rng.uniform(lo, hi, size=n)).tolist()


def _in_step(rng, ref) -> bool:
    """Both streams have consumed the same number of draws."""
    return np.array_equal(rng.integers(2**62, size=4), ref.integers(2**62, size=4))


# -- the Poisson time draw ----------------------------------------------------------

def test_poisson_sample_matches_reference():
    carrier = poisson.Carrier(-1.0, 2.0)
    rng, ref = chain_generator(3, 0), chain_generator(3, 0)
    for i in range(300):
        rate = (0.3, 0.0, 2.0, 0.05)[i % 4]
        got = poisson.sample_constant(carrier, rate, rng)
        count = ref.poisson(rate * 3.0)
        times = sorted(ref.uniform(-1.0, 2.0, size=count)) if count else []
        assert got.points == tuple(times)
    assert _in_step(rng, ref)


def _is_sorted_uniform_draw(got, lo, hi, rate, ref) -> bool:
    """``got`` is the sorted rng.uniform draw of ``ref``, as a float list."""
    want = np.sort(ref.uniform(lo, hi, size=ref.poisson(rate * (hi - lo))))
    return got == want.tolist() and all(type(t) is float for t in got)


def test_draw_times_matches_sorted_uniform_draw():
    # the times are lo + (hi - lo) * u, as rng.uniform forms them; a count
    # of 0 (rate 0, or a small rate on a short interval) draws no uniforms,
    # a count of 1 one scalar double, and a mean count of 10 or more takes
    # numpy's other Poisson algorithm
    rng, ref = chain_generator(3, 1), chain_generator(3, 1)
    cases = [(-1.0, 2.0, 1.3), (0.0, 0.7, 0.0), (-0.25, 0.25, 0.05), (-4.0, 4.0, 2.5),
             (0.1, 0.3, 0.4), (0.0, 1.0, 1.0), (-0.5, 1.5, 6.0)]
    counts = []
    for i in range(840):
        lo, hi, rate = cases[i % len(cases)]
        got = poisson.draw_times(lo, hi, rate, rng)
        assert _is_sorted_uniform_draw(got, lo, hi, rate, ref)
        counts.append(len(got))
    assert counts.count(0) > 200 and counts.count(1) > 50
    assert sum(k >= 10 for k in counts) > 150
    assert _in_step(rng, ref)


@given(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.floats(0.0, 8.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_draw_times_is_the_sorted_uniform_draw(lo, width, rate, seed):
    hi = lo + width
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _is_sorted_uniform_draw(poisson.draw_times(lo, hi, rate, rng), lo, hi, rate, ref)
    assert _in_step(rng, ref)


@pytest.mark.parametrize("region", REGIONS, ids=str)
def test_apriori_draw_matches_reference(region):
    rng, ref = chain_generator(5, 1), chain_generator(5, 1)
    delta = 1.3
    for _ in range(100):
        got = sr.sample_apriori(region, delta, rng)
        for x in region.box.sites():
            while True:
                times = _ref_times(region.t_min, region.t_max, delta, ref)
                if region.bc_time == "f" or len(times) % 2 == 0:
                    break
            if region.bc_time == "w":
                init = 1 if bisect.bisect_right(times, 0.0) % 2 == 0 else -1
            else:
                init = 1 if ref.random() < 0.5 else -1
            assert got.flips[x] == times
            assert got.initial[x] == init
    assert _in_step(rng, ref)


@pytest.mark.parametrize("region", REGIONS, ids=str)
def test_coupled_draw_matches_reference(region):
    rng, ref = chain_generator(7, 2), chain_generator(7, 2)
    lam, delta = 0.9, 0.6
    box = region.box
    lo, hi = region.t_min, region.t_max
    edges = list(EdgeSet.free(box).edges)
    sources = (((0,) * box.d, 0.1), ((1,) + (0,) * (box.d - 1), -0.2))
    bc1, bc2 = rp.coupled_bc_pair(region)
    for i in range(60):
        s1, s2 = (sources, ()) if i % 2 else ((), sources)
        got = rp.sample_coupled(region, lam, delta, s1, s2, rng)
        b1 = {e: _ref_times(lo, hi, lam, ref) for e in edges}
        b2 = {e: _ref_times(lo, hi, lam, ref) for e in edges}
        ghosts = {x: _ref_times(lo, hi, rate, ref) for x, rate in rp.ghost_rates(box, lam).items()}
        cuts = {x: _ref_times(lo, hi, 4.0 * delta, ref) for x in box.sites()}
        tau1 = {x: int(ref.integers(2)) for x in box.sites()} if bc1 == "p" else None
        tau2 = {x: int(ref.integers(2)) for x in box.sites()} if bc2 == "p" else None
        assert got.bridges1 == b1 and got.bridges2 == b2
        assert got.ghosts == ghosts and got.cuts == cuts
        lab1 = rp.build_labelling(region, b1, None, s1, bc1, tau1)
        lab2 = rp.build_labelling(region, b2, ghosts, s2, bc2, tau2)
        assert got.labelling1.first_even == lab1.first_even
        assert got.labelling2.first_even == lab2.first_even
        assert got.weight == lab1.weight_normalized(delta) * lab2.weight_normalized(delta)
    assert _in_step(rng, ref)


# -- the labelling draw --------------------------------------------------------------

@pytest.mark.parametrize("region", REGIONS, ids=str)
def test_labelling_weights_match_reference(region):
    rng, ref = chain_generator(11, 3), chain_generator(11, 3)
    lam, delta = 1.1, 0.8
    box = region.box
    sources = [((0,) * box.d, 0.0), ((1,) + (0,) * (box.d - 1), 0.2)]
    for srcs in (sources, ()):
        got = rp._labelling_weights(region, lam, delta, srcs, 200, rng)
        # wired space draws ghost points
        with_ghosts = region.bc_space == "w"
        rates = rp.ghost_rates(box, lam) if with_ghosts else {}
        want = np.empty(200)
        for i in range(200):
            bridges = {e: _ref_times(region.t_min, region.t_max, lam, ref)
                       for e in EdgeSet.free(box).edges}
            ghosts = {x: _ref_times(region.t_min, region.t_max, rate, ref)
                      for x, rate in rates.items()}
            tau = ({x: int(ref.integers(2)) for x in box.sites()}
                   if region.bc_time == "p" else None)
            lab = rp.build_labelling(region, bridges, ghosts if with_ghosts else None,
                                     srcs, region.bc_time, tau)
            want[i] = lab.weight_normalized(delta)
        assert np.array_equal(got, want)
    assert _in_step(rng, ref)


# -- the pool kernels against the per-object walks ---------------------------------

POOL_REGIONS = [
    SpaceTimeRegion.finite_beta(Box(2, 2), 0.6, "p", "p"),
    SpaceTimeRegion.finite_beta(Box(2, 2), 0.8, "w", "w"),
    SpaceTimeRegion.ground_state(Box(2, 2), "w", "f"),
    SpaceTimeRegion.finite_beta(Box(2, 3), 0.3, "f", "p"),
    SpaceTimeRegion.ground_state(Box(1, 3), "p", "w"),
    SpaceTimeRegion.finite_beta(Box(1, 3), 1.5, "w", "f"),
]


def _pool_sources(region):
    d = region.box.d
    return [((0,) * d, region.r / 8), ((1,) + (0,) * (d - 1), -region.r / 6)]


def _ref_spin_pool(region, lam, delta, n, rng, value_fn):
    """The per-object pool: one draw, one reference walk per edge, one value."""
    edges = region.edge_set().edges
    logs, vals = np.empty(n), np.empty(n)
    for i in range(n):
        config = sr.sample_apriori(region, delta, rng)
        logs[i] = ref_log_weight(config, lam, edges)
        vals[i] = value_fn(config)
    return logs, vals


def _ref_labellings(region, lam, sources, n, rng):
    """The per-object labelling draw: bridges on the free edges, then ghost
    points (wired space only), then the periodic anchors tau."""
    sites = region.box.sites()
    rates = rp.ghost_rates(region.box, lam) if region.bc_space == "w" else {}
    tau = None
    for _ in range(n):
        bridges, ghosts = rp.draw_switches(region, lam, rates, rng)
        if region.bc_time == "p":
            tau = {x: int(rng.integers(2)) for x in sites}
        yield rp.build_labelling(region, bridges, ghosts, sources, region.bc_time, tau)


def _ref_labelling_pool(region, lam, delta, sources, n, rng):
    return np.array([lab.weight_normalized(delta)
                     for lab in _ref_labellings(region, lam, sources, n, rng)])


def _ref_even_in(lab, x, span):
    """The closed span [a, b] of site x is labelled even: no switch lies in
    it, and the label at its midpoint (a itself when a == b) is even."""
    a, b = span
    times = lab.switches[x]
    if bisect.bisect_right(times, b) - bisect.bisect_left(times, a) > 0:
        return False
    return lab.label_is_even(x, a) if a == b else lab.label_is_even(x, (a + b) / 2.0)


def _ref_even_throughout(lab, holes):
    return all(_ref_even_in(lab, x, span) for (x, span) in holes.intervals)


def _check_spin_pool(region, lams, n, seed):
    """One pool's overlap sums times each coupling of ``lams`` are the
    per-object log-weights at that coupling."""
    points = _pool_sources(region)
    value = lambda c: c.product_over(points)  # noqa: E731
    rng = chain_generator(seed, 0)
    sums, vals = sr._overlap_sums_and_values(region, 0.9, n, rng, value)
    for lam in lams:
        ref = chain_generator(seed, 0)
        want_logs, want_vals = _ref_spin_pool(region, lam, 0.9, n, ref, value)
        assert np.array_equal(lam * sums, want_logs) and np.array_equal(vals, want_vals)
    assert _in_step(rng, ref)


def _check_labelling_pool(region, lam, n, seed):
    for sources in (_pool_sources(region), ()):
        rng, ref = chain_generator(seed, 1), chain_generator(seed, 1)
        got = rp._labelling_weights(region, lam, 0.7, sources, n, rng)
        want = _ref_labelling_pool(region, lam, 0.7, sources, n, ref)
        assert np.array_equal(got, want)
        assert _in_step(rng, ref)


@pytest.mark.parametrize("k", range(len(POOL_REGIONS)))
def test_spin_pool_matches_per_object_walk(k):
    _check_spin_pool(POOL_REGIONS[k], (0.4, 1.7), 25, 50 + k)


@pytest.mark.parametrize("lam", [0.4, 1.7])
@pytest.mark.parametrize("k", range(len(POOL_REGIONS)))
def test_labelling_pool_matches_per_object_walk(k, lam):
    _check_labelling_pool(POOL_REGIONS[k], lam, 25, 60 + k)


@pytest.mark.parametrize("bc_time", ["f", "w", "p"])
@pytest.mark.parametrize("box", [Box(1, 1), Box(1, 2), Box(2, 1)], ids=str)
def test_holes_pool_matches_per_object_walk(box, bc_time):
    # the flat even-throughout mask against the per-object walk, on the same
    # stream; the hole sets touch t_min and t_max (never even with wired
    # time, hence the third set) and hold point holes and two holes on a site
    region = SpaceTimeRegion.finite_beta(box, 0.8, "f", bc_time)
    lo, hi = region.t_min, region.t_max
    x0, x1 = (0,) * box.d, (1,) + (0,) * (box.d - 1)
    hole_sets = [Holes.of({x0: [(lo, -0.2), (0.1, 0.1)], x1: [(0.3, hi)]}),
                 Holes.of({x0: [(-0.1, 0.05)], x1: [(lo, lo), (-0.2, 0.0), (hi, hi)]}),
                 Holes.of({x0: [(-0.3, -0.1), (0.2, 0.2)], x1: [(0.0, 0.1), (0.25, 0.35)]})]
    for k, holes in enumerate(hole_sets):
        for lam in (0.3, 1.5):
            rng, ref = chain_generator(97, k), chain_generator(97, k)
            num, den = rp._labelling_weights(region, lam, 0.6, (), 150, rng, holes)
            labs = list(_ref_labellings(region, lam, (), 150, ref))
            want = np.array([lab.weight_normalized(0.6) for lab in labs])
            even = [_ref_even_throughout(lab, holes) for lab in labs]
            assert np.array_equal(den, want)
            assert np.array_equal(num, np.where(even, want, 0.0))
            assert _in_step(rng, ref)


@st.composite
def _holes_and_labellings(draw):
    """(region, holes, labellings): one to three labellings whose switches
    often sit at hole ends, at 0.0 and at the time ends."""
    region = draw(st.sampled_from(REGIONS))
    lo, hi = region.t_min, region.t_max
    sites = region.box.sites()
    points = st.floats(lo, hi)
    spans = {}
    for x in draw(st.lists(st.sampled_from(sites), max_size=3, unique=True)):
        ends = sorted(set(draw(st.lists(st.one_of(points, st.sampled_from((lo, 0.0, hi))),
                                        min_size=1, max_size=4))))
        if len(ends) % 2:
            ends.append(ends[-1])  # a point hole
        spans[x] = list(zip(ends[::2], ends[1::2]))
    holes = Holes.of(spans)
    marks = [lo, 0.0, hi, *(t for (_, span) in holes.intervals for t in span)]
    labs = []
    for _ in range(draw(st.integers(1, 3))):
        ghosts = {x: sorted(set(draw(st.lists(st.one_of(points, st.sampled_from(marks)),
                                              max_size=5))))
                  for x in sites}
        tau = ({x: draw(st.sampled_from((0, 1))) for x in sites}
               if region.bc_time == "p" else None)
        labs.append(rp.build_labelling(region, {}, ghosts, (), region.bc_time, tau))
    return region, holes, labs


@given(_holes_and_labellings())
@settings(max_examples=200, deadline=None)
def test_even_throughout_mask_matches_per_object_walk(case):
    region, holes, labs = case
    sites = region.box.sites()
    times = np.array([t for lab in labs for x in sites for t in lab.switches[x]])
    rows = np.array([i * len(sites) + k for i, lab in enumerate(labs)
                     for k, x in enumerate(sites) for _ in lab.switches[x]], dtype=np.intp)
    tau = (np.array([0 if lab.first_even[x] else 1 for lab in labs for x in sites])
           if region.bc_time == "p" else None)
    got = rp._even_throughout(region, holes, times, rows, tau, len(labs))
    assert got.tolist() == [_ref_even_throughout(lab, holes) for lab in labs]
    for (x, span) in holes.intervals:  # each hole alone is even more often
        got = rp._even_throughout(region, Holes.of({x: [span]}), times, rows, tau, len(labs))
        assert got.tolist() == [_ref_even_in(lab, x, span) for lab in labs]


@pytest.mark.parametrize("region", REGIONS[:4], ids=str)
def test_pools_spanning_blocks_match_per_object_walk(region):
    # two whole blocks and a partial third
    n = 2 * sr.POOL_BLOCK + 37
    _check_spin_pool(region, (1.1,), n, 70)
    _check_labelling_pool(region, 1.1, n, 71)


def _working_peak(run) -> int:
    """tracemalloc peak of ``run()`` less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = out if isinstance(out, tuple) else (out,)
    return peak - sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("pool", ["spin", "cut", "labelling"])
def test_pool_working_memory_does_not_grow_with_the_pool(pool):
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    points = _pool_sources(region)

    def run(n):
        rng = chain_generator(80, 0)
        if pool == "spin":
            return sr._overlap_sums_and_values(region, 1.0, n, rng,
                                               lambda c: c.product_over(points))
        if pool == "cut":
            return sr.estimate_cut_partition(region, HOLE_SETS[3], 1.0, 1.0, n, rng)
        return rp._labelling_weights(region, 1.0, 1.0, points, n, rng)

    run(50)  # first-call allocations (caches, lazy imports) stay out of the peaks
    small = _working_peak(lambda: run(2000))
    large = _working_peak(lambda: run(20000))
    assert large <= 1.5 * small, (small, large)


def test_holes_and_event_identities_pinned():
    # values recorded before the labelling draw was shared; the event lhs
    # and se_lhs re-pinned when it became the plain ratio with the paired
    # delta-method SE (no jackknife bias correction)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    holes = Holes.of({(0,): [(-0.125, 0.125)]})
    rep = rp.holes_identity_check(holes, region, 1.0, 1.0, 200, chain_generator(1, 0))
    assert (rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs) == PINNED_HOLES
    interval = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f")
    rep = rp.event_probability_identity(holes, interval, 1.0, 1.0, 200, chain_generator(2, 0))
    assert (rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs) == PINNED_EVENT


PINNED_HOLES = (0.09021944272832175, 0.1171450183470667, 0.016823238342553688,
                0.03076348292754396)
PINNED_EVENT = (0.8240872392006989, 0.8380439155130471, 0.04289640843888258,
                0.0705206441686316)

# hole sets with a hole at t_min and one at t_max, a point hole and two holes
# on one site; with wired time a hole at a time end is never even, so the
# wired set keeps off the ends
GROUND_HOLES = Holes.of({(-1,): [(-1.0, -0.6)], (0,): [(0.25, 0.25), (0.6, 1.0)],
                         (1,): [(-0.4, -0.2), (0.0, 0.5)]})
WIRED_HOLES = Holes.of({(0,): [(-0.3, -0.1), (0.4, 0.4)], (1,): [(0.2, 0.3), (0.6, 0.7)]})
RING_HOLES = Holes.of({(-1,): [(-0.5, -0.3), (0.4, 0.5)], (0,): [(0.1, 0.1)],
                       (1,): [(-0.2, 0.0)]})
SQUARE_HOLES = Holes.of({(0, 0): [(-0.25, -0.1), (0.05, 0.05)], (1, -1): [(0.2, 0.25)]})
HOLES_PIN_CASES = [
    # (kind, region, holes, lam, seed)
    ("holes", SpaceTimeRegion.ground_state(Box(1, 1), "f", "f"), GROUND_HOLES, 1.0, 90),
    ("holes", SpaceTimeRegion.ground_state(Box(1, 1), "f", "w"), WIRED_HOLES, 1.0, 91),
    ("holes", SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"), RING_HOLES, 1.0, 92),
    ("holes", SpaceTimeRegion.finite_beta(Box(2, 1), 0.5, "f", "p"), SQUARE_HOLES, 0.5, 93),
    ("event", SpaceTimeRegion.ground_state(Box(1, 1), "f", "f"), GROUND_HOLES, 1.0, 94),
    ("event", SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"), RING_HOLES, 1.0, 95),
    ("event", SpaceTimeRegion.finite_beta(Box(2, 1), 0.5, "f", "p"), SQUARE_HOLES, 0.5, 96),
]


@pytest.mark.parametrize("k", range(len(HOLES_PIN_CASES)))
def test_holes_and_event_checks_pinned_on_every_time_condition(k):
    # values recorded while the holes pools walked one labelling at a time
    kind, region, holes, lam, seed = HOLES_PIN_CASES[k]
    check = rp.holes_identity_check if kind == "holes" else rp.event_probability_identity
    rep = check(holes, region, lam, 1.0, 200, chain_generator(seed, 0))
    assert (rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs, rep.detail) == PINNED_HOLES_CHECKS[k]


PINNED_HOLES_CHECKS = [
    (0.1380808764532519, 0.18905669525000376, 0.023206579823604356, 0.07693209703446582,
     {"shadow": 1.9000000000000001, "m_p": 0, "printed_rhs": 0.028276948863337568,
      "printed_residual": 0.10980392758991434}),
    (5.306382826075484e-05, 0.000207847369569429, 3.438802969291918e-05,
     0.00011148364344836043,
     {"shadow": 0.6000000000000001, "m_p": 0, "printed_rhs": 0.00011406905495123808,
      "printed_residual": -6.100522669048324e-05}),
    (0.2768465247741201, 0.14974811446788466, 0.02950701336407275, 0.0937531130788335,
     {"shadow": 0.5, "m_p": 3, "printed_rhs": 0.011353352832366128,
      "printed_residual": 0.265493171941754}),
    (0.003926394836514739, 0.006654997307403825, 0.001420005515519054, 0.004289050029998967,
     {"shadow": 0.7, "m_p": 2, "printed_rhs": 0.0011724243349093958,
      "printed_residual": 0.0027539705016053433}),
    (0.6223846946033537, 0.6042692289001581, 0.12453886337600395, 0.0980508425244184,
     {"m_p": 0}),
    (0.6097392862846344, 0.502474548651283, 0.10831023655816055, 0.04851706292390713,
     {"m_p": 3}),
    (0.09348853188295425, 0.47366978895931644, 0.06818653796992047, 0.04772065058810608,
     {"m_p": 2}),
]


# -- the odd-span walk ------------------------------------------------------------------

def _ref_label_even(times, first_even, periodic, t):
    if periodic:
        if t >= 0:
            count = bisect.bisect_right(times, t) - bisect.bisect_right(times, 0.0)
        else:
            count = bisect.bisect_right(times, 0.0) - bisect.bisect_right(times, t)
    else:
        count = bisect.bisect_right(times, t)
    return first_even == (count % 2 == 0)


def _ref_odd_length(lab):
    total = 0.0
    region = lab.region
    r = region.r
    for x, times in lab.switches.items():
        if len(times) == 0:
            if not lab.first_even[x]:
                total += r
            continue
        if lab.bc_time == "p":
            bounds = list(times) + [times[0] + r]
            mid = (bounds[0] + bounds[1]) / 2.0
            base = mid if mid <= region.t_max else mid - r
            even = _ref_label_even(times, lab.first_even[x], True, base)
            for i in range(len(times)):
                if not even:
                    total += bounds[i + 1] - bounds[i]
                even = not even
        else:
            bounds = [region.t_min] + list(times) + [region.t_max]
            even = lab.first_even[x]
            for i in range(len(bounds) - 1):
                if not even:
                    total += bounds[i + 1] - bounds[i]
                even = not even
    return total


@pytest.mark.parametrize("region", REGIONS, ids=str)
def test_odd_length_matches_reference_walk(region):
    rng = chain_generator(13, 4)
    periodic = region.bc_time == "p"
    for _ in range(300):
        sources = []
        for x in region.box.sites():
            k = int(rng.integers(4)) * (2 if periodic else 1) + (0 if periodic else int(rng.integers(2)))
            sources += [(x, float(t)) for t in rng.uniform(region.t_min, region.t_max, size=k)]
        tau = {x: int(rng.integers(2)) for x in region.box.sites()} if periodic else None
        lab = rp.build_labelling(region, {}, None, sources, region.bc_time, tau)
        assert lab.odd_length() == _ref_odd_length(lab)
        for (x, t) in sources[:4]:
            s = float(rng.uniform(region.t_min, region.t_max))
            assert lab.label_is_even(x, s) == _ref_label_even(
                lab.switches[x], lab.first_even[x], periodic, s)
            assert not lab.label_is_even(x, t)


def _ref_cut_labelling_weight(region, holes, lam, delta, bc_time, rng):
    box = region.box
    switch_per_site = {x: [] for x in box.sites()}
    for e in EdgeSet.free(box).edges:
        for (lo, hi) in edge_windows(region, holes, e[0], e[1]):
            for t in _ref_times(lo, hi, lam, rng):
                base = t if t <= region.t_max else t - region.r
                switch_per_site[tuple(e[0])].append(base)
                switch_per_site[tuple(e[1])].append(base)
    odd_total = 0.0
    circle = region.time_topology == "circle"
    for x in box.sites():
        times = sorted(switch_per_site[x])
        comps = line_components(region, holes, x)
        cut = bool(holes.on_site(x))
        if circle and not cut:
            if len(times) % 2 != 0:
                return 0.0
            tau_even = rng.integers(2) == 0
            if not times:
                odd_total += 0.0 if tau_even else region.r
            else:
                bounds = times + [times[0] + region.r]
                for i in range(len(times)):
                    a, b = bounds[i], bounds[i + 1]
                    mid = (a + b) / 2.0
                    base = mid if mid <= region.t_max else mid - region.r
                    if base >= 0:
                        count_mid = sum(1 for s in times if 0.0 < s <= base)
                    else:
                        count_mid = sum(1 for s in times if base < s <= 0.0)
                    if tau_even != (count_mid % 2 == 0):
                        odd_total += b - a
            continue
        for comp in comps:
            if circle:
                start, length = comp
                lo_c, hi_c = start, start + length
            else:
                lo_c, hi_c = comp
            inside = [t for t in times if lo_c < t < hi_c] + \
                     [t + region.r for t in times if circle and lo_c < t + region.r < hi_c]
            inside.sort()
            if circle:
                left_even = right_even = True
            else:
                left_even = True if lo_c > region.t_min else bc_time == "f"
                right_even = True if hi_c < region.t_max else bc_time == "f"
            if (len(inside) % 2 == 1) != (left_even != right_even):
                return 0.0
            even = left_even
            bounds = [lo_c] + inside + [hi_c]
            for i in range(len(bounds) - 1):
                if not even:
                    odd_total += bounds[i + 1] - bounds[i]
                even = not even
    return math.exp(-2.0 * delta * odd_total)


HOLE_SETS = [
    Holes.empty(),
    Holes.of({(0,): [(-0.125, 0.125)]}),
    Holes.of({(0,): [(0.25, 0.45)], (1,): [(-0.5, -0.3)]}),
    Holes.of({(-1,): [(-0.4, -0.1), (0.2, 0.3)], (0,): [(0.0, 0.05)]}),
]


@pytest.mark.parametrize("holes", HOLE_SETS, ids=lambda h: str(h.intervals))
@pytest.mark.parametrize("bc_time", ["p", "f", "w"])
def test_cut_labelling_weight_matches_reference_walk(holes, bc_time):
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", bc_time)
    rng, ref = chain_generator(17, 5), chain_generator(17, 5)
    for lam in (0.5, 2.0, 4.0):
        for _ in range(150):
            got = rp.sample_cut_labelling_weight(region, holes, lam, 1.0, rng)
            assert got == _ref_cut_labelling_weight(region, holes, lam, 1.0, bc_time, ref)
    assert _in_step(rng, ref)


# -- the overlap kernel against the tests' walks ------------------------------------

def _kernel_overlaps(config, holes, edges):
    """The overlap kernel's per-edge integrals of one whole-line configuration
    over the edge windows that ``holes`` leave."""
    region = config.region
    layout = sr._layout(region, holes, edges, whole_lines=True)
    return sr._overlap_sums(layout, *sr._whole_lines(region, [config]))[:, 0].tolist()


@pytest.mark.parametrize("region", REGIONS, ids=str)
def test_overlap_matches_reference_walk(region):
    # also the pools of one: the log-weight and the overlap in the holes' shadow
    rng = chain_generator(19, 6)
    edges = region.edge_set().edges
    whole = [(region.t_min, region.t_max)]
    for holes in HOLE_SETS[:3] if region.box.d == 1 else HOLE_SETS[:1]:
        for _ in range(40):
            config = sr.sample_apriori(region, 2.0, rng)
            full = [_ref_overlap(config, x, y, whole) for (x, y) in edges]
            assert _kernel_overlaps(config, Holes.empty(), edges) == full
            outside = [_ref_overlap(config, x, y, edge_windows(region, holes, x, y))
                       for (x, y) in edges]
            assert _kernel_overlaps(config, holes, edges) == outside
            assert sr.gibbs_log_weight(config, 1.3, edges) == ref_log_weight(config, 1.3, edges)
            shadow = 0.0
            for a, b in zip(full, outside):
                shadow += a - b
            assert sr.restricted_overlap_sum(config, holes, edges) == shadow


def test_cut_partition_pinned_on_interval_windows():
    # values recorded before the overlap walk was shared
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f")
    got = [mean_estimate(sr.estimate_cut_partition(region, holes, 1.0, 1.0, 100,
                                                   chain_generator(23, k)))
           for k, holes in enumerate(HOLE_SETS)]
    assert [(e.value, e.stderr) for e in got] == PINNED_CUT_PARTITION


PINNED_CUT_PARTITION = [(1.4877040248310889, 0.12300381510511336),
                        (1.140889056560953, 0.07949984314661582),
                        (1.125366423170384, 0.07182407010914571),
                        (1.1743664940724328, 0.078065774433901)]


def _midpoint_overlap(region, sign_x, sign_y, times, windows):
    """Split each window at every time of ``times`` and at its copy shifted
    by +r (a superset of the real breaks) and read the product of the two
    sign functions inside each piece, in [t_min, t_max].  A piece past t_max
    is read between the unshifted times of its ends, so that breaks which
    the shift rounds together still bound the piece they bound on the line;
    a piece across t_max is read on its longer side."""
    r, t_min, t_max = region.r, region.t_min, region.t_max
    total = 0.0
    for (lo, hi) in windows:
        # each break past t_max with the least and largest time landing there
        ends = {lo: (lo, lo), hi: (hi - r,) * 2 if hi > t_max else (hi, hi)}
        for t in times:
            for c in (t, t + r):
                if lo < c < hi:
                    least, largest = ends.get(c, (t, t))
                    ends[c] = (min(least, t), max(largest, t))
        breaks = sorted(ends)
        for a, b in zip(breaks, breaks[1:]):
            end = ends[b][0]
            if b <= t_max:
                mid = (a + b) / 2.0
            elif a >= t_max:
                mid = ((t_min if a == t_max else ends[a][1]) + end) / 2.0
            else:
                mid = (a + t_max) / 2.0 if t_max - a > end - t_min else (t_min + end) / 2.0
            total += (b - a) * sign_x(mid) * sign_y(mid)
    return total


def _base_times(region, start, offsets):
    """Flip offsets on a line from ``start`` as times in [t_min, t_max]."""
    times = [start + f for f in offsets]
    return [t - region.r if t > region.t_max else t for t in times]


def _cut_value(region, lines, x, t):
    """sigma(x, t) on a cut region, whose ``lines`` are (site, start, length,
    sign, flip times): the sign just after the start of the line of x that
    holds t, times -1 per flip after that start and up to t along the line."""
    def offset(s, start):
        return (s - start) % region.r if region.time_topology == "circle" else s - start

    for (site, start, length, sign, times) in lines:
        if site == x and 0.0 <= offset(t, start) <= length:
            count = sum(0.0 < offset(s, start) <= offset(t, start) for s in times)
            return sign * (-1) ** count
    raise ValueError(f"time {t} not on a line of site {x}")


def _brute_overlap(region, lines, x, y, windows):
    """The midpoint integral of a cut configuration, read with its values."""
    times = [t for (site, _, _, _, ts) in lines if site in (x, y) for t in ts]
    return _midpoint_overlap(region, lambda t: _cut_value(region, lines, x, t),
                             lambda t: _cut_value(region, lines, y, t), times, windows)


def _check_cut_overlaps(region, holes, offsets, signs, edges):
    """The kernel against the midpoint integral on one cut configuration,
    given line by line as flip offsets and signs."""
    layout = sr._layout(region, holes, edges)
    got = sr._overlap_sums(layout, *sr._cut_lines(layout, offsets, signs))[:, 0]
    lines = [(x, start, length, sign, _base_times(region, start, fs))
             for (x, start, length), sign, fs in zip(layout.lines, signs, offsets)]
    for (x, y), value in zip(edges, got):
        windows = edge_windows(region, holes, x, y)
        assert value == pytest.approx(_brute_overlap(region, lines, x, y, windows),
                                      rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bc_time", ["p", "f"])
def test_cut_overlap_matches_brute_force(bc_time):
    # on the circle, windows of edges with one cut end wrap past t_max; an
    # uncut circle carries an even flip count
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", bc_time)
    edges = region.edge_set().edges
    rng = chain_generator(29, 7)
    for holes in HOLE_SETS:
        lines = sr._layout(region, holes, edges).lines
        for _ in range(25):
            offsets, signs = [], []
            for (x, _, length) in lines:
                fs = poisson.draw_times(0.0, length, 3.0, rng)
                if bc_time == "p" and not holes.on_site(x) and len(fs) % 2:
                    fs.pop()
                offsets.append(fs)
                signs.append(1 if rng.random() < 0.5 else -1)
            _check_cut_overlaps(region, holes, offsets, signs, edges)


def _apriori_sign(config, x, t):
    """sigma(x, t) of a plain configuration: the initial value times -1 per
    flip in (0, t] or (t, 0]; sites outside the box read +1."""
    if x not in config.initial:
        return 1
    lo, hi = min(0.0, t), max(0.0, t)
    count = sum(1 for f in config.flips[x] if lo < f <= hi)
    return config.initial[x] * (-1) ** count


PLAIN_OVERLAP_REGIONS = [
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.5, "p", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "f"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 0.8, "f", "w"),
    SpaceTimeRegion.ground_state(Box(1, 1), "w", "f"),
]


def _window(region, ends, draw):
    """One window from two drawn ends: sorted on the interval; on the circle
    it starts at the first end and runs forward to the second, wrapping past
    t_max when the second is not later (a full turn when they are equal)."""
    lo, hi = draw(ends), draw(ends)
    if region.time_topology == "circle":
        return (lo, hi if hi > lo else hi + region.r)
    assume(lo != hi)
    return (min(lo, hi), max(lo, hi))


@st.composite
def _plain_overlap_cases(draw):
    region = draw(st.sampled_from(PLAIN_OVERLAP_REGIONS))
    circle = region.time_topology == "circle"
    times = st.floats(region.t_min, region.t_max, exclude_max=circle)
    initial, flips = {}, {}
    for x in region.box.sites():
        ts = sorted(set(draw(st.lists(times, max_size=6))))
        if circle and len(ts) % 2:
            ts.pop()  # circle lines carry an even flip count
        initial[x] = draw(st.sampled_from((-1, 1)))
        flips[x] = ts
    config = sr.SpinConfiguration(region, initial, flips)
    x, y = draw(st.sampled_from(region.edge_set().edges))
    on_flips = [t for site in (x, y) for t in flips.get(site, [])]
    ends = st.one_of(times, st.sampled_from(on_flips)) if on_flips else times
    windows = [_window(region, ends, draw) for _ in range(draw(st.integers(0, 3)))]
    return config, x, y, windows or None


@given(_plain_overlap_cases())
@settings(max_examples=150)
def test_overlap_of_plain_configurations_matches_midpoint_integral(case):
    # flips of x and y may land on window ends, coincide, or wrap past t_max
    config, x, y, windows = case
    region = config.region
    windows = windows or [(region.t_min, region.t_max)]
    want = _midpoint_overlap(
        region, lambda t: _apriori_sign(config, x, t), lambda t: _apriori_sign(config, y, t),
        [*config.flips.get(x, []), *config.flips.get(y, [])], windows)
    # the kernel's layout of the edge, with the drawn windows on its lines
    layout = sr._layout(region, Holes.empty(), ((x, y),), whole_lines=True)
    _, _, kx, ky = layout.windows[0][0]
    layout = layout._replace(windows=(tuple((lo, hi, kx, ky) for (lo, hi) in windows),))
    assert sr._overlap_sums(layout, *sr._whole_lines(region, [config]))[0, 0] == want


@st.composite
def _cut_overlap_cases(draw):
    bc_time = draw(st.sampled_from(("p", "f")))
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", bc_time)
    holes = draw(st.sampled_from(HOLE_SETS))
    edges = region.edge_set().edges
    window_ends = [end for (x, y) in edges
                   for window in edge_windows(region, holes, x, y) for end in window]
    circle = region.time_topology == "circle"
    lines, signs = [], []
    for x in region.box.sites():
        for part in line_components(region, holes, x):
            start, length = part if circle else (part[0], part[1] - part[0])
            # component offsets of the window ends, so some flips land on them
            ends = [(e - start) % region.r if circle else e - start for e in window_ends]
            ends = [o for o in ends if 0.0 <= o < length]
            offsets = st.floats(0.0, length, exclude_max=True)
            if ends:
                offsets = st.one_of(offsets, st.sampled_from(ends))
            fs = sorted(set(draw(st.lists(offsets, max_size=5))))
            if circle and not holes.on_site(x) and len(fs) % 2:
                fs.pop()  # an uncut circle carries an even flip count
            lines.append(fs)
            signs.append(draw(st.sampled_from((-1, 1))))
    return region, holes, lines, signs, [draw(st.sampled_from(edges))]


@given(_cut_overlap_cases())
@settings(max_examples=150)
def test_overlap_of_cut_configurations_matches_midpoint_integral(case):
    _check_cut_overlaps(*case)


@st.composite
def _source_labellings(draw):
    region = draw(st.sampled_from(REGIONS))
    periodic = region.bc_time == "p"
    inside = st.floats(region.t_min + 1e-9, region.t_max - 1e-9)
    sources = []
    for x in region.box.sites():
        ts = sorted(set(draw(st.lists(inside, max_size=5))))
        if periodic and len(ts) % 2:
            ts.pop()  # odd length is walked on consistent circles only
        sources += [(x, t) for t in ts]
    tau = ({x: draw(st.sampled_from((0, 1))) for x in region.box.sites()}
           if periodic else None)
    return rp.build_labelling(region, {}, None, sources, region.bc_time, tau)


@given(_source_labellings())
@settings(max_examples=150)
def test_odd_length_matches_reference_walk_property(lab):
    assert lab.odd_length() == _ref_odd_length(lab)


# -- pinned outputs of the weight code --------------------------------------------------

SPIN_WEIGHT_REGIONS = [
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.5, "w", "w"),
    SpaceTimeRegion.ground_state(Box(1, 1), "w", "f"),
]


@pytest.mark.parametrize("k", range(len(SPIN_WEIGHT_REGIONS)))
def test_spin_log_weights_pinned(k):
    # values recorded before the overlap walk read one sign per window
    points = [((0,), 0.0), ((1,), 0.25)]
    sums, vals = sr._overlap_sums_and_values(SPIN_WEIGHT_REGIONS[k], 0.9, 6,
                                             chain_generator(31, k),
                                             lambda c: c.product_over(points))
    assert ((1.2 * sums).tolist(), vals.tolist()) == PINNED_SPIN_WEIGHTS[k]


PINNED_SPIN_WEIGHTS = [
    ([-1.160362761115391, -1.1384474005000529, 2.2191844800968097, 0.0,
      -0.3318062372598803, 0.5083943170326621], [-1.0, 1.0, 1.0, 1.0, -1.0, -1.0]),
    ([-0.3591567890714179, -2.06969579910111, 0.0, -2.4, 2.4, 0.0],
     [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0]),
    ([6.185313736725791, 7.167998217640744, 3.501138485404326, 2.3459652630320496,
      2.862373230053159, 5.848049613370825], [1.0, 1.0, 1.0, 1.0, -1.0, 1.0]),
    ([0.0, 0.0, -2.2317438262987097, 0.4710944753979017, 4.126503082993981,
      -0.2018361278265889], [1.0, -1.0, -1.0, -1.0, 1.0, -1.0]),
]

LABELLING_WEIGHT_REGIONS = [
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "f"),
    SpaceTimeRegion.ground_state(Box(1, 1), "f", "f"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.5, "w", "p"),
    SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "w"),
    SpaceTimeRegion.ground_state(Box(1, 1), "w", "f"),
]


@pytest.mark.parametrize("k", range(len(LABELLING_WEIGHT_REGIONS)))
def test_labelling_weights_pinned(k):
    # values recorded before the labelling build appended whole arrays; wired
    # space draws ghost points
    region = LABELLING_WEIGHT_REGIONS[k]
    rng = chain_generator(43, k)
    got = [rp._labelling_weights(region, 0.6, 0.7, srcs, 12, rng)
           for srcs in ([((0,), 0.0), ((1,), 0.2)], ())]
    assert tuple(w.tolist() for w in got) == PINNED_LABELLING_WEIGHTS[k]


PINNED_LABELLING_WEIGHTS = [
    ([0.041745505572923246, 0.0, 0.0, 0.0, 0.10120525466966974, 0.17562487899634363,
      0.06276138648929164, 0.0, 0.0, 0.0, 0.0, 0.0],
     [0.21055517345583238, 0.0, 0.014995576820477717, 0.0, 0.0, 0.014995576820477717,
      0.0, 0.0, 0.2465969639416065, 0.0, 0.0, 1.0]),
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.6853562702177776, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5315767369673149, 0.0, 0.0, 1.0, 1.0]),
    ([0.018806033015614034, 0.0, 0.0, 0.0, 0.0, 0.12955716223022276, 0.0, 0.0, 0.0,
      0.0, 0.0, 0.0],
     [0.0, 0.09303287756393189, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
      0.015472637667403448]),
    ([0.0, 0.0, 0.0, 0.11003719619441742, 0.0, 0.04733952805473449, 0.0, 0.0,
      0.05099439884125269, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.009453346986164134, 0.0, 0.0018363047770289071, 0.9846254485100997,
      0.0, 0.08204478565726393, 0.0, 0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.06932831803872869, 0.021750400072012014, 0.0,
      0.0, 0.0, 0.0],
     [0.0, 0.0, 0.08772851195450328, 0.02195291642701173, 0.019091348188137198,
      0.014995576820477717, 0.0, 0.047936186728990964, 0.0, 0.0, 0.0, 0.0]),
    ([0.08636583980383568, 0.0, 0.0, 0.0, 0.0, 0.0, 0.06961554168409609, 0.0, 0.0,
      0.0, 0.0686622320609661, 0.0],
     [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.03662937431523797, 0.0, 0.0, 0.0, 0.0]),
]
