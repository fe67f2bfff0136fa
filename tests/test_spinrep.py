import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfim.config import RunConfig
from tfim.geometry import Box, Holes, SpaceTimeRegion
from tfim import experiments as ex
from tfim import spectral as sp
from tfim import spinrep as sr
from tfim.rng import chain_generator

SRC = Path(__file__).resolve().parent.parent / "src"


def test_apriori_zero_rate_constant_trajectories():
    rng = chain_generator(1, 0)
    region = SpaceTimeRegion(Box(1, 1), 2.0, "f", "f")
    signs = []
    for _ in range(200):
        config = sr.sample_apriori(region, 0.0, rng)
        for x in region.box.sites():
            assert len(config.flips[x]) == 0
            assert config.value(x, -0.9) == config.value(x, 0.9)
        signs.append(config.value((0,), 0.0))
    assert abs(np.mean(signs)) < 0.3


def test_apriori_wired_time_endpoints_plus_one():
    rng = chain_generator(1, 1)
    region = SpaceTimeRegion(Box(1, 1), 2.0, "f", "w")
    for _ in range(100):
        config = sr.sample_apriori(region, 0.8, rng)
        for x in region.box.sites():
            assert config.value(x, region.t_min) == 1
            assert config.value(x, region.t_max) == 1
    # at zero rate everything is +1
    config = sr.sample_apriori(region, 0.0, rng)
    assert all(config.value(x, 0.3) == 1 for x in region.box.sites())


def test_apriori_periodic_matches_endpoints():
    rng = chain_generator(1, 2)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 2.0)
    for _ in range(100):
        config = sr.sample_apriori(region, 1.0, rng)
        for x in region.box.sites():
            assert config.value(x, region.t_min) == config.value(x, region.t_max)


def test_apriori_flip_rate():
    rng = chain_generator(1, 3)
    region = SpaceTimeRegion(Box(1, 0), 4.0, "f", "f")
    delta, n = 1.3, 3000
    counts = [len(sr.sample_apriori(region, delta, rng).flips[(0,)]) for _ in range(n)]
    se = np.std(counts, ddof=1) / math.sqrt(n)
    assert abs(np.mean(counts) - delta * region.r) <= 3 * se


def gibbs_weight(config, lam, edges):
    """The Gibbs factor of a configuration: exp of its log-weight."""
    return math.exp(sr.gibbs_log_weight(config, lam, edges))


def estimate_magnetization(region, lam, delta, n_samples, rng):
    """<sigma(0,0)> under wired conditions."""
    if region.bc_space != "w":
        raise ValueError("magnetization estimates use the wired spatial condition")
    origin = (0,) * region.box.d
    return sr.estimate_correlation([(origin, 0.0)], region, lam, delta, n_samples, rng)


def test_gibbs_weight_examples():
    region = SpaceTimeRegion(Box(1, 1, "even-side"), 2.0, "f", "f")
    config = sr.SpinConfiguration(region, {(0,): 1, (1,): 1},
                                  {(0,): [], (1,): []})
    edges = [((0,), (1,))]
    assert gibbs_weight(config, 0.0, edges) == pytest.approx(1.0)
    assert gibbs_weight(config, 0.7, edges) == pytest.approx(math.exp(0.7 * 2.0))
    # disagreement on exactly half the line cancels
    config2 = sr.SpinConfiguration(region, {(0,): 1, (1,): 1},
                                   {(0,): [0.0], (1,): []})
    assert gibbs_weight(config2, 1.3, edges) == pytest.approx(1.0)


def test_spin_value_is_right_continuous_at_flips():
    region = SpaceTimeRegion(Box(1, 1, "even-side"), 1.0, "f", "f")
    config = sr.SpinConfiguration(region, {(0,): 1, (1,): -1},
                                  {(0,): [-0.25, 0.25], (1,): [0.0]})
    got = [config.value((0,), t) for t in (-0.3, -0.25, 0.0, 0.2, 0.25, 0.3)]
    assert got == [-1, 1, 1, 1, -1, -1]
    # the initial value is the value at time 0, after a flip there
    assert [config.value((1,), t) for t in (-0.1, 0.0, 0.1)] == [1, -1, -1]
    assert config.value((5,), 0.1) == 1  # outside the box


def test_overlap_integral_with_windows():
    region = SpaceTimeRegion(Box(1, 1, "even-side"), 2.0, "f", "f")
    config = sr.SpinConfiguration(region, {(0,): 1, (1,): -1},
                                  {(0,): [], (1,): []})
    assert sr.overlap_integral(config, (0,), (1,), [(-0.5, 0.5)]) == pytest.approx(-1.0)


def test_correlation_independent_sites_at_zero_coupling():
    rng = chain_generator(2, 0)
    region = SpaceTimeRegion(Box(1, 1), 2.0, "f", "f")
    est = sr.estimate_correlation([((0,), 0.0), ((1,), 0.3)], region, 0.0, 1.0,
                                  4000, rng)
    assert abs(est.value) <= 3 * est.stderr


def test_correlation_single_line_closed_form():
    rng = chain_generator(2, 1)
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "f")
    est = sr.estimate_correlation([((0,), -0.3), ((0,), 0.4)], region, 0.0, 1.0,
                                  20000, rng)
    assert est.agrees_with(math.exp(-1.4))


def test_correlation_matches_oracle_3_sites():
    rng = chain_generator(2, 2)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    pts = [((0,), 0.0), ((1,), 0.0)]
    exact = sp.oracle_correlation(region, 1.0, 1.0, pts)
    est = sr.estimate_correlation(pts, region, 1.0, 1.0, 20000, rng)
    assert est.agrees_with(exact)


def test_spin_flip_symmetry_odd_sets():
    rng = chain_generator(2, 3)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    est = sr.estimate_correlation([((0,), 0.2)], region, 1.0, 1.0, 8000, rng)
    assert abs(est.value) <= 3 * est.stderr


def test_magnetization_free_is_zero_and_wired_matches_oracle():
    rng = chain_generator(2, 4)
    region0 = SpaceTimeRegion(Box(1, 0), 2.0, "w", "w")
    est = estimate_magnetization(region0, 0.0, 1.0, 20000, rng)
    assert est.agrees_with(1 / math.cosh(2.0))
    with pytest.raises(ValueError):
        estimate_magnetization(SpaceTimeRegion(Box(1, 0), 2.0, "f", "f"),
                               1.0, 1.0, 10, rng)
    # wired box at beta < infinity vs oracle
    rng = chain_generator(2, 5)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    exact = sp.oracle_correlation(region, 1.0, 1.0, [((0,), 0.0)])
    est = estimate_magnetization(region, 1.0, 1.0, 20000, rng)
    assert est.agrees_with(exact)


def test_griffiths_inequality_small_instance():
    rng = chain_generator(2, 6)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    a = [((0,), 0.0), ((1,), 0.0)]
    b = [((-1,), 0.2), ((1,), 0.2)]
    est_ab = sr.estimate_correlation(a + b, region, 1.0, 1.0, 20000, rng)
    est_a = sr.estimate_correlation(a, region, 1.0, 1.0, 20000, rng)
    est_b = sr.estimate_correlation(b, region, 1.0, 1.0, 20000, rng)
    prod = est_a.value * est_b.value
    se = math.sqrt(est_ab.stderr**2 +
                   (est_b.value * est_a.stderr) ** 2 +
                   (est_a.value * est_b.stderr) ** 2)
    assert est_ab.value >= prod - 3 * se


@pytest.mark.parametrize("bs,bt,beta", [("f", "p", 1.0), ("w", "p", 1.0),
                                        ("f", "f", 1.0), ("w", "w", 1.5)])
def test_oracle_equivalence_small_boxes(bs, bt, beta):
    rng = chain_generator(3, hash((bs, bt)) % 1000)
    region = SpaceTimeRegion(Box(1, 1), beta, bs, bt)
    pts = [((0,), 0.0), ((1,), 0.25)]
    exact = sp.oracle_correlation(region, 0.8, 1.0, pts)
    est = sr.estimate_correlation(pts, region, 0.8, 1.0, 20000, rng)
    assert est.agrees_with(exact)


def test_oracle_equivalence_2d_box():
    rng = chain_generator(3, 77)
    region = SpaceTimeRegion.finite_beta(Box(2, 1), 1.0, "f", "p")
    pts = [((0, 0), 0.0), ((1, 0), 0.0)]
    exact = sp.oracle_correlation(region, 0.5, 1.0, pts)
    est = sr.estimate_correlation(pts, region, 0.5, 1.0, 8000, rng)
    assert est.agrees_with(exact)


def test_exp_overlap_trivial_cases():
    rng = chain_generator(3, 9)
    region = SpaceTimeRegion(Box(1, 1), 2.0, "f", "f")
    est = sr.estimate_exp_overlap_in(Holes.empty(), region, 1.0, 1.0, 300, rng)
    assert est.value == pytest.approx(1.0)
    holes = Holes.of({(0,): [(-0.2, 0.2)]})
    est0 = sr.estimate_exp_overlap_in(holes, region, 0.0, 1.0, 300, rng)
    assert est0.value == pytest.approx(1.0)


def test_low_ess_warning_on_heavy_weights():
    rng = chain_generator(3, 10)
    region = SpaceTimeRegion.ground_state(Box(1, 3), "f", "f")
    est = sr.estimate_correlation([((0,), 0.0), ((1,), 0.0)], region, 2.0, 1.0,
                                  400, rng)
    assert "low-ess" in est.warnings


def test_cut_partition_zero_coupling():
    # with no coupling the partition value is the boundary factor alone
    rng = chain_generator(3, 8)
    region = SpaceTimeRegion(Box(1, 0), 2.0, "f", "f")
    vals = sr.estimate_cut_partition(region, Holes.empty(), 0.0, 1.0, 200, rng)
    assert vals.mean() == pytest.approx(1.0)
    regp = SpaceTimeRegion.finite_beta(Box(1, 0), 2.0)
    vals = sr.estimate_cut_partition(regp, Holes.empty(), 0.0, 1.0, 200, rng)
    assert vals.mean() == pytest.approx((1 + math.exp(-4.0)) / 2.0)


@pytest.mark.parametrize("bc_time", ["p", "f"])
def test_cut_partition_rejects_wired_space(bc_time):
    # the frozen shell sites of wired space have no components to sample
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", bc_time)
    with pytest.raises(ValueError, match="support free and periodic space"):
        sr.estimate_cut_partition(region, Holes.empty(), 1.0, 1.0, 4, chain_generator(1, 0))


def test_trotter_magnetization_zero_coupling_forced_plus():
    rng = chain_generator(4, 0)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    # at very strong coupling the wired boundary drives the middle up
    strong, = sr.trotter_magnetization(region, [4.0], 1.0, 400, [rng], dt=0.1)
    weak, = sr.trotter_magnetization(region, [0.1], 1.0, 400, [rng], dt=0.1)
    assert strong.estimate.value > weak.estimate.value
    assert strong.approximate and strong.dt == pytest.approx(0.1)


def test_trotter_matches_oracle_wired_magnetization():
    rng = chain_generator(4, 1)
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    exact = sp.oracle_correlation(region, 1.0, 1.0, [((0,), 0.0)])
    result, = sr.trotter_magnetization(region, [1.0], 1.0, 6000, [rng], dt=0.05)
    # approximate sampler: agreement within errors plus the recorded step bias
    assert abs(result.estimate.value - exact) <= 3 * result.estimate.stderr + 0.05


# -- Trotter sweep against the full-lattice reference -------------------------

class _ReferenceTrotter:
    """The full-lattice checkerboard sweep: it draws one uniform for every
    site-slot, then for every colour (site colour + slot colour) mod K, with
    K the larger colour count, computes the field at every site-slot and
    flips only the cells of that colour whose uniform falls below their
    acceptance.  Each chain of a ``TrotterSampler`` must reproduce the
    spins and the RNG stream of the reference of its coupling exactly."""

    def __init__(self, region, lam, delta, dt):
        self.region = region
        self.n_slots = max(4, int(round(region.r / dt)))
        step = region.r / self.n_slots
        self.k_time = -0.5 * math.log(math.tanh(delta * step))
        self.k_space = lam * step
        sites = region.box.sites()
        index = {x: i for i, x in enumerate(sites)}
        nbrs = [[] for _ in sites]
        field = np.zeros(len(sites))
        for (x, y) in region.edge_set().edges:
            xi, yi = index.get(tuple(x)), index.get(tuple(y))
            if xi is not None and yi is not None:
                nbrs[xi].append(yi)
                nbrs[yi].append(xi)
            elif xi is not None:
                field[xi] += 1.0
            elif yi is not None:
                field[yi] += 1.0
        self.field = field * self.k_space
        max_deg = max((len(v) for v in nbrs), default=0)
        self.nbr_idx = np.zeros((len(sites), max_deg), dtype=int)
        self.nbr_mask = np.zeros((len(sites), max_deg))
        for i, v in enumerate(nbrs):
            for j, w in enumerate(v):
                self.nbr_idx[i, j] = w
                self.nbr_mask[i, j] = 1.0
        site_colors = sr._proper_ring_colors(len(sites), nbrs)
        m = self.n_slots
        time_nbrs = [[(i - 1) % m, (i + 1) % m] if region.bc_time == "p"
                     else [j for j in (i - 1, i + 1) if 0 <= j < m]
                     for i in range(m)]
        slot_colors = sr._proper_ring_colors(m, time_nbrs)
        k = max(site_colors.max(), slot_colors.max()) + 1
        full = (site_colors[:, None] + slot_colors[None, :]) % k
        self.cells_by_color = {int(c): np.nonzero(full == c) for c in np.unique(full)}
        self.spins = np.ones((len(sites), m), dtype=np.int8)

    def _space_field(self):
        gathered = self.spins[self.nbr_idx, :] * self.nbr_mask[:, :, None]
        return self.k_space * gathered.sum(axis=1) + self.field[:, None]

    def _time_field(self):
        s = self.spins
        if self.region.bc_time == "p":
            tf = np.roll(s, 1, axis=1) + np.roll(s, -1, axis=1)
        else:
            tf = np.zeros_like(s, dtype=float)
            tf[:, 1:] += s[:, :-1]
            tf[:, :-1] += s[:, 1:]
            if self.region.bc_time == "w":
                tf[:, 0] += 1.0
                tf[:, -1] += 1.0
        return self.k_time * tf

    def acceptance(self):
        local = self._space_field() + self._time_field()
        d_e = 2.0 * self.spins * local
        return np.exp(-np.clip(d_e, 0, 700))

    def sweep(self, rng):
        u = rng.random(self.spins.shape)
        for cells in self.cells_by_color.values():
            accept = u < self.acceptance()
            flip = np.zeros_like(self.spins, dtype=bool)
            flip[cells] = accept[cells]
            self.spins[flip] *= -1

    def pair_correlation(self, distance):
        s = self.spins.astype(float)
        return float((s * np.roll(s, -distance, axis=0)).mean())


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


@settings(max_examples=80)
@given(d=st.sampled_from([1, 2]), n=st.integers(0, 2),
       convention=st.sampled_from(["symmetric", "even-side"]),
       bc_space=st.sampled_from("fpw"), bc_time=st.sampled_from("fpw"),
       r=st.floats(0.3, 4.0), lams=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
       delta=st.floats(0.05, 3.0), dt=st.floats(0.08, 0.6), n_sweeps=st.integers(1, 4),
       seed=st.integers(0, 2**32))
def test_trotter_sweep_matches_full_lattice_reference(d, n, convention, bc_space, bc_time,
                                                      r, lams, delta, dt, n_sweeps, seed):
    if convention == "even-side":
        n = max(n, 1)
    if d == 2:
        n = min(n, 1)
    region = SpaceTimeRegion(Box(d, n, convention), r, bc_space, bc_time)
    sampler = sr.TrotterSampler(region, lams, delta, dt)
    references = [_ReferenceTrotter(region, lam, delta, dt) for lam in lams]
    rngs_a = [chain_generator(seed, j) for j in range(len(lams))]
    rngs_b = [chain_generator(seed, j) for j in range(len(lams))]
    for _ in range(n_sweeps):
        before = sampler.spins.copy()
        flips = sampler.sweep(rngs_a)
        assert list(flips) == [np.count_nonzero(after != old)
                               for after, old in zip(sampler.spins, before)]
        for reference, rng in zip(references, rngs_b):
            reference.sweep(rng)
        assert sampler.spins.dtype == np.int8
        for spins, reference in zip(sampler.spins, references, strict=True):
            assert np.array_equal(spins, reference.spins)
    for rng_a, rng_b in zip(rngs_a, rngs_b):
        assert _same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)
    # every acceptance probability of a random configuration, bit for bit
    spins = np.where(rngs_a[0].random(sampler.spins.shape) < 0.5, 1, -1)
    sampler.spins[...] = spins
    expected = np.full(sampler._cells.shape, np.nan)
    for j, reference in enumerate(references):
        reference.spins[...] = spins[j]
        expected[j, :-1] = reference.acceptance().ravel()
    expected = expected.ravel()
    for idx, gather, base in sampler._plan:
        codes = (sampler._cells.ravel()[gather] * sampler._weights).sum(axis=0)
        looked_up = sampler._table[codes + base]
        assert np.array_equal(looked_up, expected[idx])
    if d == 1 and bc_space == "p":
        distances = range(region.box.side + 1)
        correlations = sampler.pair_correlations(distances)
        for row, reference in zip(correlations, references, strict=True):
            assert list(row) == [reference.pair_correlation(distance)
                                 for distance in distances]


def _cell_colors(sampler) -> np.ndarray:
    """The colour of every site-slot cell of every chain, by the order of the
    sweep's plan; no colour holds a chain's zero cell."""
    colors = np.full(sampler._cells.size, -1)
    for c, (idx, _, _) in enumerate(sampler._plan):
        assert np.all(colors[idx] == -1)
        colors[idx] = c
    colors = colors.reshape(sampler._cells.shape)
    assert np.all(colors[:, -1] == -1) and np.all(colors[:, :-1] >= 0)
    return colors[:, :-1].reshape(sampler.spins.shape)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bc_space", list("fpw"))
@pytest.mark.parametrize("bc_time", list("fpw"))
@pytest.mark.parametrize("r", [0.5, 0.6])  # 5 or 6 slots: an odd or even slot ring
def test_trotter_colours_are_proper_and_take_the_larger_count(d, bc_space, bc_time, r):
    region = SpaceTimeRegion(Box(d, 1), r, bc_space, bc_time)
    sampler = sr.TrotterSampler(region, [1.0, 0.5], 1.0, dt=0.1)
    m = sampler.n_slots
    index = {x: i for i, x in enumerate(region.box.sites())}
    nbrs = [[] for _ in index]
    for (x, y) in region.edge_set().edges:
        if tuple(x) in index and tuple(y) in index:
            i, j = index[tuple(x)], index[tuple(y)]
            nbrs[i].append(j)
            nbrs[j].append(i)
    slot_nbrs = [[j for j in (i - 1, i + 1) if 0 <= j < m] for i in range(m)]
    if bc_time == "p":
        slot_nbrs = [[(i - 1) % m, (i + 1) % m] for i in range(m)]
    for colors in _cell_colors(sampler):
        for i, row in enumerate(nbrs):
            for j in row:
                assert np.all(colors[i] != colors[j])
        assert np.all(colors[:, 1:] != colors[:, :-1])
        if bc_time == "p":
            assert np.all(colors[:, 0] != colors[:, -1])
    n_site = len(set(sr._proper_ring_colors(len(nbrs), nbrs)))
    n_slot = len(set(sr._proper_ring_colors(m, slot_nbrs)))
    assert len(sampler._plan) == max(n_site, n_slot)
    assert n_slot == (3 if bc_time == "p" and m % 2 else 2)


def test_trotter_set_up_leaves_numpy_ma_unloaded():
    """Building a sampler after ``import tfim.cli`` imports no ``numpy.ma``
    (``np.unique`` over the colours would, on its first call)."""
    code = ("import sys, tfim.cli; from tfim.geometry import Box, SpaceTimeRegion; "
            "from tfim.spinrep import TrotterSampler; "
            "TrotterSampler(SpaceTimeRegion(Box(1, 1), 1.0, 'p', 'p'), [1.0], 1.0); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_trotter_sweep_draws_one_uniform_per_cell():
    region = SpaceTimeRegion.ground_state(Box(1, 3), "p", "f")
    sampler = sr.TrotterSampler(region, [1.0, 0.5], 1.0)
    rngs_a = [chain_generator(4, 11), chain_generator(4, 12)]
    rngs_b = [chain_generator(4, 11), chain_generator(4, 12)]
    sampler.sweep(rngs_a)
    for rng_a, rng_b in zip(rngs_a, rngs_b):
        rng_b.random(sampler.spins[0].size)
        assert _same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)
    with pytest.raises(ValueError):
        sampler.sweep(rngs_a[:1])


def test_pair_correlations_equal_the_per_distance_sums():
    # up to the lambda-c rings, n = 3..6 at 60 to 120 slots, five chains stacked
    rng = chain_generator(4, 12)
    for n in (1, 2, 3, 4, 5, 6):
        region = SpaceTimeRegion.ground_state(Box(1, n), "p", "f")
        sampler = sr.TrotterSampler(region, [0.8, 0.9, 1.0, 1.1, 1.2], 1.0)
        sampler.spins[...] = np.where(rng.random(sampler.spins.shape) < 0.5, 1, -1)
        distances = list(range(2 * sampler.spins.shape[1] + 1))
        for s, row in zip(sampler.spins, sampler.pair_correlations(distances), strict=True):
            # the former form: one roll and one integer sum per distance
            per_distance = [int((s * np.concatenate((s[k % len(s):], s[:k % len(s)]))).sum())
                            / s.size for k in distances]
            assert list(row) == per_distance


def test_trotter_estimates_pinned():
    # alone or stacked with another coupling, a chain gives the same values
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    for lams, rngs in (([1.0], [chain_generator(4, 7)]),
                       ([0.3, 1.0], [chain_generator(4, 6), chain_generator(4, 7)])):
        res = sr.trotter_magnetization(region, lams, 1.0, 300, rngs, dt=0.1)[-1]
        assert (res.estimate.value, res.estimate.stderr, res.dt, res.n_slots) == \
            (0.3933333333333333, 0.11352113016187686, 0.1, 10)
    region = SpaceTimeRegion.ground_state(Box(1, 2), "p", "f")
    for lams, rngs in (([0.9], [chain_generator(4, 8)]),
                       ([0.9, 1.4], [chain_generator(4, 8), chain_generator(4, 9)])):
        out = sr.trotter_pair_correlations(region, lams, 1.0, [1, 2], 200, rngs, dt=0.1)[0]
        assert {d: (r.estimate.value, r.estimate.stderr) for d, r in out.items()} == \
            {1: (0.5107, 0.03250994449972882), 2: (0.413, 0.04184407376554767)}


def test_lambda_c_summary_pinned():
    cfg = RunConfig(kind="lambda-c", d=1, ground_state=True, n_schedule=[3, 4],
                    lam_grid=[0.8, 0.9, 1.0, 1.1, 1.2], delta=1.0, n_sweeps=200,
                    dt=0.1, seed=11).validate()
    _, summary, _ = ex.run_lambda_c(cfg)
    assert summary["estimate"] == 0.9630795932578738
    assert summary["curves"] == {
        "3": [(0.7293354567964587, 0.10954514388239416),
              (0.9128943092263988, 0.05506966269652875),
              (0.8437284030588129, 0.06971085375777891),
              (0.8972990966420495, 0.039918062467959474),
              (0.9466794293411319, 0.04000871168411437)],
        "4": [(0.7256188487921263, 0.09869128109189061),
              (0.7673660019274965, 0.10190257079324731),
              (0.9289059386209644, 0.05036262102808329),
              (0.9404889975550123, 0.07073219636892325),
              (0.9874308883155178, 0.02451071605512448)]}


@pytest.mark.parametrize("region", [
    SpaceTimeRegion.ground_state(Box(2, 1), "p", "f"),
    SpaceTimeRegion.ground_state(Box(1, 2), "f", "f"),
    SpaceTimeRegion.finite_beta(Box(1, 2), 1.0, "w", "p")])
def test_trotter_pair_correlations_need_a_ring(region):
    # a roll over the site axis is a lattice translation only on a d=1 ring
    with pytest.raises(ValueError, match="d = 1 and periodic space"):
        sr.trotter_pair_correlations(region, [1.0], 1.0, [1], 10, [chain_generator(4, 9)])


def test_trotter_flip_fraction_counts_measured_sweeps():
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "w", "p")
    lams = [1.0, 0.4]
    _, flip_frac = sr.TrotterSampler(region, lams, 1.0).run(
        10, [chain_generator(4, 10), chain_generator(4, 13)],
        sr.TrotterSampler.magnetization_origin)
    # the same streams by hand: 2 burn-in sweeps, then 10 counted ones
    sampler = sr.TrotterSampler(region, lams, 1.0)
    rngs = [chain_generator(4, 10), chain_generator(4, 13)]
    sampler.sweep(rngs)
    sampler.sweep(rngs)
    changed = [0, 0]
    for _ in range(10):
        before = sampler.spins.copy()
        sampler.sweep(rngs)
        for j in range(len(lams)):
            changed[j] += int(np.count_nonzero(sampler.spins[j] != before[j]))
    assert all(c > 0 for c in changed)
    assert flip_frac == [c / (10 * sampler.spins[0].size) for c in changed]
    assert all(type(f) is float for f in flip_frac)
