import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh
from scipy.sparse import csr_matrix, identity as sp_identity, kron as sp_kron

from tfim.geometry import Box, EdgeSet, SpaceTimeRegion
from tfim import spectral as sp

SRC = Path(__file__).resolve().parent.parent / "src"


def site_observable(model: sp.SpectralModel, op: np.ndarray, x) -> np.ndarray:
    """The one-site operator ``op`` at site x on the model's full space."""
    i = model.site_index(x)
    return np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (model.n_sites - i - 1)))


@pytest.fixture(scope="module")
def ring4():
    box = Box(1, 2, "even-side")
    model = sp.build(box, EdgeSet.spatially_periodic(box), 1.0, 1.0)
    return box, model


def test_build_single_site_eigenvalues():
    model = sp.build([(0,)], [], lam=0.0, delta=1.0)
    assert model.energies == pytest.approx([-1.0, 1.0])


def test_build_two_site_coupling_only():
    model = sp.build([(0,), (1,)], [((0,), (1,))], lam=1.0, delta=0.0)
    assert model.energies == pytest.approx([-1.0, -1.0, 1.0, 1.0])


def test_size_cap():
    sites = [(i,) for i in range(13)]
    with pytest.raises(sp.ModelSizeError):
        sp.build(sites, [], 1.0, 1.0)


def test_thermal_tanh_and_symmetry():
    model = sp.build([(0,)], [], 0.0, 1.0)
    q1 = site_observable(model, sp.SIGMA1, (0,))
    q3 = site_observable(model, sp.SIGMA3, (0,))
    for beta in (0.5, 1.0, 2.0):
        assert sp.thermal_expectation(model, q1, beta) == pytest.approx(math.tanh(beta))
    assert sp.thermal_expectation(model, q3, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert sp.thermal_expectation(model, q3, None) == pytest.approx(0.0, abs=1e-12)
    ident = np.eye(2)
    assert sp.thermal_expectation(model, ident, 1.3) == pytest.approx(1.0)


def test_zero_longitudinal_field_kills_magnetization():
    box = Box(1, 1)
    model = sp.build(box, EdgeSet.free(box), 0.7, 1.0)
    q3 = site_observable(model, sp.SIGMA3, (0,))
    assert sp.thermal_expectation(model, q3, 2.0) == pytest.approx(0.0, abs=1e-10)


def test_schwinger_closed_forms():
    model = sp.build([(0,)], [], 0.0, 1.0)
    # equal time gives the equal-time correlation (here 1)
    assert sp.schwinger(model, (0,), (0,), 0.3, 0.3, 2.0) == pytest.approx(1.0)
    # ground state: two-level gap 2 delta
    assert sp.schwinger(model, (0,), (0,), 0.0, 0.7, None) == pytest.approx(math.exp(-1.4))
    # finite beta, periodic line
    r, u = 2.0, 0.7
    expected = (math.exp(-2 * u) + math.exp(-2 * (r - u))) / (1 + math.exp(-2 * r))
    assert sp.schwinger(model, (0,), (0,), 0.0, u, r) == pytest.approx(expected)


def test_schwinger_cyclicity(ring4):
    box, model = ring4
    r, u = 1.5, 0.4
    a = sp.schwinger(model, (0,), (1,), 0.0, u, r)
    b = sp.schwinger(model, (1,), (0,), 0.0, r - u, r)
    assert a == pytest.approx(b, rel=1e-10)


def test_ground_state_consistency():
    box = Box(1, 1)
    model = sp.build(box, EdgeSet.free(box), 0.5, 1.0)
    q1 = site_observable(model, sp.SIGMA1, (0,))
    gs = sp.thermal_expectation(model, q1, None)
    finite = sp.thermal_expectation(model, q1, 50.0)
    assert gs == pytest.approx(finite, abs=1e-8)


def test_boundary_condition_correlations_closed_forms():
    box0 = Box(1, 0)
    # wired time, single line: sech(delta r)
    reg_w = SpaceTimeRegion(box0, 2.0, "w", "w")
    assert sp.oracle_correlation(reg_w, 0.0, 1.0, [((0,), 0.0)]) == \
        pytest.approx(1 / math.cosh(2.0))
    # free time, single line two-point: exp(-2 delta |t-s|)
    reg_f = SpaceTimeRegion(box0, 2.0, "f", "f")
    assert sp.oracle_correlation(reg_f, 0.0, 1.0, [((0,), -0.3), ((0,), 0.4)]) == \
        pytest.approx(math.exp(-1.4))
    # spin-flip symmetry: odd insertions vanish under free/periodic time
    reg_p = SpaceTimeRegion(box0, 2.0, "f", "p")
    assert sp.oracle_correlation(reg_p, 0.0, 1.0, [((0,), 0.2)]) == \
        pytest.approx(0.0, abs=1e-12)


def test_boundary_condition_monotonicity_exact():
    box = Box(1, 2)
    pts = [((0,), 0.0), ((1,), 0.25)]
    values = []
    for bs, bt in (("f", "f"), ("f", "p"), ("w", "p"), ("w", "w")):
        region = SpaceTimeRegion(box, 1.0, bs, bt)
        values.append(sp.oracle_correlation(region, 1.0, 1.0, pts))
    assert values == sorted(values)


def test_e_function_examples():
    assert sp.E_function((math.pi,), 0.0, 1.0, 1.0) == pytest.approx(1.0 / 12.0)
    q0 = 0.7
    assert sp.E_function((0.0,), q0, 1.0, 2.0) == pytest.approx(q0**2 / (96.0 * 2.0))
    diff = sp.E_function((0.9,), 0.3, 2.0, 1.0) - sp.E_function((0.9,), 0.3, 1.0, 1.0)
    from tfim.geometry import graph_laplacian_ft
    assert diff == pytest.approx(graph_laplacian_ft((0.9,)) / 24.0)
    with pytest.raises(sp.SingularPointError):
        sp.E_function((0.0,), 0.0, 1.0, 1.0)


def test_hermiticity_and_reconstruction(ring4):
    _, model = ring4
    h = sp.build_hamiltonian(model.sites, model.edges, model.lam, model.delta)
    assert np.abs(h - h.T).max() < 1e-12
    recon = model.vectors @ np.diag(model.energies) @ model.vectors.T
    assert np.abs(recon - h).max() < 1e-9


def test_fourier_table_nonnegative_and_chi(ring4):
    box, model = ring4
    table = sp.schwinger_fourier(model, 1.0, 100 * math.pi, box)
    assert table.c_hat.min() >= -1e-9
    assert table.max_imag_residue <= 1e-9
    chi = sp.susceptibility(table)
    chi_direct = sp.susceptibility_direct(model, 1.0)
    assert chi == pytest.approx(chi_direct, abs=1e-6)


def test_fourier_inversion_roundtrip(ring4):
    box, model = ring4
    r = 1.0
    table = sp.schwinger_fourier(model, r, 4000.0, box)
    for x, t in (((1,), r / 3), ((0,), 0.41), ((2,), r / 7)):
        exact = sp.schwinger(model, (0,), x, 0.0, t, r)
        approx = sp.fourier_inversion(table, x, t)
        assert approx == pytest.approx(exact, abs=1e-8)


def test_quadratic_form_identity(ring4):
    box, model = ring4
    table = sp.schwinger_fourier(model, 1.0, 50.0, box)
    rng = np.random.default_rng(3)
    g = rng.normal(size=box.site_count) + 1j * rng.normal(size=box.site_count)
    mid = len(table.frequencies) // 2
    for idx in (mid, mid + 2, mid - 3):
        direct, dual = sp.quadratic_form_identity(model, table, g, idx)
        assert direct == pytest.approx(dual, rel=1e-8, abs=1e-10)


def test_irb_small_boxes():
    for n, beta in ((2, 1.0), (2, 2.0), (3, 1.0)):
        box = Box(1, n, "even-side")
        model = sp.build(box, EdgeSet.spatially_periodic(box), 1.0, 1.0)
        report = sp.irb_check(model, beta, 100 * math.pi, 1.0, 1.0, box)
        assert report.ok
        assert report.worst_slack >= -1e-9


def test_irb_single_line_closed_form():
    box = Box(1, 1, "even-side")
    model = sp.build(box, EdgeSet.spatially_periodic(box), 0.0, 1.0)
    r = 2.0
    table = sp.schwinger_fourier(model, r, 40.0, box)
    k0 = table.momenta.index((0.0,))
    expected = 4 * math.tanh(r) / (4 + table.frequencies**2)
    assert np.abs(table.c_hat[k0] - expected).max() < 1e-12
    # at zero coupling E vanishes on the whole l=0 momentum line, so check
    # the bound with an infinitesimal coupling instead
    report = sp.irb_check(model, r, 40.0, 1e-6, 1.0, box)
    assert report.ok


def test_box_average_single_line():
    model = sp.build([(0,)], [], 0.0, 1.0)
    beta = 2.0
    val = sp.box_average(model, 0, beta)
    ts = np.linspace(0, beta, 4001)
    direct = np.trapezoid([sp.schwinger(model, (0,), (0,), 0.0, t, beta) for t in ts], ts)
    assert val == pytest.approx(direct, abs=1e-5)
    assert val <= beta


def test_box_average_trend():
    box = Box(1, 3)
    model = sp.build(box, EdgeSet.free(box), 0.6, 1.0)
    values = [sp.box_average(model, n, 1.5) for n in (0, 1, 2, 3)]
    assert all(v > 0 for v in values)
    assert values[0] >= values[-1]


def test_g_function_symmetry_and_inner_integral():
    box = Box(1, 2, "even-side")
    a, tail = sp.g_function_lattice(box, 2.0, 1.0, 1.0, (1,), 0.3, 200.0)
    b, _ = sp.g_function_lattice(box, 2.0, 1.0, 1.0, (-1,), -0.3, 200.0)
    assert a == pytest.approx(b, rel=1e-10)
    assert tail > 0
    # ground-state inner frequency integral: pi / sqrt(4 lam delta Lhat)
    from scipy.integrate import quad
    lam, delta, p = 1.0, 1.0, 1.2
    from tfim.geometry import graph_laplacian_ft
    lhat = graph_laplacian_ft((p,))
    val, _ = quad(lambda q: 1.0 / (4 * lam * delta * lhat + q * q), -np.inf, np.inf)
    assert val == pytest.approx(math.pi / math.sqrt(4 * lam * delta * lhat), rel=1e-8)


def test_g_function_ground_rejects_d1():
    with pytest.raises(ValueError):
        sp.g_function_ground((1,), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sp.g_function_beta((1,), 0.0, 1.0, 1.0, 2.0, 10.0)


def test_g_function_continuum_consistency():
    # d=3 positive-temperature continuum value approached by lattice sums
    gb, err = sp.g_function_beta((1, 0, 0), 0.3, 1.0, 1.0, 2.0, 60.0, grid=48)
    lattice5, tail = sp.g_function_lattice(Box(3, 5, "even-side"), 2.0, 1.0, 1.0,
                                           (1, 0, 0), 0.3, 60.0)
    lattice3, _ = sp.g_function_lattice(Box(3, 3, "even-side"), 2.0, 1.0, 1.0,
                                        (1, 0, 0), 0.3, 60.0)
    assert abs(lattice5 - gb) < abs(lattice3 - gb) + tail
    gg, errg = sp.g_function_ground((1, 0), 0.2, 1.0, 1.0)
    fine, _ = sp.g_function_ground((1, 0), 0.2, 1.0, 1.0, grid=400)
    assert abs(fine - gg) <= 3 * errg + 1e-6


def test_box_average_ground_state_single_line():
    model = sp.build([(0,)], [], 0.0, 1.0)
    r = 4.0
    val = sp.box_average(model, 0, None, r=r)
    exact = (1.0 - math.exp(-r)) / r  # time integral of exp(-2|t|) over the box
    assert val == pytest.approx(exact, rel=1e-10)


def test_laplacian_integrability_verdicts():
    # finite-beta exponent 1: converges only for d >= 3; ground-state 1/2: d >= 2
    assert sp.laplacian_integrability(1, 1.0)["expected_convergent"] is False
    assert sp.laplacian_integrability(3, 1.0)["expected_convergent"] is True
    assert sp.laplacian_integrability(2, 0.5)["expected_convergent"] is True
    study = sp.laplacian_integrability(1, 1.0, cutoffs=(0.2, 0.1, 0.05, 0.025))
    inc = study["increments"]
    # divergent case: increments do not shrink geometrically
    assert inc[-1] > 0.4 * inc[0]
    study3 = sp.laplacian_integrability(3, 1.0, cutoffs=(0.6, 0.3, 0.15))
    inc3 = study3["increments"]
    assert inc3[-1] < 0.8 * inc3[0]


def test_gap_scan_reference():
    result = sp.gap_scaling_critical_point(sizes=(6, 8, 10),
                                           lam_grid=np.linspace(0.85, 1.15, 7))
    assert abs(result["estimate"] - 1.0) < 0.05


def _ed_gap(sites_count, lam, delta):
    """Test-only reference: the ring's gap from a dense diagonalization of
    ``build_hamiltonian``, one block per eigenvalue of the diagonal parity
    prod_x s1_x, which commutes with H."""
    sites = [(i,) for i in range(sites_count)]
    edges = [((i,), ((i + 1) % sites_count,)) for i in range(sites_count)]
    h = sp.build_hamiltonian(sites, edges, lam, delta)
    odd = np.array([bin(s).count("1") % 2 for s in range(2**sites_count)], dtype=bool)
    lowest = np.sort(np.concatenate([eigvalsh(h[np.ix_(block, block)], subset_by_index=[0, 1])
                                     for block in (odd, ~odd)]))
    return lowest[1] - lowest[0]


def test_gap_closed_form_matches_exact_diagonalization():
    # absolute: in the ordered phase the gap itself is about 1e-7
    for sites_count in range(3, 11):
        for lam in (0.1, 0.5, 1.0, 1.7, 3.0):
            for delta in (0.4, 0.7, 1.0, 1.3, 2.5):
                assert abs(sp.gap(sites_count, lam, delta)
                           - _ed_gap(sites_count, lam, delta)) <= 1e-12, (sites_count, lam, delta)


# rings below 3 sites, and negative couplings, where the closed form puts the
# lowest odd-parity state in the wrong sector (at 5 sites, lam = 0.5 and
# delta = -1 it gives -0.0154 against 1.0154 from ED)
@pytest.mark.parametrize("sites_count, lam, delta",
                         ((0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0),
                          (5, -0.5, 1.0), (5, 0.5, -1.0)))
def test_gap_rejects_inputs_outside_the_closed_form(sites_count, lam, delta):
    with pytest.raises(ValueError):
        sp.gap(sites_count, lam, delta)


# -- operator representation: Kronecker references ----------------------------

def _kron_site(op, index, n_sites):
    left = sp_identity(2**index, format="csr")
    right = sp_identity(2 ** (n_sites - index - 1), format="csr")
    return sp_kron(sp_kron(left, csr_matrix(op)), right, format="csr")


def _with_uniform_field(sites, gamma, site_fields):
    """Per-site longitudinal fields: ``gamma`` on every site plus its own."""
    return {x: gamma + (site_fields.get(x, 0.0) if site_fields else 0.0) for x in sites}


def _kron_hamiltonian(sites, edges, lam, delta, site_fields):
    """H as a sum of Kronecker chains of the 2x2 operators, term by term."""
    n = len(sites)
    index = {x: i for i, x in enumerate(sites)}
    h = csr_matrix((2**n, 2**n))
    for (x, y) in edges:
        if x in index and y in index:
            h = h - lam * (_kron_site(sp.SIGMA3, index[x], n) @ _kron_site(sp.SIGMA3, index[y], n))
    for x in sites:
        h = h - delta * _kron_site(sp.SIGMA1, index[x], n)
        field = site_fields.get(x, 0.0)
        if field:
            h = h - field * _kron_site(sp.SIGMA3, index[x], n)
    return h


_couplings = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _hamiltonian_inputs(draw):
    n = draw(st.integers(1, 6))
    sites = [(i,) for i in draw(st.permutations(range(n)))]
    outside = (n,)
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n))
                          .filter(lambda e: e[0] != e[1]), max_size=8))
    edges = [((a,), (b,)) for (a, b) in pairs]
    edges += edges[:1] + [(sites[0], outside)]  # a repeated edge, a dangling one
    fields = draw(st.none() | st.dictionaries(st.sampled_from(sites), _couplings))
    lam, delta, gamma = draw(_couplings), draw(_couplings), draw(_couplings)
    return sites, edges, lam, delta, _with_uniform_field(sites, gamma, fields)


@given(_hamiltonian_inputs())
@settings(max_examples=80)
def test_hamiltonian_matches_kronecker_reference(inputs):
    new = sp.build_hamiltonian(*inputs)
    ref = _kron_hamiltonian(*inputs).toarray()
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)


@pytest.mark.parametrize("n_sites", (3, 6, 9))
def test_s3_matrix_is_the_kronecker_transform(n_sites):
    sites = [(i,) for i in range(n_sites)]
    edges = [((i,), (i + 1,)) for i in range(n_sites - 1)]
    model = sp.build(sites, edges, 0.9, 1.1, site_fields={x: 0.2 for x in sites})
    for i in sorted({0, n_sites // 2, n_sites - 1}):
        op = _kron_site(sp.SIGMA3, i, n_sites).toarray()
        assert np.array_equal(model.s3_matrix((i,)), model.vectors.T @ op @ model.vectors)


# -- values pinned on a fixed build ------------------------------------------------

def test_gap_scan_pinned():
    result = sp.gap_scaling_critical_point(sizes=(6, 8, 10), lam_grid=np.linspace(0.8, 1.2, 9))
    assert result["estimate"] == 0.9987659535783927
    assert result["spread"] == 0.0009520008509605882
    assert result["crossings"] == [0.9982870452915193, 0.998771769301179, 0.9992390461424799]
    assert result["curves"] == {
        6: [2.950045959987307, 2.5452371837867105, 2.1817193482955233,
            1.8602195205162477, 1.5798299710487527, 1.338246258670953,
            1.1321596776113285, 0.9576953147269336, 0.8108039981660582],
        8: [3.5848238705098794, 2.980412567680233, 2.4407778971702356,
            1.9720611753245407, 1.5758624537146204, 1.2491350282465845,
            0.9851874414062678, 0.7752724754024456, 0.6101211407565472],
        10: [4.26628435145906, 3.4489491726420063, 2.718071453156128,
             2.090366109559696, 1.5740341364923616, 1.1663935747634646,
             0.8554808473337872, 0.6243355385563198, 0.45532337347474083]}


def test_gap_scan_does_not_depend_on_blas_threads():
    code = ("import json, numpy as np; from tfim import spectral as sp; "
            "r = sp.gap_scaling_critical_point(sizes=(6, 8, 10), "
            "lam_grid=np.linspace(0.8, 1.2, 9)); print(json.dumps(r))")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_fourier_table_and_irb_pinned(ring4):
    box, model = ring4
    table = sp.schwinger_fourier(model, 1.0, 6 * math.pi, box)
    assert table.c_hat.tolist() == [
        [0.005574316640362605, 0.011978976034289239, 0.03898599323966283,
         0.2430637895256116, 0.038985993239662814, 0.011978976034289232,
         0.005574316640362604],
        [0.005653239410943011, 0.012359975108054979, 0.04373406654775214,
         2.8095850393067514, 0.04373406654775214, 0.012359975108054979,
         0.005653239410943011],
        [0.005574316640362604, 0.011978976034289232, 0.038985993239662814,
         0.2430637895256116, 0.03898599323966283, 0.011978976034289239,
         0.005574316640362605],
        [0.0054976393388820755, 0.011621468515130436, 0.035197100797644036,
         0.13263251512231097, 0.035197100797644036, 0.01162146851513043,
         0.005497639338882076]]
    assert table.max_imag_residue == 4.884626234751248e-16
    report = sp.irb_check(model, 1.0, 6 * math.pi, 1.0, 1.0, box)
    assert report.worst_slack == 0.2587425984498656
    assert [row.slack for row in report.rows] == [
        0.2616075966610356, 0.5809295767302942, 2.169006047169343, 23.75693621047439,
        2.169006047169343, 0.5809295767302942, 0.2616075966610356, 0.26453658363529103,
        0.5955671267459717, 2.3879743408683547, 2.3879743408683547, 0.5955671267459717,
        0.26453658363529103, 0.2616075966610356, 0.5809295767302942, 2.169006047169343,
        23.75693621047439, 2.169006047169343, 0.5809295767302942, 0.2616075966610356,
        0.2587425984498656, 0.5669926972643936, 1.9867742462674147, 11.86736748487769,
        1.9867742462674147, 0.5669926972643936, 0.2587425984498656]


def test_time_integrals_pinned(ring4):
    box, model = ring4
    table = sp.schwinger_fourier(model, 1.0, 50.0, box)
    g = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.7 + 0.9j, 0.25 - 0.6j])
    mid = len(table.frequencies) // 2
    pinned = [(0.8412672296596314, 0.8412672296596313),
              (0.03824991818868747, 0.038249918188687455),
              (0.017887477817685203, 0.017887477817685203)]
    for idx, (direct, dual) in zip((mid, mid + 2, mid - 3), pinned):
        assert sp.quadratic_form_identity(model, table, g, idx) == \
            pytest.approx((direct, dual), rel=1e-12)
    chain3 = sp.build(Box(1, 3), EdgeSet.free(Box(1, 3)), 0.6, 1.0)
    assert [sp.box_average(chain3, n, 1.5) for n in (0, 1, 2, 3)] == pytest.approx(
        [1.006624941047881, 0.679305808422708, 0.5129989070508281, 0.4032815829862841],
        rel=1e-12)
    chain2 = sp.build(Box(1, 2), EdgeSet.free(Box(1, 2)), 0.8, 1.0)
    assert [sp.box_average(chain2, n, None, r=4.0) for n in (0, 1, 2)] == pytest.approx(
        [0.3703580940872712, 0.2957708880864956, 0.2422882487968855], rel=1e-12)


def _wired_fields(box, lam):
    return {x: lam * box.exterior_neighbour_count(x) for x in box.sites()
            if box.exterior_neighbour_count(x) > 0}


# (box, edges, lam, delta, gamma, site fields) -> sha256 of the dense H bytes;
# the side-2 torus carries doubled edges, the wired boxes boundary fields
DENSE_HAMILTONIANS = {
    "3-site chain": ((Box(1, 1), EdgeSet.free(Box(1, 1)), 0.9, 1.1, 0.2, None),
                     "777da3b6163e416a9a89899c626357c2ac816dd3f056d3f82aa4bf304812f557"),
    "n=4 chain, wired": ((Box(1, 4), EdgeSet.free(Box(1, 4)), 1.0, 1.0, 0.0,
                          _wired_fields(Box(1, 4), 1.0)),
                         "1e92e077882ae45f84cbb19bb40d676a0bbad2003f0b1ae3f1c68fa853755c57"),
    "2x2 torus": ((Box(2, 1, "even-side"), EdgeSet.spatially_periodic(Box(2, 1, "even-side")),
                   0.7, 1.3, 0.0, None),
                  "ed368d69c6c6f11bad5015f42f2c17bd7ee176dc73b35f5af07f536ca6c0ac35"),
    "3x3 box, wired": ((Box(2, 1), EdgeSet.free(Box(2, 1)), 0.8, 1.0, 0.1,
                        _wired_fields(Box(2, 1), 0.8)),
                       "25c03169f265474ad9f3859c53656f119ce1a06d62540eb6a853f69b9cc2da5e"),
}


@pytest.mark.parametrize("name", sorted(DENSE_HAMILTONIANS))
def test_dense_hamiltonian_pinned(name):
    (box, edges, lam, delta, gamma, fields), digest = DENSE_HAMILTONIANS[name]
    h = sp.build_hamiltonian(box.sites(), edges.edges, lam, delta,
                             _with_uniform_field(box.sites(), gamma, fields))
    assert h.shape == (2**box.site_count, 2**box.site_count) and h.dtype == np.float64
    assert hashlib.sha256(h.tobytes()).hexdigest() == digest


def test_oracle_correlations_pinned():
    # one BLAS thread: the 512-state eigensolves differ in the last digits
    # between one and two threads
    code = """if True:
        import json
        from tfim.geometry import Box, SpaceTimeRegion
        from tfim import spectral as sp
        cases = [
            (SpaceTimeRegion(Box(1, 1), 2.0, "f", "p"), [((0,), 0.0), ((1,), 0.25)]),
            (SpaceTimeRegion(Box(1, 1), 2.0, "w", "f"), [((0,), 0.0), ((1,), 0.25)]),
            (SpaceTimeRegion.ground_state(Box(1, 4), "w", "w"), [((0,), 0.0), ((2,), 0.5)]),
            (SpaceTimeRegion(Box(2, 1, "even-side"), 1.5, "p", "p"),
             [((0, 0), 0.0), ((1, 1), 0.3)]),
            (SpaceTimeRegion.ground_state(Box(2, 1), "w", "f"),
             [((0, 0), 0.0), ((1, 0), 0.25)]),
        ]
        print(json.dumps([sp.oracle_correlation(r, 1.0, 1.0, p) for r, p in cases]))
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == [0.5143535914615388, 0.6946321857575892,
                                       0.6220455887076963, 0.9307128189241869,
                                       0.9357908767455467]
