"""Exact diagonalization oracle for small transverse-field Ising boxes.

The Hamiltonian is H = -lam * sum_xy s3_x s3_y - delta * sum_x s1_x
- sum_x h_x s3_x, with h_x the longitudinal field of site x (the boundary
field of wired space), where (following the source convention for this model
family) s1 denotes diag(1, -1) and s3 the off-diagonal unit matrix; s3 is the
operator whose correlations the graphical representations compute.  Beyond
thermal traces the oracle evaluates correlation functions under all the
boundary conditions the samplers use: periodic time is the trace, free time
is the matrix element in the s1 = +1 product state (the uniform superposition
over s3 configurations), wired time is the matrix element in the all-plus s3
eigenstate, and wired space adds a longitudinal boundary field from the
frozen shell.

A site is a bit of the basis-state index: site i of n is bit n - 1 - i, so
the first site is the leading Kronecker factor.  s3_x flips that bit, which
permutes the basis states, and s1_x is the sign (-1)^bit, so H is a sum of
signed permutations.

scipy is imported only inside the two numeric-integral checks
(``susceptibility_direct`` and ``laplacian_integrability``), so the oracle
and every CLI run load numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (Box, DualLattice, EdgeSet, GeometryError, SpaceTimeRegion,
                       graph_laplacian_ft)

SIGMA1 = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA3 = np.array([[0.0, 1.0], [1.0, 0.0]])

DEFAULT_DIM_CAP = 2**12
_DEGENERACY_TOL = 1e-10
_IMAG_TOL = 1e-9        # largest imaginary residue accepted in a Fourier table
_IRB_TOL = 1e-9         # infrared-bound slack below -_IRB_TOL is a violation
_CESARO_WINDOW = 64     # trailing partial sums averaged by fourier_inversion


class ModelSizeError(ValueError):
    """Raised when the requested Hilbert-space dimension exceeds the cap."""


class SingularPointError(ValueError):
    """Raised when E_{lam,delta} is evaluated at the zero mode."""


class NumericalConsistencyError(RuntimeError):
    """Raised when a quantity that must be real carries too much imaginary part."""


def _bit(index: int, n_sites: int) -> int:
    """Mask of the basis-state bit that carries site ``index``."""
    return 1 << (n_sites - 1 - index)


@dataclass
class SpectralModel:
    """Eigendecomposition of a finite-volume Hamiltonian; eigenvalues are
    sorted ascending."""

    sites: list
    edges: list
    lam: float
    delta: float
    energies: np.ndarray
    vectors: np.ndarray

    _s3_eigenbasis: dict | None = None

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def site_index(self, x) -> int:
        return self.sites.index(tuple(x))

    def s3_matrix(self, x) -> np.ndarray:
        """Matrix elements of s3_x between eigenstates (computed lazily)."""
        if self._s3_eigenbasis is None:
            self._s3_eigenbasis = {}
        i = self.site_index(x)
        if i not in self._s3_eigenbasis:
            flip = np.arange(self.dim) ^ _bit(i, self.n_sites)
            self._s3_eigenbasis[i] = self.vectors.T[:, flip] @ self.vectors
        return self._s3_eigenbasis[i]

    def ground_space(self) -> np.ndarray:
        mask = self.energies - self.energies[0] <= _DEGENERACY_TOL
        return self.vectors[:, mask]


def build_hamiltonian(sites: Sequence, edges: Sequence, lam: float, delta: float,
                      site_fields: dict | None = None) -> np.ndarray:
    """Dense H: -lam on s -> s ^ m_x ^ m_y for each edge with both ends in
    ``sites``, -field on s -> s ^ m_x, and the diagonal -delta * sum_x
    (-1)^bit_x, added in that order; repeated edges add up."""
    sites = [tuple(x) for x in sites]
    n = len(sites)
    states = np.arange(2**n)
    mask = {x: _bit(i, n) for i, x in enumerate(sites)}
    flips, values = [], []
    for (x, y) in edges:
        if tuple(x) in mask and tuple(y) in mask:
            flips.append(mask[tuple(x)] ^ mask[tuple(y)])
            values.append(-lam)
    diagonal = np.zeros(2**n)
    for x in sites:
        diagonal = diagonal - delta * np.where(states & mask[x], -1.0, 1.0)
        field = site_fields.get(x, 0.0) if site_fields else 0.0
        if field:
            flips.append(mask[x])
            values.append(-field)
    h = np.zeros((2**n, 2**n))
    # a flip permutes the states, so no entry repeats within one add
    for f, v in zip(flips, values):
        h[states, states ^ f] += v
    h[states, states] += diagonal
    return h


def build(box_or_sites, edges, lam: float, delta: float,
          site_fields: dict | None = None) -> SpectralModel:
    """Assemble and fully diagonalize the Hamiltonian, with the longitudinal
    field of each site in ``site_fields``."""
    if isinstance(box_or_sites, Box):
        sites = box_or_sites.sites()
    else:
        sites = [tuple(x) for x in box_or_sites]
    if isinstance(edges, EdgeSet):
        edges = list(edges.edges)
    if 2 ** len(sites) > DEFAULT_DIM_CAP:
        raise ModelSizeError(f"2^{len(sites)} exceeds dimension cap {DEFAULT_DIM_CAP}")
    h = build_hamiltonian(sites, edges, lam, delta, site_fields)
    asym = np.abs(h - h.T).max()
    if asym > 1e-12:
        raise NumericalConsistencyError(f"Hamiltonian asymmetry {asym}")
    energies, vectors = np.linalg.eigh(h)
    return SpectralModel(sites, list(edges), lam, delta, energies, vectors)


def build_for_region(region: SpaceTimeRegion, lam: float, delta: float) -> SpectralModel:
    """Model matching a region's spatial boundary condition.

    Wired space becomes a longitudinal field lam * (number of frozen
    neighbours) on the boundary sites; edges between frozen sites only shift
    the energy and are dropped.
    """
    box = region.box
    if region.bc_space == "w":
        fields = {x: lam * count for x, count in box.exterior_counts}
        return build(box, EdgeSet.free(box), lam, delta, site_fields=fields)
    return build(box, region.edge_set(), lam, delta)


def thermal_expectation(model: SpectralModel, observable: np.ndarray,
                        beta: float | None) -> float:
    """tr(Q e^{-beta H}) / tr(e^{-beta H}); beta=None means the ground state
    (degenerate ground spaces averaged uniformly)."""
    if beta is None:
        g = model.ground_space()
        k = g.shape[1]
        q_g = g.T @ observable @ g
        return float(np.trace(q_g) / k)
    q_eig = model.vectors.T @ observable @ model.vectors
    w = np.exp(-beta * (model.energies - model.energies[0]))
    return float(np.sum(w * np.diag(q_eig)) / np.sum(w))


def schwinger(model: SpectralModel, x, y, s: float, t: float,
              beta: float | None) -> float:
    """Two-point function tr(e^{-(beta-u)H} s3_y e^{-uH} s3_x)/tr(e^{-beta H}),
    u = t - s; for beta=None the ground-state spectral form with u in R."""
    u = t - s
    mx = model.s3_matrix(x)
    my = model.s3_matrix(y)
    e0 = model.energies[0]
    if beta is None:
        g = model.ground_space()
        k = g.shape[1]
        # <gs| s_y e^{-|u|(H-E0)} s_x |gs>, averaged over the ground space
        gx = model.vectors.T @ g  # eigenbasis coords of ground vectors
        amp_x = mx @ gx
        amp_y = my @ gx
        decay = np.exp(-abs(u) * (model.energies - e0))
        if u >= 0:
            val = np.einsum("nk,n,nk->", amp_y, decay, amp_x)
        else:
            val = np.einsum("nk,n,nk->", amp_x, decay, amp_y)
        return float(val / k)
    if not (0 <= u <= beta):
        raise ValueError("need 0 <= t - s <= beta at finite beta")
    wm = np.exp(-(beta - u) * (model.energies - e0))
    wn = np.exp(-u * (model.energies - e0))
    z = np.sum(np.exp(-beta * (model.energies - e0)))
    val = np.einsum("m,mn,n,nm->", wm, my, wn, mx)
    return float(val / z)


def correlation(model: SpectralModel, points: Sequence, r: float, bc_time: str) -> float:
    """General correlation of s3 insertions at space-time points.

    ``points`` is a list of (site, time) with times in [-r/2, r/2].  Periodic
    time is the thermal trace at beta = r; free/wired time are matrix elements
    in the corresponding product boundary state.
    """
    pts = sorted(((float(t), tuple(x)) for (x, t) in points))
    for (t, _) in pts:
        if not (-r / 2 <= t <= r / 2):
            raise ValueError(f"time {t} outside [-r/2, r/2]")
    energies = model.energies - model.energies[0]

    def propagate_vec(vec: np.ndarray, span: float) -> np.ndarray:
        return np.exp(-span * energies) * vec

    if bc_time in ("f", "w"):
        single = np.array([1.0, 0.0]) if bc_time == "f" else np.array([1.0, 1.0]) / math.sqrt(2)
        b = single
        for _ in range(model.n_sites - 1):
            b = np.kron(b, single)
        b = model.vectors.T @ b
        num = b.copy()
        prev = -r / 2
        for (t, x) in pts:
            num = propagate_vec(num, t - prev)
            num = model.s3_matrix(x) @ num
            prev = t
        num = propagate_vec(num, r / 2 - prev)
        den = propagate_vec(b, r)
        return float(np.dot(b, num) / np.dot(b, den))
    if bc_time == "p":
        weights = np.exp(-r * energies)
        if not pts:
            return 1.0
        mat = None
        prev = -r / 2
        for (t, x) in pts:
            span = t - prev
            if mat is None:
                mat = model.s3_matrix(x) * np.exp(-span * energies)[None, :]
            else:
                mat = model.s3_matrix(x) @ (np.exp(-span * energies)[:, None] * mat)
            prev = t
        mat = np.exp(-(r / 2 - prev) * energies)[:, None] * mat
        return float(np.trace(mat) / np.sum(weights))
    raise GeometryError(f"bad temporal boundary condition {bc_time!r}")


def oracle_correlation(region: SpaceTimeRegion, lam: float, delta: float,
                       points: Sequence) -> float:
    """Exact correlation under the region's boundary conditions."""
    model = build_for_region(region, lam, delta)
    return correlation(model, points, region.r, region.bc_time)


# -- Fourier machinery -------------------------------------------------------

def _eigenpair_time_integral(energies: np.ndarray, r: float, l: float = 0.0) -> np.ndarray:
    """int_0^r e^{-(r-u) E_m - u E_n + i l u} du for every eigenpair (m, n),
    with l zero or a multiple of 2 pi / r: (b_n - b_m) / (E_m - E_n + i l) for
    b = e^{-r E}, and its limit r b_m where the denominator vanishes."""
    boltz = np.exp(-r * energies)
    denom = energies[:, None] - energies[None, :] + 1j * l
    with np.errstate(divide="ignore", invalid="ignore"):
        integral = (boltz[None, :] - boltz[:, None]) / denom
    return np.where(np.abs(denom) < 1e-12, r * boltz[:, None], integral)


def _origin_pair_products(model: SpectralModel, sites):
    """(x, T_x) with T_x[m, n] = <m|s3_x|n> <n|s3_0|m> for each site x."""
    m0t = model.s3_matrix((0,) * len(model.sites[0])).T
    for x in sites:
        yield x, model.s3_matrix(x) * m0t


def E_function(p: Sequence[float], q: float, lam: float, delta: float) -> float:
    """(2 lam Lhat(p) + q^2 / (2 delta)) / 48, positive away from (p, q) = 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    lhat = graph_laplacian_ft(p)
    if lhat == 0.0 and q == 0.0:
        raise SingularPointError("E is evaluated away from the zero mode")
    return (2.0 * lam * lhat + q * q / (2.0 * delta)) / 48.0


@dataclass
class FourierTable:
    """hat c values on the dual lattice of an even-side periodic model."""

    momenta: list
    frequencies: np.ndarray
    c_hat: np.ndarray  # shape (len(momenta), len(frequencies)), real
    r: float
    box: Box
    max_imag_residue: float


def schwinger_fourier(model: SpectralModel, r: float, l_max: float, box: Box) -> FourierTable:
    """Fourier transform of the periodic two-point function.

    The time integral is done analytically per eigenpair, so the table is
    exact up to floating point.  Requires an even-side box and spatially
    periodic edges (the caller builds the model that way).
    """
    if box.convention != "even-side":
        raise GeometryError("Fourier sweeps use the even-side box convention")
    dual = DualLattice(box, r, l_max)
    energies = model.energies - model.energies[0]
    z = float(np.sum(np.exp(-r * energies)))
    momenta = dual.momenta()
    freqs = dual.frequencies()

    # T(k) = sum_x e^{i k.x} T_x
    t_k = np.zeros((len(momenta), model.dim, model.dim), dtype=complex)
    for x, sx in _origin_pair_products(model, model.sites):
        phase = np.array([np.exp(1j * np.dot(k, x)) for k in momenta])
        t_k += phase[:, None, None] * sx[None, :, :]

    c_hat = np.zeros((len(momenta), len(freqs)), dtype=complex)
    for j, l in enumerate(freqs):
        integral = _eigenpair_time_integral(energies, r, l)
        c_hat[:, j] = np.einsum("kmn,mn->k", t_k, integral) / z
    residue = float(np.abs(c_hat.imag).max())
    if residue > _IMAG_TOL:
        raise NumericalConsistencyError(f"imaginary residue {residue} in hat c")
    return FourierTable(momenta, freqs, c_hat.real, r, box, residue)


def susceptibility(table: FourierTable) -> float:
    """hat c at the zero mode, the finite-volume susceptibility."""
    k0 = table.momenta.index(tuple(0.0 for _ in range(table.box.d)))
    l0 = int(np.argmin(np.abs(table.frequencies)))
    return float(table.c_hat[k0, l0])


def susceptibility_direct(model: SpectralModel, r: float, n_grid: int = 2001) -> float:
    """Independent susceptibility: direct site sum and numeric time integral."""
    from scipy import integrate

    ts = np.linspace(0.0, r, n_grid)
    total = 0.0
    origin = (0,) * len(model.sites[0])
    for x in model.sites:
        vals = [schwinger(model, origin, x, 0.0, t, r) for t in ts]
        total += integrate.simpson(vals, x=ts)
    return float(total)


@dataclass
class IrbRow:
    k: tuple
    l: float
    c_hat: float
    bound: float
    slack: float


@dataclass
class IrbReport:
    rows: list
    worst_slack: float
    ok: bool


def irb_check(model: SpectralModel, r: float, l_max: float, lam: float, delta: float,
              box: Box) -> IrbReport:
    """Check hat c(xi) <= 1/E(xi) on the dual lattice away from the zero mode."""
    table = schwinger_fourier(model, r, l_max, box)
    rows = []
    worst = math.inf
    zero = tuple(0.0 for _ in range(table.box.d))
    for i, k in enumerate(table.momenta):
        for j, l in enumerate(table.frequencies):
            if k == zero and l == 0.0:
                continue
            bound = 1.0 / E_function(k, l, lam, delta)
            slack = bound - table.c_hat[i, j]
            rows.append(IrbRow(k, float(l), float(table.c_hat[i, j]), bound, float(slack)))
            if slack < worst:
                worst = slack
    return IrbReport(rows, worst, bool(worst >= -_IRB_TOL))


def fourier_inversion(table: FourierTable, x, t: float) -> float:
    """Reconstruct c(x, t) from the table by the inverse transform.

    The frequency series converges only like 1/l^2 because of the kink of the
    periodic extension at t = 0, so the partial sums are Cesaro-averaged over
    a trailing window to suppress the oscillating tail.
    """
    x = np.array(x)
    vol = table.box.site_count * table.r
    phase_k = np.array([np.exp(-1j * np.dot(k, x)) for k in table.momenta])
    order = np.argsort(np.abs(table.frequencies), kind="stable")
    freqs = table.frequencies[order]
    terms = (phase_k[:, None] * table.c_hat[:, order]).sum(axis=0) * np.exp(-1j * freqs * t)
    partial = np.cumsum(terms)
    window = partial[-_CESARO_WINDOW:]
    return float(np.mean(window).real / vol)


def quadratic_form_identity(model: SpectralModel, table: FourierTable,
                            g: np.ndarray, l0_index: int) -> tuple[float, float]:
    """Both sides of the quadratic-form identity for v(x, s) = g(x) e^{-i l0 s}.

    Returns (direct double sum, dual-lattice sum).  For this v the transform
    z_v is supported on the single frequency -l0, so the dual side is a finite
    momentum sum; the direct side uses the analytic per-eigenpair time
    integral, making both sides exact.
    """
    r = table.r
    l0 = float(table.frequencies[l0_index])
    vol = table.box.site_count * r
    neg_index = int(np.argmin(np.abs(table.frequencies + l0)))

    ghat = np.array([sum(g[i] * np.exp(-1j * np.dot(k, np.array(x)))
                         for i, x in enumerate(model.sites)) for k in table.momenta])
    dual = float(np.real(np.sum(table.c_hat[:, neg_index] * np.abs(ghat) ** 2)) * r * r / vol)

    # Direct side: with both time integrals over the circle the double sum is
    # r * sum_xy g(x) conj(g(y)) int_0^r e^{-i l0 u} c(x - y, u) du.
    energies = model.energies - model.energies[0]
    z = float(np.sum(np.exp(-r * energies)))
    iu = _eigenpair_time_integral(energies, r, -l0)
    ctilde = {tuple(x): complex(np.einsum("mn,mn->", tx, iu) / z)
              for x, tx in _origin_pair_products(model, model.sites)}
    total = 0.0 + 0.0j
    for i, x in enumerate(model.sites):
        for j, y in enumerate(model.sites):
            total += g[i] * np.conj(g[j]) * ctilde[_periodic_diff(x, y, table.box)]
    return float((r * total).real), dual


def _periodic_diff(x, y, box: Box) -> tuple:
    lo, side = box.coord_range[0], box.side
    return tuple((a - b - lo) % side + lo for a, b in zip(x, y))


def box_average(model: SpectralModel, n: int, beta: float | None,
                r: float | None = None) -> float:
    """(1/|box_n|) sum_x int <s(0,0) s(x,t)> dt over the sub-box of half-side n.

    At finite beta the integral runs over [0, beta] (periodic line); in the
    ground state over [-r/2, r/2], with the extra 1/r normalization.
    """
    origin = (0,) * len(model.sites[0])
    inner = [x for x in model.sites if all(abs(c) <= n for c in x)]
    if not inner:
        raise ValueError("empty averaging box")
    energies = model.energies - model.energies[0]
    total = 0.0
    if beta is not None:
        z = float(np.sum(np.exp(-beta * energies)))
        integral = _eigenpair_time_integral(energies, beta).real
        for _, tx in _origin_pair_products(model, inner):
            total += float(np.einsum("mn,mn->", tx, integral) / z)
        return total / len(inner)
    if r is None:
        raise ValueError("ground-state box average needs the time length r")
    g = model.ground_space()
    gx = model.vectors.T @ g
    k = g.shape[1]
    for x in inner:
        amp = (model.s3_matrix(x) @ gx) * (model.s3_matrix(origin) @ gx)
        gaps = energies
        with np.errstate(divide="ignore"):
            tint = np.where(gaps > 1e-12, 2.0 * (1.0 - np.exp(-gaps * r / 2)) / np.maximum(gaps, 1e-300), r)
        total += float(np.einsum("nk,n->", amp, tint) / k)
    return total / (len(inner) * r)


# -- G functions -------------------------------------------------------------

def g_function_lattice(box: Box, r: float, lam: float, delta: float,
                       dx, du: float, l_max: float) -> tuple[float, float]:
    """Dual-lattice sum G_{N,r} at separation (dx, du), with a tail bound
    for the truncated frequencies."""
    dx = np.array(dx)
    total = 0.0
    for k, l in DualLattice(box, r, l_max).points():
        total += math.cos(np.dot(k, dx) + l * du) / E_function(k, l, lam, delta)
    vol = box.site_count * r
    j_max = int(math.floor(l_max * r / (2 * math.pi) + 1e-9))
    tail = box.site_count * 2 * 96.0 * delta * (r / (2 * math.pi)) ** 2 / max(j_max, 1)
    return total / vol, tail / vol


def _midpoint_mesh(d: int, grid: int) -> tuple[list, float]:
    """Midpoint grid over (-pi, pi]^d as a meshgrid, and its cell volume."""
    pts = (np.arange(grid) + 0.5) / grid * 2 * math.pi - math.pi
    return np.meshgrid(*([pts] * d), indexing="ij"), (2 * math.pi / grid) ** d


def _midpoint_momentum_sum(d: int, grid: int, term) -> float:
    mesh, cell = _midpoint_mesh(d, grid)
    return float(term(mesh).sum() * cell)


def g_function_beta(dx, du: float, lam: float, delta: float, beta: float,
                    l_max: float, grid: int = 48) -> tuple[float, float]:
    """Continuum positive-temperature G at separation (dx, du).

    Finite only for d >= 3 (the momentum integral of 1/Lhat diverges below
    that).  Evaluated on a midpoint momentum grid with the frequency sum
    truncated at l_max; returns (value, error estimate) where the error
    combines a half-resolution comparison and the frequency tail bound."""
    dx = np.array(dx)
    d = dx.size
    if d < 3:
        raise ValueError("positive-temperature G diverges for d < 3")
    step = 2.0 * math.pi / beta
    j_max = int(math.floor(l_max / step + 1e-9))
    ls = step * np.arange(-j_max, j_max + 1)

    def term(mesh):
        lhat = sum(1.0 - np.cos(m) for m in mesh)
        phase = sum(m * c for m, c in zip(mesh, dx))
        out = np.zeros_like(lhat)
        for l in ls:
            e = (2 * lam * lhat + l * l / (2 * delta)) / 48.0
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = np.cos(phase + l * du) / e
            out += np.where(e > 0, contrib, 0.0)
        return out

    coarse = _midpoint_momentum_sum(d, grid // 2, term) / ((2 * math.pi) ** d * beta)
    fine = _midpoint_momentum_sum(d, grid, term) / ((2 * math.pi) ** d * beta)
    tail = 96.0 * delta * (beta / (2 * math.pi)) ** 2 * 2.0 / max(j_max, 1) / beta
    return fine, abs(fine - coarse) + tail


def g_function_ground(dx, du: float, lam: float, delta: float,
                      grid: int = 200) -> tuple[float, float]:
    """Continuum ground-state G: the frequency integral is analytic,
    int dq cos(q u)/E(p, q) = 96 delta pi exp(-sqrt(4 lam delta Lhat) |u|)
    / sqrt(4 lam delta Lhat), leaving a momentum integral with an
    integrable singularity for d >= 2 (it diverges for d = 1).  Returns
    (value, half-resolution error estimate)."""
    dx = np.array(dx)
    d = dx.size
    if d < 2:
        raise ValueError("ground-state G diverges for d = 1")

    def term(mesh):
        lhat = sum(1.0 - np.cos(m) for m in mesh)
        phase = sum(m * c for m, c in zip(mesh, dx))
        mass = np.sqrt(4.0 * lam * delta * np.maximum(lhat, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.cos(phase) * 96.0 * delta * math.pi * np.exp(-mass * abs(du)) / mass
        return np.where(mass > 0, vals, 0.0)

    coarse = _midpoint_momentum_sum(d, grid // 2, term) / ((2 * math.pi) ** (d + 1))
    fine = _midpoint_momentum_sum(d, grid, term) / ((2 * math.pi) ** (d + 1))
    return fine, abs(fine - coarse)


def laplacian_integrability(d: int, alpha: float,
                            cutoffs=(0.2, 0.1, 0.05, 0.025),
                            grid: int | None = None) -> dict:
    """Numeric cutoff study of int 1/Lhat^alpha over (-pi,pi]^d.

    Midpoint-grid integrals over {|p| > eps} for each cutoff; geometric decay
    of the increments indicates convergence (expected when d > 2 alpha).
    """
    if grid is None:
        grid = max(40, int(round(2e6 ** (1.0 / d))))
    if d == 1:
        from scipy import integrate

        values = []
        for eps in cutoffs:
            val, _ = integrate.quad(lambda p: (1 - math.cos(p)) ** (-alpha),
                                    eps, math.pi, limit=200)
            values.append(2 * val)
    else:
        mesh, cell = _midpoint_mesh(d, grid)
        radius2 = sum(m * m for m in mesh)
        lhat = sum(1.0 - np.cos(m) for m in mesh)
        with np.errstate(divide="ignore"):
            vals = np.where(lhat > 0, lhat, np.inf) ** (-alpha)
        values = [float((vals * (radius2 > eps * eps)).sum() * cell) for eps in cutoffs]
    increments = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    converges = d > 2 * alpha
    return {"cutoffs": list(cutoffs), "values": values, "increments": increments,
            "expected_convergent": converges}


# -- critical-point reference -------------------------------------------------

def gap(sites_count: int, lam: float, delta: float) -> float:
    """Spectral gap of the d=1 ring from its free fermions (Lieb-Schultz-Mattis
    1961; Pfeuty 1970), eps(k) = 2 sqrt(lam^2 + delta^2 - 2 lam delta cos k).
    The ground state is the even-parity vacuum over the antiperiodic momenta;
    the lowest odd-parity state fills k = 0 of the periodic ones, where k = 0
    and, for even L, k = pi carry the signed 2 (delta - lam) and 2 (delta + lam).
    The sector assignment holds for lam, delta >= 0 only."""
    if sites_count < 3:
        raise ValueError(f"a ring needs at least 3 sites, got {sites_count}")
    if lam < 0 or delta < 0:
        raise ValueError(f"the free-fermion gap needs lam, delta >= 0, got {lam}, {delta}")
    k = np.pi * np.arange(1, 2 * sites_count) / sites_count  # even index: antiperiodic
    eps = 2.0 * np.sqrt(lam * lam + delta * delta - 2.0 * lam * delta * np.cos(k))
    signed = np.concatenate(([2.0 * (delta - lam)], eps[1::2]))
    if sites_count % 2 == 0:
        signed[sites_count // 2] = 2.0 * (delta + lam)
    return float(-0.5 * np.sum(signed) + signed[0] + 0.5 * np.sum(eps[0::2]))


def pairwise_crossings(grid, curves: dict) -> list:
    """Crossings of every pair of curves (size -> values on ``grid``), pairs
    taken in increasing size: a grid point where the two agree, or the linear
    interpolation of their difference to zero between neighbouring points."""
    crossings = []
    for a, b in itertools.combinations(sorted(curves), 2):
        diff = np.subtract(curves[a], curves[b])
        for i in range(len(grid) - 1):
            if diff[i] == 0.0:
                crossings.append(float(grid[i]))
            elif diff[i] * diff[i + 1] < 0:
                frac = diff[i] / (diff[i] - diff[i + 1])
                crossings.append(float(grid[i] + frac * (grid[i + 1] - grid[i])))
    return crossings


def gap_scaling_critical_point(sizes=(6, 8, 10, 12), lam_grid=None,
                               delta: float = 1.0) -> dict:
    """Crossing-point estimate of lambda_c from L * gap(lambda) curves.

    With dynamical exponent one, L * gap is size-independent at the critical
    coupling, so the pairwise crossings of these curves estimate lambda_c.
    """
    if lam_grid is None:
        lam_grid = delta * np.linspace(0.7, 1.3, 13)
    lam_grid = np.asarray(lam_grid, dtype=float)
    curves = {}
    for size in sizes:
        curves[size] = np.array([size * gap(size, lam, delta) for lam in lam_grid])
    crossings = pairwise_crossings(lam_grid, curves)
    if not crossings:
        raise RuntimeError("gap curves do not cross on the supplied grid")
    est = float(np.mean(crossings))
    spread = float(np.max(crossings) - np.min(crossings)) if len(crossings) > 1 else 0.0
    return {"estimate": est, "spread": spread, "crossings": crossings,
            "curves": {s: c.tolist() for s, c in curves.items()},
            "lam_grid": lam_grid.tolist()}
