"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are the stated ones: exact identities at 1e-12, Monte Carlo
agreements at three standard errors, the infrared-bound slack at -1e-9, and
the critical-point estimate within 15 percent of one.
"""

import math
import time

import numpy as np
import pytest

from tfim.cli import main as cli_main
from tfim.config import RunConfig
from tfim.discrete import switching_sides
from tfim.geometry import Box, Holes, SpaceTimeRegion
from tfim import experiments as ex
from tfim import percolation as pc
from tfim import randomparity as rp
from tfim import spectral as sp
from tfim import spinrep as sr
from tfim.poisson import (add_or_delete_density, add_two_if_empty_density,
                          Carrier, rn_add_or_delete, rn_add_two_if_empty,
                          sample_constant, verify_modification_identity)
from tfim.rng import chain_generator


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {name}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_oracle_equivalence():
    region = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    pts = [((0,), 0.0), ((1,), 0.0)]
    exact = sp.oracle_correlation(region, 1.0, 1.0, pts)
    t0 = time.time()
    spin = sr.estimate_correlation(pts, region, 1.0, 1.0, 100000,
                                   chain_generator(101, 0))
    t_spin = time.time() - t0
    t0 = time.time()
    rpr = rp.estimate_rpr_correlation(pts, region, 1.0, 1.0, 100000,
                                      chain_generator(101, 1))
    t_rpr = time.time() - t0
    ok = (spin.agrees_with(exact) and rpr.agrees_with(exact)
          and t_spin <= 60 and t_rpr <= 60)
    _report(1, "oracle equivalence (3 sites, beta=1, lam=delta=1)", ok,
            f"oracle={exact:.4f}, spin={spin.value:.4f}+-{spin.stderr:.4f} "
            f"({t_spin:.0f}s), rpr={rpr.value:.4f}+-{rpr.stderr:.4f} ({t_rpr:.0f}s)")


def test_criterion_02_switching_lemma():
    t0 = time.time()
    worst = 0.0
    for case in ex.EXACT_SWITCHING_CASES:
        lhs, rhs = switching_sides(case["system"], *case["sources"])
        worst = max(worst, abs(lhs - rhs))
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    mc = rp.verify_switching(region, 1.0, 1.0, ((1,), 0.25), 20000,
                             chain_generator(102, 0))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and mc.passed and elapsed < 120
    _report(2, "switching identity", ok,
            f"exact worst |lhs-rhs|={worst:.2e} over {len(ex.EXACT_SWITCHING_CASES)} "
            f"discretizations; continuum gap={mc.gap:.2f} SE ({elapsed:.0f}s)")


def test_criterion_03_infrared_bound():
    from tfim.geometry import EdgeSet
    t0 = time.time()
    worst = math.inf
    cases = []
    for n in (2, 3):
        for beta in (1.0, 2.0):
            box = Box(1, n, "even-side")
            model = sp.build(box, EdgeSet.spatially_periodic(box), 1.0, 1.0)
            report = sp.irb_check(model, beta, 100 * math.pi, 1.0, 1.0, box)
            worst = min(worst, report.worst_slack)
            cases.append((2 * n, beta, report.worst_slack))
    elapsed = time.time() - t0
    ok = worst >= -1e-9 and elapsed <= 60
    _report(3, "infrared bound (4 and 6 sites, beta in {1,2})", ok,
            f"worst slack={worst:.3e} across {cases} ({elapsed:.0f}s)")


def test_criterion_04_boundary_condition_monotonicity():
    box = Box(1, 2)
    pts = [((0,), 0.0), ((1,), 0.25)]
    estimates = []
    for i, (bs, bt) in enumerate((("f", "f"), ("f", "p"), ("w", "p"), ("w", "w"))):
        region = SpaceTimeRegion(box, 1.0, bs, bt)
        est = sr.estimate_correlation(pts, region, 1.0, 1.0, 30000,
                                      chain_generator(104, i))
        estimates.append(((bs, bt), est))
    ok = True
    for (bc_a, a), (bc_b, b) in zip(estimates, estimates[1:]):
        se = math.hypot(a.stderr, b.stderr)
        if b.value < a.value - 3 * se:
            ok = False
    detail = ", ".join(f"{bc}={e.value:.4f}+-{e.stderr:.4f}" for bc, e in estimates)
    _report(4, "boundary-condition monotonicity chain", ok, detail)


def test_criterion_05_connectivity_correlation_product():
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    p = ((0,), 0.0)
    q = ((1,), 0.3)
    t0 = time.time()
    conn = pc.two_point_connectivity(region, 1.0, 1.0, p, q, 20000,
                                     chain_generator(105, 0))
    free_region = SpaceTimeRegion.finite_beta(region.box, 1.0, "f", "p")
    product = (sp.oracle_correlation(free_region, 1.0, 1.0, [p, q])
               * sp.oracle_correlation(region, 1.0, 1.0, [p, q]))
    elapsed = time.time() - t0
    gap = abs(conn.value - product) / conn.stderr
    ok = gap <= 3.0 and elapsed < 60
    _report(5, "connectivity equals correlation product", ok,
            f"Pbar={conn.value:.4f}+-{conn.stderr:.4f} vs product={product:.4f} "
            f"({gap:.2f} SE, {elapsed:.0f}s)")


def test_criterion_06_local_modification_bounds():
    region = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "w", "p")
    kappas = (((0,), 0.3), ((1,), 0.0), ((1,), 0.25))
    details = []
    ok = True
    for i, kappa in enumerate(kappas):
        rep = rp.verify_local_modification_A(region, 1.0, 1.0, kappa, 15000,
                                             chain_generator(106, i))
        ok = ok and rep.passed
        details.append(f"A{kappa}: diff={rep.lhs:.4f} <= {rep.rhs:.4f}")
    # five events measurable away from the centre block (site 0 line)
    events = {
        "far-no-cuts": lambda c: len(c.cuts.get((1,), ())) == 0,
        "far-two-cuts": lambda c: len(c.cuts.get((1,), ())) >= 2,
        "bridge-exists": lambda c: len(c.bridges1.get(((0,), (1,)), ())) >= 1,
        "hat-bridge-free": lambda c: len(c.bridges2.get(((0,), (1,)), ())) == 0,
        "far-ghost-early": lambda c: any(t <= 0 for t in c.ghosts.get((1,), ())),
    }
    rep_b = rp.verify_local_modification_B(region, 1.0, 1.0, 0, 1.0, events,
                                           15000, chain_generator(106, 10))
    for name, res in rep_b.items():
        ok = ok and res.passed
        details.append(f"B[{name}]: {res.lhs:.3f} <= {res.rhs:.3f}")
    _report(6, "local-modification bounds (A) and (B)", ok, "; ".join(details))


def test_criterion_07_holes_and_event_probability():
    ok = True
    details = []
    # holes identity, interval topology, two sites
    region_f = SpaceTimeRegion(Box(1, 1, "even-side"), 2.0, "f", "f")
    holes_f = Holes.of({(0,): [(-0.2, 0.5)]})
    rep = rp.holes_identity_check(holes_f, region_f, 1.0, 1.0, 20000,
                                  chain_generator(107, 0))
    ok = ok and rep.passed
    details.append(f"holes[f]: {rep.lhs:.4f} vs {rep.rhs:.4f} ({rep.gap:.2f} SE)")
    # holes identity, periodic circle with a cut site
    region_p = SpaceTimeRegion.finite_beta(Box(1, 1, "even-side"), 1.0, "f", "p")
    holes_p = Holes.of({(0,): [(-0.25, 0.1)]})
    rep = rp.holes_identity_check(holes_p, region_p, 1.0, 1.0, 20000,
                                  chain_generator(107, 1))
    ok = ok and rep.passed
    details.append(f"holes[p]: {rep.lhs:.4f} vs {rep.rhs:.4f} ({rep.gap:.2f} SE)")
    # event-probability identity on the three-site chain
    region3 = SpaceTimeRegion.finite_beta(Box(1, 1), 1.0, "f", "p")
    holes3 = Holes.of({(0,): [(-0.25, 0.25)]})
    rep = rp.event_probability_identity(holes3, region3, 1.0, 1.0, 20000,
                                        chain_generator(107, 2))
    ok = ok and rep.passed
    details.append(f"event[p]: {rep.lhs:.4f} vs {rep.rhs:.4f} ({rep.gap:.2f} SE)")
    _report(7, "holes and event-probability identities", ok, "; ".join(details))


def test_criterion_08_rn_density_suite():
    ok = True
    details = []
    rng = chain_generator(108, 0)
    cases = {"add-two-if-empty": (rn_add_two_if_empty, add_two_if_empty_density),
             "add-or-delete": (rn_add_or_delete, add_or_delete_density)}
    for at in (0.5, 1.0, 2.0):
        carrier = Carrier(0.0, at)
        for name, (modify, density) in cases.items():
            lhs = np.empty(30000)
            rhs = np.empty(30000)
            for i in range(30000):
                x = sample_constant(carrier, 1.0, rng)
                modified, rho = modify(x, 1.0, at, rng)
                g_mod = math.exp(-len(modified))
                lhs[i] = g_mod
                rhs[i] = rho * math.exp(-len(x))
            se = math.hypot(lhs.std(ddof=1), rhs.std(ddof=1)) / math.sqrt(lhs.size)
            gap = abs(lhs.mean() - rhs.mean()) / se
            ok = ok and gap <= 3.0
            details.append(f"{name}@at={at}: {gap:.2f} SE")
        for scheme in ("delete-all", "add-two-if-empty", "add-or-delete"):
            rep = verify_modification_identity(lambda x: math.exp(-len(x)),
                                               scheme, 1.0, at, 20000, rng)
            ok = ok and rep.passed
    _report(8, "point-process modification densities", ok, "; ".join(details))


def test_criterion_09_critical_point_estimate():
    t0 = time.time()
    reference = sp.gap_scaling_critical_point(
        sizes=(6, 8, 10), lam_grid=np.linspace(0.85, 1.15, 7))
    ref = reference["estimate"]
    cfg = RunConfig(kind="lambda-c", d=1, ground_state=True,
                    n_schedule=[3, 4, 5, 6], lam_grid=[0.8, 0.9, 1.0, 1.1, 1.2],
                    delta=1.0, n_sweeps=6000, dt=0.1, seed=109).validate()
    curves = ex.correlation_ratio_curves(cfg)
    est, spread, crossings = ex.crossing_estimate(cfg.lam_grid, curves)
    elapsed = time.time() - t0
    ok = abs(ref - 1.0) <= 0.05 and abs(est - 1.0) <= 0.15 and elapsed <= 1800
    _report(9, "d=1 ground-state critical point", ok,
            f"gap-scan reference={ref:.4f}, crossing estimate={est:.4f}"
            f"+-{spread:.4f} from {len(crossings)} crossings ({elapsed:.0f}s)")


def test_criterion_10_percolation_leaf_bound():
    region = SpaceTimeRegion.ground_state(Box(1, 4), "w", "f")
    rng = chain_generator(110, 0)
    n_configs = 10000
    t0 = time.time()
    violations = 0
    boundary = np.empty(n_configs)
    trif_total = 0
    for i in range(n_configs):
        coupled = rp.sample_coupled(region, 1.0, 1.0, (), (), rng)
        rep = pc.trifurcation_diagnostic(coupled, 1, 1.0, 1.0)
        if rep.n_trifurcations > rep.n_boundary_intervals:
            violations += 1
        boundary[i] = rep.n_boundary_intervals
        trif_total += rep.n_trifurcations
    elapsed = time.time() - t0
    mean = boundary.mean()
    se = boundary.std(ddof=1) / math.sqrt(n_configs)
    bound = pc.leaf_bound(region, 1.0)
    ok = violations == 0 and mean <= bound + 3 * se
    _report(10, "trifurcation leaf bound (d=1, N=4, r=8)", ok,
            f"violations={violations}/{n_configs}, trifurcations={trif_total}, "
            f"E[boundary intervals]={mean:.2f}+-{se:.2f} <= {bound:.1f} "
            f"(printed form {pc.leaf_bound_printed_form(region, 1.0):.0f} is "
            f"undercounted) ({elapsed:.0f}s)")


def test_criterion_11_deterministic_output(tmp_path):
    cfg_text = """kind = correlation
d = 1
n = 1
beta = 1.0
bc_space = f
bc_time = p
lam = 1.0
delta = 1.0
n_samples = 2000
n_chains = 2
seed = 111
point_site = 1
point_time = 0.0
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    outs = []
    for i, workers in enumerate((1, 2, 1)):
        out = tmp_path / f"out{i}"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers), "--format", "csv"])
        assert code == 0
        outs.append((out / "run-correlation.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report(11, "byte-identical CSV for identical config and seed", ok,
            f"{len(outs)} runs, {len(outs[0])} bytes each, workers in (1,2,1)")
