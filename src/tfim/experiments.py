"""Experiment drivers: parameter sweeps, chain management, aggregation.

Each driver maps a validated RunConfig to a list of result rows (dicts with
fixed keys per experiment kind) plus a JSON-ready summary.  All randomness
comes from the master seed through the documented per-chain stream
derivation, and chains are reduced in index order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from . import percolation, randomparity, spectral, spinrep
from .config import ConfigError, RunConfig
from .discrete import DiscreteSystem, switching_sides
from .geometry import Box, EdgeSet, Holes
from .poisson import verify_modification_identity
from .rng import chain_generator
from .stats import Check, RatioAccumulator, SamplingError

KIND_COLUMNS = {
    "correlation": ["kind", "method", "d", "n", "r", "bc_space", "bc_time",
                    "lam", "delta", "estimate", "stderr", "n_samples",
                    "n_effective", "seed"],
    "magnetization-sweep": ["kind", "method", "d", "n", "r", "lam", "delta",
                            "estimate", "stderr", "dt", "n_samples", "seed"],
    "switching-verify": ["kind", "case", "mode", "lhs", "rhs", "se_lhs",
                         "se_rhs", "gap", "pass", "seed"],
    "irb-check": ["kind", "n", "sites", "r", "lam", "delta", "k", "l",
                  "c_hat", "bound", "slack", "seed"],
    "percolation-sweep": ["kind", "d", "n", "r", "lam", "delta",
                          "p_origin_ghost", "stderr", "mean_clusters",
                          "mean_boundary_intervals", "n_trifurcations",
                          "leaf_violations", "n_samples", "seed"],
    "identity-suite": ["kind", "identity", "case", "lhs", "rhs", "se_lhs",
                       "se_rhs", "gap", "pass", "seed"],
    "lambda-c": ["kind", "method", "estimate", "uncertainty", "reference",
                 "n_sizes", "seed"],
}


@contextmanager
def _point_map(workers: int):
    """A map of a function over tasks with results in task order: in this
    process, or in one pool of ``workers`` spawned processes for the whole
    ``with`` block when ``workers > 1``."""
    if workers <= 1:
        yield lambda fn, tasks: [fn(t) for t in tasks]
        return
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield lambda fn, tasks: list(pool.map(fn, tasks))


# -- correlation ---------------------------------------------------------------

def _correlation_chain(args) -> tuple:
    """One chain's pools for the whole coupling grid: the spin pool's overlap
    sums and values and the seconds it took, drawn and weighed once, then per
    coupling the random-parity numerator (sources) and denominator labelling
    weights and the seconds they took.  Every coupling's labelling pools
    start from the generator state after the spin pool, where a run of that
    coupling alone has them start."""
    cfg, chain = args
    rng = chain_generator(cfg.seed, chain)
    region = cfg.region()
    points = [((0,) * cfg.d, 0.0), (tuple(cfg.point_site), cfg.point_time)]
    t0 = time.perf_counter()
    sums, vals = spinrep._overlap_sums_and_values(region, cfg.delta, cfg.n_samples, rng,
                                                  lambda c: c.product_over(points))
    spin_s = time.perf_counter() - t0
    after_spin = rng.bit_generator.state
    labellings = []
    for lam in cfg.lam_grid:
        t0 = time.perf_counter()
        rng.bit_generator.state = after_spin
        num = randomparity._labelling_weights(region, lam, cfg.delta, points, cfg.n_samples, rng)
        den = randomparity._labelling_weights(region, lam, cfg.delta, (), cfg.n_samples, rng)
        labellings.append((num, den, time.perf_counter() - t0))
    return sums, vals, spin_s, labellings


def _pool_diagnostics(est, num, den) -> dict:
    """JSON-only fields of a ratio row: its warnings and the share of zero
    weights in its numerator and denominator pools."""
    return {"warnings": list(est.warnings),
            "zero_weight_frac_num": float(np.mean(num == 0)),
            "zero_weight_frac_den": float(np.mean(den == 0))}


def run_correlation(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    rows = []
    origin = (0,) * cfg.d
    points = [(origin, 0.0), (tuple(cfg.point_site), cfg.point_time)]
    region = cfg.region()
    with _point_map(workers) as map_points:
        chains = map_points(_correlation_chain, [(cfg, k) for k in range(cfg.n_chains)])
    # pooled in chain order; spin weights share one normalization
    sums, vals, spin_s, labellings = zip(*chains)
    sums, vals = np.concatenate(sums), np.concatenate(vals)
    labelling_s = 0.0
    for lam, pools in zip(cfg.lam_grid, zip(*labellings)):
        t0 = time.perf_counter()
        nums, dens, seconds = zip(*pools)
        num, den = np.concatenate(nums), np.concatenate(dens)
        labelling_s += sum(seconds)
        logs = lam * sums
        w = np.exp(logs - logs.max())
        spin_est = RatioAccumulator.of(w * vals, w, covariance=True).estimate(
            "spin importance pool")
        rpr_est = RatioAccumulator.of(num, den, covariance=False).estimate(
            f"denominator (source-free) labelling pool at lam={lam}")
        # the coupling's own seconds: its labelling pools and this pooling
        wall = sum(seconds) + time.perf_counter() - t0
        base = {"kind": cfg.kind, "d": cfg.d, "n": cfg.n, "r": region.r,
                "bc_space": region.bc_space, "bc_time": region.bc_time,
                "lam": lam, "delta": cfg.delta, "seed": cfg.seed,
                "n_samples": cfg.n_samples * cfg.n_chains, "wall_time": round(wall, 3)}
        rows.append({**base, "method": "spin", "estimate": spin_est.value,
                     "stderr": spin_est.stderr, "n_effective": spin_est.ess,
                     **_pool_diagnostics(spin_est, w * vals, w)})
        rows.append({**base, "method": "random-parity", "estimate": rpr_est.value,
                     "stderr": rpr_est.stderr, "n_effective": rpr_est.ess,
                     **_pool_diagnostics(rpr_est, num, den)})
        if 2 ** region.box.site_count <= spectral.DEFAULT_DIM_CAP:
            exact = spectral.oracle_correlation(region, lam, cfg.delta, points)
            # an exact value rests on no draws: no ESS (null in the JSON)
            rows.append({**base, "method": "oracle", "estimate": exact,
                         "stderr": 0.0, "n_effective": None,
                         "wall_time": 0.0})
    # the spin stage draws one pool per chain, shared by every coupling; the
    # labelling stage two per chain and coupling (numerator and
    # denominator); times are summed over chains
    draws = cfg.n_samples * cfg.n_chains
    stages = {name: {"wall_time": seconds, "samples": samples,
                     "samples_per_s": samples / seconds if seconds > 0 else None}
              for name, seconds, samples in (
                  ("spin", sum(spin_s), draws),
                  ("labelling", labelling_s, 2 * draws * len(cfg.lam_grid)))}
    return rows, {"points": [str(p) for p in points], "stages": stages}, True


# -- magnetization sweep --------------------------------------------------------

def _magnetization_points(args) -> list:
    """The rows of one size, in grid order: one stacked Trotter run with
    each coupling's chain drawn from its own stream.  Every row carries the
    size's wall time."""
    cfg, n = args
    t0 = time.time()
    rngs = [chain_generator(cfg.seed, 1000 * n + j) for j in range(len(cfg.lam_grid))]
    region = cfg.region(n, "w", "w" if cfg.ground_state else "p")
    results = spinrep.trotter_magnetization(region, cfg.lam_grid, cfg.delta, cfg.n_sweeps,
                                            rngs, cfg.dt)
    wall = round(time.time() - t0, 3)
    return [{"kind": cfg.kind, "method": "trotter", "d": cfg.d,
             "n": n, "r": region.r, "lam": lam, "delta": cfg.delta,
             "estimate": result.estimate.value,
             "stderr": result.estimate.stderr, "dt": result.dt,
             "n_samples": cfg.n_sweeps, "seed": cfg.seed,
             "flip_frac": result.flip_frac, "tau_int": result.tau_int,
             "wall_time": wall}
            for lam, result in zip(cfg.lam_grid, results)]


def run_magnetization_sweep(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    schedule = cfg.n_schedule or [cfg.n]
    with _point_map(workers) as map_points:
        rows = [row for size in map_points(_magnetization_points,
                                           [(cfg, n) for n in schedule])
                for row in size]
    # Griffiths monotonicity across the coupling grid, per size: a failing
    # pair fails its later row (JSON only, as "pass")
    for row in rows:
        row["pass"] = True
    for n in schedule:
        sub = [r for r in rows if r["n"] == n]
        for a, b in zip(sub, sub[1:]):
            b["pass"] = Check("bound", a["estimate"], b["estimate"],
                              a["stderr"], b["stderr"]).passed
    monotone = all(row["pass"] for row in rows)
    return rows, {"griffiths_monotone": monotone}, monotone


# -- verification rows ------------------------------------------------------------

EXACT_TOL = 1e-12  # exact rows pass when |lhs - rhs| is at most this


def _check_row(cfg: RunConfig, labels: dict, check: Check, t0: float) -> dict:
    """The row of one check: its labelling columns, both sides with their
    standard errors, and its gap and verdict."""
    return {"kind": cfg.kind, **labels, "lhs": check.lhs, "rhs": check.rhs,
            "se_lhs": check.se_lhs, "se_rhs": check.se_rhs, "gap": check.gap,
            "pass": check.passed, "seed": cfg.seed,
            "wall_time": round(time.time() - t0, 3)}


EXACT_SWITCHING_CASES = [
    dict(case="1edge-3slot-fw", sources=(("a", 1), ("b", 2)),
         system=DiscreteSystem(sites=("a", "b"), edges=(("a", "b"),), n_slots=3,
                               topology="interval", bc1="f", bc2="w", p_bridge=0.3,
                               w_even=1.25, ghost_multiplicity={"a": 1, "b": 1},
                               p_ghost=0.2)),
    dict(case="2edge-3slot-fw", sources=(("a", 1), ("c", 2)),
         system=DiscreteSystem(sites=("a", "b", "c"), edges=(("a", "b"), ("b", "c")),
                               n_slots=3, topology="interval", bc1="f", bc2="w",
                               p_bridge=0.3, w_even=1.2,
                               ghost_multiplicity={"a": 1, "c": 1}, p_ghost=0.1)),
    dict(case="1edge-4slot-fw", sources=(("a", 1), ("b", 3)),
         system=DiscreteSystem(sites=("a", "b"), edges=(("a", "b"),), n_slots=4,
                               topology="interval", bc1="f", bc2="w", p_bridge=0.35,
                               w_even=1.15, ghost_multiplicity={"a": 1, "b": 1},
                               p_ghost=0.15)),
    dict(case="1edge-3slot-pp", sources=(("a", 0), ("b", 1)),
         system=DiscreteSystem(sites=("a", "b"), edges=(("a", "b"),), n_slots=3,
                               topology="circle", bc1="p", bc2="p", p_bridge=0.3,
                               w_even=1.2, ghost_multiplicity={"a": 1, "b": 1},
                               p_ghost=0.15)),
]


def run_switching_verify(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    """Exactly enumerated switching cases, whose rows keep the absolute rule
    gap = |lhs - rhs| <= ``EXACT_TOL``, then the continuum Monte Carlo check."""
    rows = []
    for case in EXACT_SWITCHING_CASES:
        t0 = time.time()
        lhs, rhs = switching_sides(case["system"], *case["sources"])
        row = _check_row(cfg, {"case": case["case"], "mode": "exact"},
                         Check("identity", lhs, rhs, 0.0, 0.0), t0)
        row["gap"] = abs(lhs - rhs)
        row["pass"] = row["gap"] <= EXACT_TOL
        rows.append(row)
    t0 = time.time()
    rng = chain_generator(cfg.seed, 0)
    region = cfg.region(bc_space="w")
    kappa = (tuple(cfg.point_site), cfg.point_time)
    check = randomparity.verify_switching(region, cfg.lam_grid[0], cfg.delta,
                                          kappa, cfg.n_samples, rng)
    rows.append(_check_row(cfg, {"case": "continuum", "mode": "mc"}, check, t0))
    return rows, {"n_cases": len(rows)}, all(row["pass"] for row in rows)


# -- infrared bound ---------------------------------------------------------------

def run_irb_check(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    """Dual-lattice table rows (one per momentum-frequency point) with the
    bound and slack; the summary carries the worst slack per case."""
    rows = []
    ok = True
    cases = {}
    schedule = cfg.n_schedule or [cfg.n]
    for n in schedule:
        for lam in cfg.lam_grid:
            box = Box(cfg.d, n, "even-side")
            model = spectral.build(box, EdgeSet.spatially_periodic(box), lam, cfg.delta)
            l_max = cfg.l_max_factor * math.pi
            report = spectral.irb_check(model, cfg.beta, l_max, lam, cfg.delta, box)
            ok = ok and report.ok
            cases[f"n={n},lam={lam}"] = {"worst_slack": report.worst_slack,
                                         "pass": report.ok,
                                         "n_points": len(report.rows)}
            for row in report.rows:
                rows.append({"kind": cfg.kind, "n": n, "sites": box.site_count,
                             "r": cfg.beta, "lam": lam, "delta": cfg.delta,
                             "k": ";".join(format(c, ".10g") for c in row.k),
                             "l": row.l, "c_hat": row.c_hat, "bound": row.bound,
                             "slack": row.slack, "seed": cfg.seed,
                             "pass": report.ok})
    summary = {"worst_slack": min(c["worst_slack"] for c in cases.values()),
               "cases": cases}
    return rows, summary, ok


# -- percolation sweep -------------------------------------------------------------

def _percolation_chain(args) -> dict:
    cfg, region, lam, chain = args
    rng = chain_generator(cfg.seed, chain)
    acc = RatioAccumulator(covariance=False)
    clusters = []
    boundary = []
    trif = 0
    violations = 0
    for _ in range(cfg.n_samples):
        c = randomparity.sample_coupled(region, lam, cfg.delta, (), (), rng)
        w = c.weight
        report = percolation.cluster_report(c)
        acc.push_many([w if (w > 0 and report.origin_to_ghost) else 0.0], [w])
        rep = percolation.trifurcation_diagnostic(c, 1, min(1.0, region.r / 2), cfg.delta)
        clusters.append(report.n_clusters)
        boundary.append(rep.n_boundary_intervals)
        trif += rep.n_trifurcations
        if rep.n_trifurcations > rep.n_boundary_intervals:
            violations += 1
    return {"acc": acc, "clusters": clusters, "boundary": boundary,
            "trif": trif, "violations": violations}


def run_percolation_sweep(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    rows = []
    # wired space; periodic time at finite beta, free time in the ground state
    region = cfg.region(bc_space="w", bc_time="p")
    with _point_map(workers) as map_points:
        for lam in cfg.lam_grid:
            t0 = time.time()
            results = map_points(_percolation_chain,
                                 [(cfg, region, lam, k) for k in range(cfg.n_chains)])
            acc = RatioAccumulator(covariance=False)
            clusters = []
            boundary = []
            trif = 0
            violations = 0
            for res in results:
                acc.merge(res["acc"])
                clusters.extend(res["clusters"])
                boundary.extend(res["boundary"])
                trif += res["trif"]
                violations += res["violations"]
            est = acc.estimate(f"origin-to-ghost coupled pool at lam={lam}")
            rows.append({"kind": cfg.kind, "d": cfg.d, "n": cfg.n, "r": region.r,
                         "lam": lam, "delta": cfg.delta,
                         "p_origin_ghost": est.value, "stderr": est.stderr,
                         "mean_clusters": float(np.mean(clusters)),
                         "mean_boundary_intervals": float(np.mean(boundary)),
                         "n_trifurcations": trif, "leaf_violations": violations,
                         "n_samples": cfg.n_samples * cfg.n_chains,
                         "seed": cfg.seed, "pass": violations == 0,
                         "wall_time": round(time.time() - t0, 3)})
    return (rows, {"leaf_bound": percolation.leaf_bound(region, cfg.delta)},
            all(row["pass"] for row in rows))


# -- identity suite -----------------------------------------------------------------

def run_identity_suite(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    """One row per identity check.  A check whose pool has no weight fails
    its own row (both sides null, the message under "error") and the suite
    goes on from the stream where that check stopped."""
    rows = []
    lam = cfg.lam_grid[0]
    rng = chain_generator(cfg.seed, 0)

    def add(identity, case, check_of):
        # check_of() gives a check, or a dict of checks named by their case
        t0 = time.time()
        try:
            checks = check_of()
        except SamplingError as exc:
            rows.append({"kind": cfg.kind, "identity": identity, "case": case,
                         "lhs": None, "rhs": None, "se_lhs": None, "se_rhs": None,
                         "gap": None, "pass": False, "seed": cfg.seed,
                         "wall_time": round(time.time() - t0, 3),
                         "error": f"{type(exc).__name__}: {exc}"})
            return
        if isinstance(checks, Check):
            checks = {case: checks}
        for name, check in checks.items():
            rows.append(_check_row(cfg, {"identity": identity, "case": name}, check, t0))

    # point-process modification identities
    for at in (0.5, 1.0, 2.0):
        for scheme in ("delete-all", "add-two-if-empty", "add-or-delete"):
            add("modification-bound", f"{scheme}-at{at}",
                lambda: verify_modification_identity(lambda x: math.exp(-len(x)), scheme,
                                                     1.0, at, cfg.n_samples, rng))

    # holes identity
    region = cfg.region(bc_space="f")
    span = (-region.r / 8.0, region.r / 8.0)
    holes = Holes.of({(0,) * cfg.d: [span]})
    add("holes", "centre-interval",
        lambda: randomparity.holes_identity_check(holes, region, lam, cfg.delta,
                                                  cfg.n_samples, rng))

    # event-probability identity
    add("event-probability", "centre-interval",
        lambda: randomparity.event_probability_identity(holes, region, lam, cfg.delta,
                                                        cfg.n_samples, rng))

    # connectivity = correlation product
    regionw = cfg.region(bc_space="w")
    p = ((0,) * cfg.d, 0.0)
    q = (tuple(cfg.point_site), cfg.point_time)

    def connectivity_product() -> Check:
        conn = percolation.two_point_connectivity(regionw, lam, cfg.delta, p, q,
                                                  cfg.n_samples, rng)
        corr_f = randomparity.estimate_rpr_correlation([p, q], region, lam, cfg.delta,
                                                       cfg.n_samples, rng)
        corr_w = randomparity.estimate_rpr_correlation([p, q], regionw, lam, cfg.delta,
                                                       cfg.n_samples, rng)
        prod = corr_f.value * corr_w.value
        prod_se = math.hypot(corr_f.stderr * corr_w.value, corr_w.stderr * corr_f.value)
        return Check("identity", conn.value, prod, conn.stderr, prod_se)

    add("connectivity-product", "two-point", connectivity_product)

    # local modifications
    add("local-modification-A", f"kappa={q}",
        lambda: randomparity.verify_local_modification_A(regionw, lam, cfg.delta, q,
                                                         cfg.n_samples, rng))
    events = {"no-cuts-on-far-site": lambda c: len(c.cuts.get(q[0], ())) == 0}
    add("local-modification-B", ", ".join(events),
        lambda: randomparity.verify_local_modification_B(regionw, lam, cfg.delta, 0,
                                                         region.r, events,
                                                         cfg.n_samples, rng))
    return rows, {"n_identities": len(rows)}, all(row["pass"] for row in rows)


# -- critical point -----------------------------------------------------------------

def _ratio_points(args) -> list[tuple[float, float, float, float | None]]:
    """R_n at every coupling of the grid, in grid order, from one stacked
    Trotter run with each coupling's chain drawn from its own stream: the
    ratio, its standard error, the flip fraction and the tau_int of C(n).
    ``SamplingError`` naming the point when a pair correlation the ratio
    reads is not positive."""
    cfg, n = args
    far = n
    lo = n // 2
    distances = sorted({max(1, lo), max(1, lo + (n % 2)), far})
    rngs = [chain_generator(cfg.seed, 10000 * n + j) for j in range(len(cfg.lam_grid))]
    region = cfg.region(n, "p", "f")
    points = []
    for lam, res in zip(cfg.lam_grid, spinrep.trotter_pair_correlations(
            region, cfg.lam_grid, cfg.delta, distances, cfg.n_sweeps, rngs, cfg.dt)):
        for distance in distances:
            value = res[distance].estimate.value
            if value <= 0:
                raise SamplingError(
                    f"pair correlation C({distance}) = {value} at n={n}, lam={lam} is not "
                    "positive; the correlation ratio needs positive pair correlations")
        c_far = res[far].estimate
        if n % 2 == 0:
            near_val = res[n // 2].estimate.value
            near_rel = res[n // 2].estimate.stderr / near_val
        else:
            a = res[max(1, lo)].estimate
            b = res[lo + 1].estimate
            near_val = math.sqrt(a.value * b.value)
            near_rel = 0.5 * math.hypot(a.stderr / a.value, b.stderr / b.value)
        ratio = c_far.value / near_val
        se = abs(ratio) * math.hypot(c_far.stderr / c_far.value, near_rel)
        points.append((ratio, se, res[far].flip_frac, res[far].tau_int))
    return points


def correlation_ratio_curves(cfg: RunConfig, workers: int = 1) -> dict:
    """R_n(lam) = C(n)/C(n/2) with spatially periodic space and r = 2n, as
    (ratio, stderr, flip fraction, tau_int of C(n)) per coupling for each
    size.

    The far distance is half the ring diameter-ish scale n, the near distance
    exactly half of it, so the distance ratio is the same for every size and
    the curves cross at the critical coupling.  Half-integer distances are
    evaluated by geometric interpolation between the neighbouring integers.
    The couplings of one size run as one task, and each (n, lam) point has
    its own chain stream, so the curves are the same for any worker count.
    """
    with _point_map(workers) as map_points:
        curves = map_points(_ratio_points, [(cfg, n) for n in cfg.n_schedule])
    return dict(zip(cfg.n_schedule, curves))


class NoCrossingError(RuntimeError):
    """Raised when the correlation-ratio curves do not cross on the grid."""


def crossing_estimate(lam_grid, curves: dict) -> tuple[float, float, list]:
    """Mean of the pairwise crossings of the ratio curves (per size, one
    tuple per coupling that starts with the ratio); the spread of a single
    crossing is the grid step."""
    crossings = spectral.pairwise_crossings(
        lam_grid, {n: [point[0] for point in values] for n, values in curves.items()})
    if not crossings:
        raise NoCrossingError("correlation-ratio curves do not cross on the grid; "
                              f"curves: {curves}")
    est = float(np.mean(crossings))
    spread = float(np.max(crossings) - np.min(crossings)) if len(crossings) > 1 else \
        float(lam_grid[1] - lam_grid[0])
    return est, spread, crossings


def estimate_lambda_c_1d(cfg: RunConfig, workers: int = 1) -> dict:
    """Crossing-point estimate of the critical coupling ratio for d = 1
    ground-state runs, with the free-fermion gap scan of 6-, 8- and 10-site
    rings as reference.  Curves that do not cross on the grid give no
    estimate and no uncertainty (None) and no crossings."""
    if cfg.d != 1:
        raise ConfigError("the crossing estimate is implemented for d = 1")
    curves = correlation_ratio_curves(cfg, workers)
    try:
        est, spread, crossings = crossing_estimate(cfg.lam_grid, curves)
    except NoCrossingError:
        est, spread, crossings = None, None, []
    else:
        est, spread = est / cfg.delta, spread / cfg.delta
    reference = spectral.gap_scaling_critical_point(
        sizes=(6, 8, 10), lam_grid=cfg.delta * np.linspace(0.8, 1.2, 9),
        delta=cfg.delta)
    return {"estimate": est, "uncertainty": spread,
            "crossings": crossings, "reference": reference["estimate"] / cfg.delta,
            "curves": {str(n): [point[:2] for point in v] for n, v in curves.items()},
            "flip_frac": {str(n): [point[2] for point in v] for n, v in curves.items()},
            "tau_int": {str(n): [point[3] for point in v] for n, v in curves.items()}}


def run_lambda_c(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    """The crossing estimate passes when it is within 15% of the free-fermion
    gap-scan reference; curves that do not cross fail."""
    t0 = time.time()
    result = estimate_lambda_c_1d(cfg, workers)
    ok = (result["estimate"] is not None and
          abs(result["estimate"] / result["reference"] - 1.0) <= 0.15)
    rows = [{"kind": cfg.kind, "method": "correlation-ratio",
             "estimate": result["estimate"], "uncertainty": result["uncertainty"],
             "reference": result["reference"], "n_sizes": len(cfg.n_schedule),
             "seed": cfg.seed, "pass": ok, "wall_time": round(time.time() - t0, 3)}]
    return rows, result, ok


DRIVERS = {
    "correlation": run_correlation,
    "magnetization-sweep": run_magnetization_sweep,
    "switching-verify": run_switching_verify,
    "irb-check": run_irb_check,
    "percolation-sweep": run_percolation_sweep,
    "identity-suite": run_identity_suite,
    "lambda-c": run_lambda_c,
}


def run_experiment(cfg: RunConfig, workers: int = 1) -> tuple[list, dict, bool]:
    driver = DRIVERS.get(cfg.kind)
    if driver is None:
        raise ConfigError(f"no driver for kind {cfg.kind!r}")
    return driver(cfg, workers)
