"""The four benchmark workloads.

Each workload is pinned by a tfim run config generated from the benchmark
seed.  ``iterate`` executes the workload's work once and is the only timed
call; ``outcome`` reads the outputs back and evaluates the correctness gate.
Every iteration of a run repeats the same config and seed, so timings compare
identical work and the gate and digest are functions of the seed alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import tfim.cli
import tfim.discrete  # imported lazily by tfim; loaded here so it can be traced
from tfim import percolation, randomparity
from tfim.config import load_config
from tfim.geometry import Box, SpaceTimeRegion
from tfim.rng import chain_generator


@dataclass
class Outcome:
    """What one iteration produced: work units, gate checks and digest input."""

    units: int
    checks: list                 # (label, passed) pairs
    digest_bytes: bytes
    n_effective: float = 0.0     # summed ESS of the ratio estimators, if any
    detail: dict = field(default_factory=dict)


def check_close(label: str, value: float, reference: float, tolerance: float) -> tuple:
    return (label, bool(abs(value - reference) <= tolerance))


def _config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _read_csv(path: Path) -> tuple[bytes, list]:
    raw = path.read_bytes()
    return raw, list(csv.DictReader(raw.decode().splitlines()))


class CliWorkload:
    """A workload that runs one or more ``tfim`` CLI invocations in-process."""

    name = ""
    unit = ""
    command = ""

    def __init__(self, out: Path, seed: int, **sizes):
        self.out = out
        self.sizes = {**self.default_sizes, **sizes}
        self.configs = {}
        for kind, values in self.config_values().items():
            path = out / f"{kind}.cfg"
            path.write_text(_config_text({"kind": kind, **values, "seed": seed,
                                          "out_prefix": "bench"}))
            self.configs[kind] = path
        self.codes = {}

    def iterate(self) -> None:
        for kind, path in self.configs.items():
            self.codes[kind] = tfim.cli.main(
                [self.command, "--config", str(path), "--workers", "1",
                 "--out", str(self.out), "--format", "both"])

    def outputs(self, kind: str) -> tuple[bytes, list, dict]:
        raw, rows = _read_csv(self.out / f"bench-{kind}.csv")
        payload = json.loads((self.out / f"bench-{kind}.json").read_text())
        return raw, rows, payload

    def exit_checks(self) -> list:
        return [(f"{kind}: exit code 0", self.codes.get(kind) == 0) for kind in self.configs]


class Estimators(CliWorkload):
    """``tfim run`` kind correlation; unit: one estimator sample."""

    name = "estimators"
    unit = "sample"
    command = "run"
    default_sizes = {"n_samples": 1000}
    lam_grid = (0.5, 1.0, 1.5)

    def config_values(self) -> dict:
        return {"correlation": {
            "d": 1, "n": 1, "beta": 1.0, "bc_space": "f", "bc_time": "p",
            "lam": ", ".join(map(str, self.lam_grid)), "delta": 1.0,
            "n_samples": self.sizes["n_samples"], "n_chains": 1,
            "point_site": 1, "point_time": 0.0}}

    def outcome(self) -> Outcome:
        raw, rows, _ = self.outputs("correlation")
        return Outcome(units=self.sizes["n_samples"] * len(self.lam_grid),
                       checks=self.exit_checks() + gate_estimators(rows),
                       digest_bytes=raw,
                       n_effective=sum(float(r["n_effective"]) for r in rows
                                       if r["method"] != "oracle"))


def gate_estimators(rows: list, n_se: float = 3.0) -> list:
    """Spin and random-parity estimates agree with the oracle row at 3 SE."""
    oracle = {r["lam"]: float(r["estimate"]) for r in rows if r["method"] == "oracle"}
    checks = []
    for r in rows:
        if r["method"] == "oracle":
            continue
        exact = oracle.get(r["lam"])
        label = f"lam={r['lam']} {r['method']} vs oracle at {n_se} SE"
        if exact is None:
            checks.append((label, False))
        else:
            checks.append(check_close(label, float(r["estimate"]), exact,
                                      n_se * float(r["stderr"])))
    return checks or [("estimator rows present", False)]


class CriticalPoint(CliWorkload):
    """``tfim sweep`` kind lambda-c; unit: one Trotter sweep, burn-in included."""

    name = "critical-point"
    unit = "sweep"
    command = "sweep"
    default_sizes = {"n_sweeps": 100, "n_schedule": (3, 4, 5, 6)}
    lam_grid = (0.8, 0.9, 1.0, 1.1, 1.2)

    def config_values(self) -> dict:
        return {"lambda-c": {
            "d": 1, "ground_state": "true",
            "n_schedule": ", ".join(map(str, self.sizes["n_schedule"])),
            "lam": ", ".join(map(str, self.lam_grid)), "delta": 1.0, "dt": 0.1,
            "n_sweeps": self.sizes["n_sweeps"]}}

    def outcome(self) -> Outcome:
        raw, _, payload = self.outputs("lambda-c")
        n_sweeps = self.sizes["n_sweeps"]
        per_point = n_sweeps + n_sweeps // 5      # TrotterSampler.run burn-in
        units = per_point * len(self.sizes["n_schedule"]) * len(self.lam_grid)
        return Outcome(units=units,
                       checks=self.exit_checks() + gate_critical_point(payload["summary"]),
                       digest_bytes=raw,
                       detail={"estimate": payload["summary"]["estimate"],
                               "reference": payload["summary"]["reference"]})


def gate_critical_point(summary: dict, target: float = 1.0) -> list:
    """Criterion 9: a crossing exists, |estimate - 1| <= 0.15 and
    |reference - 1| <= 0.05.  Computed here because run_lambda_c always
    reports ok."""
    return [("crossing exists", bool(summary.get("crossings"))),
            check_close("crossing estimate within 0.15 of 1",
                        summary["estimate"], target, 0.15),
            check_close("gap-scan reference within 0.05 of 1",
                        summary["reference"], target, 0.05)]


class VerifySuite(CliWorkload):
    """``tfim verify --config`` for the three verification kinds; unit: one
    result row checked."""

    name = "verify-suite"
    unit = "row"
    command = "verify"
    default_sizes = {"n_samples": 300}

    def config_values(self) -> dict:
        base = {"d": 1, "n": 1, "beta": 1.0, "bc_space": "f", "bc_time": "p",
                "lam": 1.0, "delta": 1.0, "n_samples": self.sizes["n_samples"],
                "point_site": 1, "point_time": 0.25}
        return {"switching-verify": base, "identity-suite": base,
                "irb-check": {**base, "n_schedule": "2, 3"}}

    def outcome(self) -> Outcome:
        digest = b""
        payloads = {}
        for kind in self.configs:
            raw, _, payloads[kind] = self.outputs(kind)
            digest += raw
        units = sum(len(p["rows"]) for p in payloads.values())
        return Outcome(units=units, checks=self.exit_checks() + gate_verify(payloads),
                       digest_bytes=digest)


def gate_verify(payloads: dict, exact_tol: float = 1e-12,
                slack_tol: float = -1e-9) -> list:
    """Every switching and identity row passes, exact switching holds to
    1e-12 and the worst infrared-bound slack is at least -1e-9."""
    checks = []
    for kind in ("switching-verify", "identity-suite"):
        for row in payloads[kind]["rows"]:
            label = f"{kind} {row.get('identity', '')} {row['case']}".replace("  ", " ")
            checks.append((f"{label} passes", row["pass"] is True))
            if row.get("mode") == "exact":
                checks.append((f"{label} exact to {exact_tol}",
                               abs(row["lhs"] - row["rhs"]) <= exact_tol))
    irb = payloads["irb-check"]
    worst = min(row["slack"] for row in irb["rows"])
    checks.append((f"irb worst slack >= {slack_tol}", worst >= slack_tol))
    return checks


class LeafBound:
    """The criterion-10 shape, calling the public functions directly:
    sample_coupled -> trifurcation_diagnostic -> cluster_report.

    Its parameters are read from a percolation-sweep config, the kind whose
    CLI run raises ZeroDivisionError at this size (see NOTES.md).
    Unit: one coupled configuration."""

    name = "leaf-bound"
    unit = "configuration"
    default_sizes = {"n_configs": 150}

    def __init__(self, out: Path, seed: int, **sizes):
        self.sizes = {**self.default_sizes, **sizes}
        path = out / "percolation-sweep.cfg"
        path.write_text(_config_text({
            "kind": "percolation-sweep", "d": 1, "n": 4, "ground_state": "true",
            "bc_space": "w", "bc_time": "f", "lam": 1.0, "delta": 1.0,
            "n_samples": self.sizes["n_configs"], "seed": seed}))
        self.configs = {"percolation-sweep": path}
        self.reports = []

    def iterate(self) -> None:
        cfg = load_config(self.configs["percolation-sweep"])
        region = SpaceTimeRegion.ground_state(Box(cfg.d, cfg.n), "w", "f")
        lam, delta = cfg.lam_grid[0], cfg.delta
        rng = chain_generator(cfg.seed, 0)
        reports = []
        for _ in range(cfg.n_samples):
            c = randomparity.sample_coupled(region, lam, delta, (), (), rng)
            trif = percolation.trifurcation_diagnostic(c, 1, 1.0, delta)
            clusters = percolation.cluster_report(c)
            reports.append((c.weight, trif, clusters))
        self.reports = reports
        self.leaf_bound = percolation.leaf_bound(region, delta)

    def outcome(self) -> Outcome:
        lines = [f"{w!r},{t.n_trifurcations},{t.n_boundary_intervals},{t.n_probes},"
                 f"{t.n_clipped},{c.n_clusters},{c.boundary_touching},"
                 f"{c.largest_cluster_measure!r}" for (w, t, c) in self.reports]
        trifs = [t for (_, t, _) in self.reports]
        return Outcome(units=len(self.reports),
                       checks=gate_leaf_bound(trifs, self.leaf_bound),
                       digest_bytes="\n".join(lines).encode())


def gate_leaf_bound(reports: list, bound: float, n_se: float = 3.0) -> list:
    """Criterion 10: no configuration has more trifurcations than boundary
    intervals, and the mean boundary-interval count is within the leaf bound
    plus 3 SE."""
    violations = sum(r.n_trifurcations > r.n_boundary_intervals for r in reports)
    counts = [r.n_boundary_intervals for r in reports]
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts)) if len(counts) > 1 else math.inf
    return [("no leaf violations", violations == 0),
            (f"mean boundary intervals <= leaf bound + {n_se} SE",
             mean <= bound + n_se * se)]


WORKLOADS = {w.name: w for w in (Estimators, LeafBound, CriticalPoint, VerifySuite)}


def digest(outcome: Outcome) -> str:
    return hashlib.sha256(outcome.digest_bytes).hexdigest()
