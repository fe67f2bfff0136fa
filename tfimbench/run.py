"""tfim benchmark: four pinned workloads with end-to-end and per-layer metrics.

    python3 tfimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the tfim package is imported
from ``src/`` next to this directory.  Each run measures set-up in fresh
interpreter processes, then repeats the workload's pinned work in this one
process (``workers = 1``) for ``--seconds`` seconds after an untimed reference
iteration.  Set-up and iteration times are scaled to a reference machine
speed (``speed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the tfim
layer boundaries and reports per-layer metrics plus the tracing overhead.
The last stdout line is the JSON result; a fuller record (environment,
digest, timings, gate failures) goes to
``.bench_out/result-<workload>-s<seed>-t<trace>.json``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6
# One BLAS thread, like workers = 1: the two-core hosts this runs on are
# shared, and the exact-diagonalization calls are a small share of any load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("estimators", "leaf-bound", "critical-point", "verify-suite")

# Fresh interpreter, import tfim (numpy and scipy load eagerly), load and
# validate the workload's configs, then report the monotonic clock.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import tfim.cli
for path in sys.argv[2:]:
    tfim.cli.load_config(path)
print(time.monotonic())
"""


def measure_setup(configs: list, env: dict, speed) -> tuple[list, list]:
    """Wall and reference-scaled seconds to ready of ``SETUP_PROBES`` fresh
    processes, each bracketed by the reference kernel."""
    wall, scaled = [], []
    kernel = speed.kernel_times()
    for _ in range(SETUP_PROBES):
        start = monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *configs],
                              capture_output=True, text=True, env=env, timeout=120,
                              check=True)
        wall.append(float(proc.stdout.split()[-1]) - start)
        after = speed.kernel_times()
        scaled.append(speed.scaled(wall[-1], kernel + after))
        kernel = after
    return wall, scaled


def environment(seed: int) -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]), "seed": seed}


def confirmation_seed(seed: int) -> int:
    """An independent tfim seed derived from the benchmark seed."""
    return (seed + 2**32) % 2**64


def failing(result) -> set:
    return {label for label, passed in result.checks if not passed}


class Checks:
    """Gate checks over all iterations; an exception is one failed check.

    The 3-SE checks are statistical, so on correct code each misses for about
    0.27% of seeds.  A check that fails on the run's seed is therefore
    repeated once on an independent seed (``confirmation_seed``), and counts
    as failed only if it fails there too.  Deterministic checks fail on both.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = set()
        self.excused = set()     # failed on the seed, passed on the confirmation

    def confirm(self, reference, run_confirmation) -> None:
        if isinstance(reference, Exception) or not failing(reference):
            return
        repeat = run_confirmation()
        if not isinstance(repeat, Exception):
            self.excused = failing(reference) - failing(repeat)

    def record(self, result) -> None:
        if isinstance(result, Exception):
            result = [(f"crash: {type(result).__name__}: {result}", False)]
        else:
            result = result.checks
        for label, passed in result:
            self.attempted += 1
            if not passed and label not in self.excused:
                self.failed += 1
                self.failures.add(label)


def run_iteration(workload, tracer=None, timer=None):
    """Time one execution of the workload's work, less the kernel runs of
    ``timer`` (a ``speed.KernelTimer``) inside it; return the time and either
    its outcome or the exception it raised."""
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        with timer or nullcontext():
            workload.iterate()
        error = None
    except Exception as exc:  # a crash of the program under test is a failed check
        error = exc
    finally:
        elapsed = perf_counter() - start - (timer.spent if timer else 0.0)
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            return elapsed, workload.outcome()
        except Exception as exc:
            error = exc
    traceback.print_exception(error, file=sys.stderr)
    return elapsed, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (tfim seeds are unsigned)")
    if not (SRC / "tfim" / "__init__.py").is_file():
        print(f"tfimbench: no tfim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import speed
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS, digest

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    checks = Checks()

    speed.reference_kernel()  # warm-up
    setup_wall, setup = ([], []) if args.trace else measure_setup(
        [str(p) for p in workload.configs.values()], dict(os.environ), speed)
    reference_s, reference = run_iteration(workload)

    def run_confirmation():
        (work / "confirm").mkdir()
        repeat = WORKLOADS[args.workload](work / "confirm", confirmation_seed(args.seed))
        return run_iteration(repeat)[1]

    checks.confirm(reference, run_confirmation)
    checks.record(reference)
    tracer = Tracer(args.workload) if args.trace else None
    raw = {"untraced": [], "traced": []}
    times = {"untraced": [], "traced": []}
    kernel = speed.kernel_times()
    start = perf_counter()
    cycles = 0
    # stop before a cycle that would end past --seconds, but run at least one
    while not cycles or (perf_counter() - start) * (cycles + 1) / cycles <= args.seconds:
        cycles += 1
        # traced runs alternate with untraced ones, so both see the same drift
        for mode in ("untraced", "traced") if tracer else ("untraced",):
            if mode == "traced":
                tracer.iteration = len(raw["traced"]) + 1
            # kernel runs inside an iteration would land in its spans when traced
            timer = speed.KernelTimer(active=mode == "untraced")
            elapsed, result = run_iteration(workload, tracer if mode == "traced" else None,
                                            timer)
            raw[mode].append(elapsed)
            after = speed.kernel_times()
            times[mode].append(speed.scaled(elapsed, kernel + timer.times + after))
            kernel = after
            checks.record(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_s = statistics.median(times["untraced"])
    if isinstance(reference, Exception):
        reference = None
    units = reference.units if reference else 0
    n_effective = reference.n_effective if reference else 0.0
    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "run_s": (run_s, "s"),
                   "units_per_s": (units / run_s, "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        # span times are wall seconds; scale them by the traced iterations' speed
        factor = statistics.median(t / w for t, w in zip(times["traced"], raw["traced"]))
        metrics = per_layer_metrics(tracer, len(raw["traced"]), factor)
        overhead = statistics.median(times["traced"]) - run_s
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / run_s, "ratio")
        metrics["stats.n_effective"] = (n_effective, "count")
        metrics["stats.ess_per_s"] = (n_effective / run_s, "1/s")
        tracer.write_spans(OUT / f"spans-{tag}.csv.gz")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "unit": workload.unit, "units_per_iteration": units,
        "environment": environment(args.seed),
        "digest": digest(reference) if reference else None,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "fail_ratio": checks.failed / max(checks.attempted, 1),
                   "failures": sorted(checks.failures),
                   "excused_by_confirmation": sorted(checks.excused)},
        "detail": reference.detail if reference else {},
        "reference_s": reference_s,
        "scaled_s": {"setup": setup, **times},
        "wall_s": {"setup": setup_wall, **raw},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, samples in record["wall_s"].items():
        if samples:
            print(f"wall-clock {name} median {statistics.median(samples):.6g} s "
                  f"(n={len(samples)}, not scaled)")
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"fail_ratio={record['checks']['fail_ratio']:.4g}")
    for label in sorted(checks.failures):
        print(f"FAILED: {label}")
    for label in sorted(checks.excused):
        print(f"failed on the seed, passed on the confirmation seed: {label}")
    print(f"digest {record['digest']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
