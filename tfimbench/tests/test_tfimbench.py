"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q tfimbench/tests
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import tfim.spinrep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"estimators": {"n_samples": 60},
        "leaf-bound": {"n_configs": 4},
        "critical-point": {"n_sweeps": 64, "n_schedule": (3, 4)},
        "verify-suite": {"n_samples": 150}}


def tiny(name, out, seed, **extra):
    out.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](out, seed, **{**TINY[name], **extra})


def run_once(name, seed, tmp_path):
    wl = tiny(name, tmp_path / f"{name}-{seed}", seed)
    wl.iterate()
    return wl, wl.outcome()


def failed_labels(checks):
    return [label for label, passed in checks if not passed]


def test_benchmark_json_names_the_workloads_and_metrics():
    assert SPEC["command"] == ["python3", "tfimbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_run_prints_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "default_sizes", {**cls.default_sizes, **TINY[name]})
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads((tmp_path / f"result-{name}-s3-t{trace}.json").read_text())
    assert {"git_sha", "nproc", "python", "numpy", "scipy", "blas_vendor",
            "blas_threads", "seed"} <= set(record["environment"])
    assert record["environment"]["seed"] == 3
    if trace:
        assert (tmp_path / f"spans-{name}-s3-t1.csv.gz").is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_estimators_gate_fails_on_a_wrong_oracle(tmp_path):
    _, outcome = run_once("estimators", 5, tmp_path)
    assert failed_labels(outcome.checks) == []
    rows = workloads._read_csv(tmp_path / "estimators-5" / "bench-correlation.csv")[1]
    for row in rows:
        if row["method"] == "oracle":
            row["estimate"] = str(float(row["estimate"]) + 2.0)
    assert len(failed_labels(workloads.gate_estimators(rows))) == 6


def test_leaf_bound_gate_fails_on_a_wrong_bound(tmp_path):
    wl, outcome = run_once("leaf-bound", 5, tmp_path)
    assert failed_labels(outcome.checks) == []
    reports = [t for (_, t, _) in wl.reports]
    assert failed_labels(workloads.gate_leaf_bound(reports, 1.0)) == \
        ["mean boundary intervals <= leaf bound + 3.0 SE"]


def test_critical_point_gate_fails_on_a_wrong_reference():
    good = {"crossings": [0.97, 1.02], "estimate": 0.995, "reference": 0.9988}
    assert failed_labels(workloads.gate_critical_point(good)) == []
    assert failed_labels(workloads.gate_critical_point({**good, "reference": 1.2})) == \
        ["gap-scan reference within 0.05 of 1"]
    assert failed_labels(workloads.gate_critical_point(good, target=1.3)) == \
        ["crossing estimate within 0.15 of 1", "gap-scan reference within 0.05 of 1"]
    assert failed_labels(workloads.gate_critical_point({**good, "crossings": []})) == \
        ["crossing exists"]


def test_verify_gate_fails_on_wrong_references(tmp_path):
    wl, outcome = run_once("verify-suite", 5, tmp_path)
    assert failed_labels(outcome.checks) == []
    payloads = {kind: wl.outputs(kind)[2] for kind in wl.configs}
    exact = payloads["switching-verify"]["rows"][0]
    exact["rhs"] += 1e-9
    payloads["irb-check"]["rows"][0]["slack"] = -1e-6
    assert failed_labels(workloads.gate_verify(payloads)) == [
        f"switching-verify {exact['case']} exact to 1e-12",
        "irb worst slack >= -1e-09"]


@pytest.mark.parametrize("name", ["estimators", "leaf-bound", "verify-suite"])
def test_digest_depends_only_on_the_seed(name, tmp_path):
    first = workloads.digest(run_once(name, 7, tmp_path / "a")[1])
    again = workloads.digest(run_once(name, 7, tmp_path / "b")[1])
    other = workloads.digest(run_once(name, 8, tmp_path / "c")[1])
    assert first == again != other


def test_critical_point_rows_repeat_except_the_gap_reference(tmp_path):
    """Only the eigsh-based reference varies between reruns of one seed."""
    outputs = []
    for sub in ("a", "b"):
        wl, _ = run_once("critical-point", 7, tmp_path / sub)
        outputs.append(wl.outputs("lambda-c")[1])
    strip = [[{k: v for k, v in row.items() if k != "reference"} for row in rows]
             for rows in outputs]
    assert strip[0] == strip[1]
    assert all(abs(float(a["reference"]) - float(b["reference"])) < 1e-9
               for a, b in zip(*outputs))


class _Outcome:
    def __init__(self, *failing):
        self.checks = [("a", "a" not in failing), ("b", "b" not in failing)]


def test_a_check_failing_only_on_the_seed_is_excused():
    checks = run.Checks()
    checks.confirm(_Outcome("a", "b"), lambda: _Outcome("b"))
    checks.record(_Outcome("a", "b"))
    checks.record(RuntimeError("boom"))
    assert (checks.attempted, checks.failed) == (3, 2)
    assert checks.failures == {"b", "crash: RuntimeError: boom"}
    assert checks.excused == {"a"}


def test_a_crash_in_the_confirmation_excuses_nothing():
    checks = run.Checks()
    checks.confirm(_Outcome("a"), lambda: RuntimeError("boom"))
    checks.record(_Outcome("a"))
    assert (checks.attempted, checks.failed) == (2, 1)


def test_tracer_restores_the_package_and_measures_self_time(tmp_path):
    original = tfim.spinrep.sample_apriori
    wl = tiny("estimators", tmp_path, 3)
    tracer = spans.Tracer("estimators")
    tracer.install()
    try:
        wl.iterate()
    finally:
        tracer.uninstall()
    assert tfim.spinrep.sample_apriori is original
    assert "__wrapped__" not in vars(tfim.spinrep.TrotterSampler.sweep)
    metrics = spans.per_layer_metrics(tracer, 1)
    assert metrics["spinrep.sample_apriori.calls"] == (180, "count")
    assert metrics["experiments.run_experiment.calls"] == (1, "count")
    total_self = sum(v for k, (v, _) in metrics.items()
                     if k.endswith(".self_s") and k.count(".") == 1)
    top = [i for i, (_, start, end, parent, _) in enumerate(tracer.spans) if parent < 0]
    assert math.isclose(total_self, sum(tracer.spans[i][2] - tracer.spans[i][1]
                                        for i in top), rel_tol=1e-9)


def test_kernel_timer_is_taken_out_of_the_iteration(monkeypatch):
    monkeypatch.setattr(speed, "SAMPLE_EVERY_S", 0.1)
    previous = signal.getsignal(signal.SIGALRM)

    class Busy:
        def iterate(self):
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass

        def outcome(self):
            return "done"

    timer = speed.KernelTimer()
    elapsed, outcome = run.run_iteration(Busy(), timer=timer)
    assert outcome == "done" and len(timer.times) >= 2
    assert math.isclose(elapsed + timer.spent, 0.5, rel_tol=0.2)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_one_stalled_kernel_run_does_not_rescale():
    assert speed.trimmed_mean([0.025, 0.026, 0.1, 0.024]) == pytest.approx(0.025)
    assert speed.scaled(2.0, [speed.REFERENCE_S / 2] * 4) == pytest.approx(4.0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "tfimbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "tfimbench/run.py", "--workload", "estimators",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
