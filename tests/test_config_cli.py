import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfim import experiments
from tfim.cli import main, write_json
from tfim.config import ConfigError, load_config, parse_config_json, parse_config_text
from tfim.geometry import Box, SpaceTimeRegion

TEXT_CONFIG = """
# comment line
kind = correlation
d = 1
n = 1
beta = 1.0
bc_space = f
bc_time = p
lam = 0.5, 1.0
delta = 1.0
n_samples = 200
n_chains = 2
seed = 7
point_site = 1
point_time = 0.0
"""


def test_parse_text_config():
    cfg = parse_config_text(TEXT_CONFIG)
    assert cfg.kind == "correlation"
    assert cfg.lam_grid == [0.5, 1.0]
    assert cfg.point_site == (1,)
    assert cfg.n_chains == 2


def test_parse_json_config():
    payload = {"kind": "correlation", "beta": 1.0, "lam_grid": [1.0],
               "seed": 3, "n_samples": 100, "point_site": [1]}
    cfg = parse_config_json(json.dumps(payload))
    assert cfg.lam_grid == [1.0]
    assert cfg.point_site == (1,)


@pytest.mark.parametrize("mutation,message", [
    ({"lam_grid": []}, "empty coupling grid"),
    ({"lam_grid": [1.0, 0.5]}, "strictly increasing"),
    ({"seed": None}, "seed"),
    ({"kind": "nonsense"}, "unknown experiment kind"),
    ({"bc_space": "x"}, "bc_space must be f, w or p"),
    ({"bc_time": "q"}, "bc_time must be f, w or p"),
    ({"n_samples": "abc"}, "bad value for n_samples"),
    ({"delta": "1.0.0"}, "bad value for delta"),
    ({"delta": 0.0}, "delta must be positive"),
    ({"lam_grid": [-0.5, 1.0]}, "couplings must be nonnegative"),
    ({"dt": 0.0}, "dt and n_sweeps must be positive"),
    ({"n_sweeps": 0}, "dt and n_sweeps must be positive"),
    ({"point_site": [1, 0]}, "needs d = 1 coordinates"),
    ({"point_site": [5]}, "outside the box"),
    ({"point_time": 0.75}, r"point_time 0.75 must lie in \[-0.5, 0.5\]"),
    ({"bc_time": "f", "point_time": 0.5}, r"point_time 0.5 must lie in \(-0.5, 0.5\)"),
    ({"point_site": []}, "correlation needs point_site"),
    ({"kind": "identity-suite", "point_site": []}, "identity-suite needs point_site"),
    ({"n_schedule": [2, -1]}, "n_schedule entries must be nonnegative"),
    ({"beta": None, "ground_state": True, "n": 0}, r"ground-state runs .* need n >= 1"),
    ({"beta": None, "ground_state": True, "n_schedule": [2, 0]},
     r"ground-state runs .* n_schedule entries >= 1"),
    ({"kind": "irb-check", "n": 0}, r"irb-check .* need n >= 1"),
    ({"kind": "irb-check", "n_schedule": [0, 2]}, r"irb-check .* n_schedule entries >= 1"),
    ({"seed": -1}, r"seed -1 must lie in \[0, 2\^64\)"),
    ({"seed": 2**64}, r"seed 18446744073709551616 must lie in"),
    ({"beta": float("nan")}, "beta must be finite, not nan"),
    ({"beta": float("inf")}, "beta must be finite, not inf"),
    ({"delta": float("nan")}, "delta must be finite"),
    ({"lam_grid": [float("nan")]}, "couplings must be finite"),
    ({"lam_grid": [0.5, float("inf")]}, "couplings must be finite"),
    ({"point_time": float("nan")}, "point_time must be finite"),
    ({"dt": float("inf")}, "dt must be finite"),
    ({"kind": "irb-check", "l_max_factor": -1}, "l_max_factor must be nonnegative"),
    ({"kind": "irb-check", "beta": None, "ground_state": True, "l_max_factor": 2},
     "irb-check is a finite-temperature run"),
    ({"point_site": [0]}, "must differ from the origin"),
    ({"kind": "switching-verify", "point_site": [0], "point_time": -0.0},
     "must differ from the origin"),
    ({"kind": "identity-suite", "point_site": [0]}, "must differ from the origin"),
    # within 1e-12 of an interval end, where the samplers reject a point
    ({"bc_time": "f", "point_time": 0.4999999999999},
     r"point_time 0.4999999999999 must lie in \(-0.5, 0.5\)"),
])
def test_validation_errors(mutation, message):
    payload = {"kind": "correlation", "beta": 1.0, "lam_grid": [1.0],
               "seed": 3, "point_site": [1]}
    payload.update(mutation)
    with pytest.raises(ConfigError, match=message):
        parse_config_json(json.dumps(payload))


def test_region_takes_overrides_and_ground_state_free_time():
    payload = {"kind": "correlation", "d": 2, "n": 1, "beta": 3.0, "bc_space": "w",
               "bc_time": "p", "lam_grid": [1.0], "seed": 3, "point_site": [1, 0]}
    cfg = parse_config_json(json.dumps(payload))
    assert cfg.region() == SpaceTimeRegion(Box(2, 1), 3.0, "w", "p")
    assert cfg.region(2, "f", "f") == SpaceTimeRegion(Box(2, 2), 3.0, "f", "f")
    payload.update(beta=None, ground_state=True)
    cfg = parse_config_json(json.dumps(payload))
    # time length 2n, and periodic time is taken as free
    assert cfg.region() == SpaceTimeRegion(Box(2, 1), 2.0, "w", "f", beta_infinite=True)
    assert cfg.region(3, bc_time="w") == SpaceTimeRegion(Box(2, 3), 6.0, "w", "w",
                                                         beta_infinite=True)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("kind = correlation\nwibble = 3\nseed = 1\nlam = 1.0\nbeta=1")


def _write_config(tmp_path, text=TEXT_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_run_produces_deterministic_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    a = (out1 / "run-correlation.csv").read_bytes()
    b = (out2 / "run-correlation.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header.startswith("kind,method,d,n,r,bc_space,bc_time,lam,delta,estimate")


def test_cli_bad_config_exits_two(tmp_path):
    cfg = _write_config(tmp_path, TEXT_CONFIG.replace("lam = 0.5, 1.0", "lam ="))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line", ["bc_space = x", "n_samples = abc", "delta = -1",
                                  "point_site = 5", "point_site =", "dt = 0",
                                  "n_sweeps = 0", "seed = -1", "beta = nan", "lam = inf",
                                  "point_time = nan", "--seed -1", "point_site = 0",
                                  "bc_time = f\npoint_time = 0.4999999999999",
                                  "kind = irb-check\nground_state = true\nbeta = none"])
def test_cli_bad_value_exits_two(tmp_path, capsys, line):
    # a line starting with -- is a command-line flag, not a config line
    flags = line.split() if line.startswith("--") else []
    cfg = _write_config(tmp_path, TEXT_CONFIG + ("" if flags else line + "\n"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("seed", ["-3", "18446744073709551616"])
def test_cli_verify_seed_out_of_range_exits_two(tmp_path, capsys, seed):
    assert main(["verify", "--seed", seed, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: seed ")
    assert not (tmp_path / "o").exists()


def test_cli_empty_ground_state_box_exits_two(tmp_path, capsys):
    # time length 2n = 0: used to pass validation and stop with exit 3
    cfg = _write_config(tmp_path, """
kind = percolation-sweep
ground_state = true
n = 0
bc_space = w
bc_time = f
lam = 1.0
n_samples = 4
seed = 1
""", name="perc.cfg")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_missing_file_exits_two(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_seed_override(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "99"])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "100"])
    a = (out1 / "run-correlation.csv").read_text()
    b = (out2 / "run-correlation.csv").read_text()
    assert a != b


def test_cli_switching_verify_exit_zero(tmp_path):
    cfg = _write_config(tmp_path, """
kind = switching-verify
d = 1
n = 1
beta = 1.0
bc_space = w
bc_time = p
lam = 1.0
delta = 1.0
n_samples = 2000
seed = 5
point_site = 1
point_time = 0.25
""", name="sw.cfg")
    out = tmp_path / "sw"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "run-switching-verify.json").read_text())["rows"]
    exact = [r for r in rows if r["mode"] == "exact"]
    assert exact and all(r["gap"] <= 1e-12 for r in exact)


def test_cli_json_config_and_entry_point(tmp_path):
    payload = {"kind": "correlation", "beta": 1.0, "lam_grid": [1.0], "seed": 11,
               "n_samples": 100, "n_chains": 1, "point_site": [1],
               "point_time": 0.0, "d": 1, "n": 1}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "oj"
    r = subprocess.run([sys.executable, "-m", "tfim.cli", "run", "--config",
                        str(cfg), "--out", str(out), "--format", "json"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    data = json.loads((out / "run-correlation.json").read_text())
    assert data["ok"] is True
    methods = {row["method"] for row in data["rows"]}
    assert {"spin", "random-parity", "oracle"} <= methods


def test_cli_crash_exits_three(tmp_path, capsys):
    # ground state, N = 4, wired space: every coupled weight of the pool is zero
    cfg = _write_config(tmp_path, """
kind = percolation-sweep
d = 1
n = 4
ground_state = true
bc_space = w
bc_time = f
lam = 1.0
delta = 1.0
n_samples = 4
n_chains = 1
seed = 1
""", name="perc.cfg")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "SamplingError" in err and "lam=1.0" in err and "zero" in err


def test_cli_correlation_all_zero_pool_exits_three(tmp_path, capsys):
    # 11 sites at beta = 6: every source-free labelling of the pool is inconsistent
    cfg = _write_config(tmp_path, """
kind = correlation
d = 1
n = 5
beta = 6.0
bc_space = f
bc_time = p
lam = 1.0
delta = 1.0
n_samples = 20
n_chains = 1
point_site = 1
point_time = 0.0
seed = 1
""", name="zero.cfg")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "SamplingError" in err and "denominator" in err and "lam=1.0" in err
    assert "ZeroDivisionError" not in err


def test_cli_identity_suite_all_zero_coupled_pool_exits_three(tmp_path, capsys):
    # every coupled weight of the connectivity-product pool is zero; it used
    # to stop with a bare ZeroDivisionError, and then with that row's
    # SamplingError before the other rows ran
    cfg = _write_config(tmp_path, """
kind = identity-suite
d = 1
n = 1
beta = 1.0
bc_space = f
bc_time = f
lam = 1.0
delta = 1.0
n_samples = 60
point_site = 1
point_time = 0.1
seed = 6
""", name="ident.cfg")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "SamplingError: all 60 weights of the source-free coupled pool at lam=1.0" in err
    assert "ZeroDivisionError" not in err
    rows = json.loads((tmp_path / "i" / "run-identity-suite.json").read_text())["rows"]
    assert len(rows) == 14
    assert [(r["identity"], r["lhs"]) for r in rows if not r["pass"]] == \
        [("connectivity-product", None)]
    failing = json.loads((tmp_path / "i" / "run-identity-suite-failures.json").read_text())
    assert [r["error"] for r in failing["failing"]] == [err.strip().removeprefix("error: ")]


@pytest.mark.parametrize("seed,point", [(1, "C(2) = -0.03809523809523809 at n=3, lam=0.0"),
                                        (5, "C(3) = 0.0 at n=3, lam=0.0")])
def test_cli_lambda_c_non_positive_correlation_exits_three(tmp_path, capsys, seed, point):
    # five sweeps at lam = 0: a pair correlation estimate comes out negative
    # or zero; it used to stop with a math domain error or a float division
    cfg = _write_config(tmp_path, f"""
kind = lambda-c
d = 1
ground_state = true
n_grid = 3, 4
lam = 0.0, 0.5
delta = 1.0
n_sweeps = 5
dt = 0.5
seed = {seed}
""", name="lc.cfg")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "lc")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"SamplingError: pair correlation {point} is not positive" in err
    assert not (tmp_path / "lc" / "run-lambda-c.csv").exists()


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3)])
def test_write_json_rejects_numpy_scalars(tmp_path, value):
    # a numpy bool or integer is no JSON value; it is not written as a string
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "x.json", {"rows": [{"pass": value}]})


def test_cli_numpy_scalar_in_a_row_exits_three(tmp_path, monkeypatch, capsys):
    def driver(cfg, workers=1):
        return [{"kind": cfg.kind, "case": "numpy", "pass": np.bool_(True)}], {}, True

    monkeypatch.setitem(experiments.DRIVERS, "switching-verify", driver)
    cfg = _write_config(tmp_path, "kind = switching-verify\nbeta = 1.0\nlam = 1.0\n"
                                  "seed = 1\npoint_site = 1\n", name="v.cfg")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 3
    assert "TypeError" in capsys.readouterr().err


@pytest.mark.parametrize("argv,seed", [([], 1), (["--seed", "0"], 0), (["--seed", "5"], 5)])
def test_cli_verify_default_seed(monkeypatch, tmp_path, argv, seed):
    seen = []
    monkeypatch.setattr("tfim.cli._run_and_emit", lambda cfg, args: seen.append(cfg.seed) or 0)
    assert main(["verify", "--out", str(tmp_path), *argv]) == 0
    assert seen == [seed] * 3
