import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfim.cli import main as cli_main
from tfim.config import ConfigError, RunConfig
from tfim import experiments as ex
from tfim import spinrep as sr
from tfim.rng import chain_generator
from tfim.stats import Estimate, RatioAccumulator

from overlap_reference import ref_log_weight

SRC = Path(__file__).resolve().parent.parent / "src"


def make_config(**overrides):
    base = dict(kind="correlation", d=1, n=1, beta=1.0, bc_space="f",
                bc_time="p", lam_grid=[1.0], delta=1.0, n_samples=400,
                n_chains=1, seed=5, point_site=(1,), point_time=0.0)
    base.update(overrides)
    return RunConfig(**base).validate()


def test_correlation_driver_emits_three_methods():
    rows, summary, ok = ex.run_correlation(make_config())
    assert ok
    methods = [r["method"] for r in rows]
    assert methods == ["spin", "random-parity", "oracle"]
    oracle = next(r for r in rows if r["method"] == "oracle")
    spin = next(r for r in rows if r["method"] == "spin")
    assert abs(spin["estimate"] - oracle["estimate"]) <= 4 * spin["stderr"]


def test_correlation_spin_row_pools_chains_under_one_maximum():
    # long lines: no draw reaches the largest possible weight, so the two
    # chains' largest log-weights differ
    cfg = make_config(beta=4.0, delta=2.0, n_chains=2, n_samples=200, lam_grid=[1.5])
    rows, _, _ = ex.run_correlation(cfg)
    spin = next(r for r in rows if r["method"] == "spin")
    region = cfg.region()
    points = [((0,), 0.0), ((1,), 0.0)]
    logs, vals = [], []
    for chain in range(2):
        rng = chain_generator(cfg.seed, chain)
        for _ in range(cfg.n_samples):
            config = sr.sample_apriori(region, cfg.delta, rng)
            logs.append(ref_log_weight(config, 1.5, region.edge_set().edges))
            vals.append(config.product_over(points))
    w = np.exp(np.array(logs) - max(logs))
    assert spin["estimate"] == pytest.approx((w * vals).sum() / w.sum(), rel=1e-12)
    assert spin["n_effective"] == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-12)
    acc = RatioAccumulator.of(w * vals, w, covariance=True)
    assert spin["stderr"] == acc.estimate("pool").stderr


CORRELATION_CONFIGS = {
    "estimators-2-chains":
        "kind = correlation\nd = 1\nn = 1\nbeta = 1.0\nbc_space = f\n"
        "bc_time = p\nlam = 0.5, 1.0, 1.5\ndelta = 1.0\n"
        "n_samples = 150\nn_chains = 2\npoint_site = 1\n"
        "point_time = 0.0\nseed = 1\n",
    "wired-space":
        "kind = correlation\nd = 1\nn = 1\nbeta = 2.0\nbc_space = w\n"
        "bc_time = p\nlam = 1.0\ndelta = 1.0\nn_samples = 200\n"
        "n_chains = 1\npoint_site = 1\npoint_time = 0.25\nseed = 3\n",
    "ground-state":
        "kind = correlation\nd = 1\nn = 1\nground_state = true\n"
        "bc_space = f\nbc_time = f\nlam = 0.8\ndelta = 1.0\n"
        "n_samples = 200\nn_chains = 1\npoint_site = 1\n"
        "point_time = 0.5\nseed = 7\n",
}

# CSV bytes of the configs above as written before the overlap walk read one
# sign per window and the labelling build appended whole arrays; re-pinned
# when every ratio went through one accumulator: the spin SEs (n-1
# variance), the last bits of two random-parity SEs, and the oracle
# n_effective cell (empty, was inf)
PINNED_CORRELATION_CSV = {
    "estimators-2-chains":
        "kind,method,d,n,r,bc_space,bc_time,lam,delta,estimate,stderr,"
        "n_samples,n_effective,seed\n"
        "correlation,spin,1,1,1,f,p,0.5,1,0.2440136933875946,"
        "0.059749874686974444,300,231.50546402510963,1\n"
        "correlation,random-parity,1,1,1,f,p,0.5,1,0.2923364444599581,"
        "0.063372862342535641,300,42.658325338565781,1\n"
        "correlation,oracle,1,1,1,f,p,0.5,1,0.28855401527202285,0,300,,1\n"
        "correlation,spin,1,1,1,f,p,1,1,0.48319445128496735,"
        "0.060140340876102497,300,127.51636393319556,1\n"
        "correlation,random-parity,1,1,1,f,p,1,1,0.57206392243426329,"
        "0.16592488183869367,300,23.444862032622009,1\n"
        "correlation,oracle,1,1,1,f,p,1,1,0.53632714683908178,0,300,,1\n"
        "correlation,spin,1,1,1,f,p,1.5,1,0.67399251607864485,"
        "0.054637335431556043,300,72.418442882582553,1\n"
        "correlation,random-parity,1,1,1,f,p,1.5,1,0.73950792667678855,"
        "0.20549011330690481,300,25.250161263378153,1\n"
        "correlation,oracle,1,1,1,f,p,1.5,1,0.71467901460070593,0,300,,1\n",
    "wired-space":
        "kind,method,d,n,r,bc_space,bc_time,lam,delta,estimate,stderr,"
        "n_samples,n_effective,seed\n"
        "correlation,spin,1,1,2,w,p,1,1,0.91926627684498263,"
        "0.048244296186768766,200,3.337975039066345,3\n"
        "correlation,random-parity,1,1,2,w,p,1,1,1.5531097203954205,"
        "1.1407041153065609,200,2.9803622076068059,3\n"
        "correlation,oracle,1,1,2,w,p,1,1,0.74786177027567236,0,200,,3\n",
    "ground-state":
        "kind,method,d,n,r,bc_space,bc_time,lam,delta,estimate,stderr,"
        "n_samples,n_effective,seed\n"
        "correlation,spin,1,1,2,f,f,0.80000000000000004,1,0.43963276288864545,"
        "0.086322660479014213,200,71.831374038220801,7\n"
        "correlation,random-parity,1,1,2,f,f,0.80000000000000004,1,"
        "0.23511585429164519,0.075023591303718218,200,17.912941711524571,7\n"
        "correlation,oracle,1,1,2,f,f,0.80000000000000004,1,"
        "0.28997408155725896,0,200,,7\n",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CORRELATION_CONFIGS))
def test_correlation_csv_pinned(tmp_path, name, workers):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CORRELATION_CONFIGS[name])
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--workers", str(workers)]) == 0
    assert (tmp_path / "run-correlation.csv").read_bytes() == \
        PINNED_CORRELATION_CSV[name].encode()
    # the diagnostics are in the JSON only
    payload = json.loads((tmp_path / "run-correlation.json").read_text())
    for row in payload["rows"]:
        if row["method"] == "oracle":
            assert "warnings" not in row
            continue
        assert row["warnings"] == (["low-ess"] if row["n_effective"] < 100 else [])
        assert 0.0 <= row["zero_weight_frac_num"] <= 1.0
        assert 0.0 <= row["zero_weight_frac_den"] < 1.0
    # the draws made: one spin pool per chain, shared by the couplings, and
    # two labelling pools per chain and coupling
    spin_draws, couplings = {"estimators-2-chains": (300, 3), "wired-space": (200, 1),
                             "ground-state": (200, 1)}[name]
    stages = payload["summary"]["stages"]
    assert stages["spin"]["samples"] == spin_draws
    assert stages["labelling"]["samples"] == 2 * spin_draws * couplings
    for stage in stages.values():
        assert stage["samples_per_s"] == pytest.approx(stage["samples"] / stage["wall_time"])


def _correlation_rows_by_coupling(cfg) -> dict:
    """The CSV cells of a `correlation` run's rows, grouped by coupling."""
    rows, _, _ = ex.run_correlation(cfg)
    by_lam = {}
    for row in rows:
        by_lam.setdefault(row["lam"], []).append(
            [row[c] for c in ex.KIND_COLUMNS["correlation"]])
    return by_lam


@pytest.mark.parametrize("conditions", [
    dict(bc_space="w", bc_time="p"),
    dict(bc_space="w", bc_time="w"),
    dict(ground_state=True, beta=None, bc_space="f", bc_time="f"),
], ids=["wired-space", "wired-time", "ground-state"])
def test_correlation_rows_do_not_depend_on_the_coupling_grid(conditions):
    # every coupling's rows are the same in the grid, alone, and in the
    # reversed grid (which only config validation rejects)
    lams = [0.5, 1.0, 1.5]
    cfg = make_config(**conditions, lam_grid=lams, n_samples=60, n_chains=2, seed=4,
                      point_time=0.25)
    grid = _correlation_rows_by_coupling(cfg)
    assert list(grid) == lams and all(len(rows) == 3 for rows in grid.values())
    for lam in lams:
        alone = _correlation_rows_by_coupling(dataclasses.replace(cfg, lam_grid=[lam]))
        assert alone == {lam: grid[lam]}
    reverse = _correlation_rows_by_coupling(dataclasses.replace(cfg, lam_grid=lams[::-1]))
    assert list(reverse) == lams[::-1] and reverse == grid


def test_correlation_draws_each_chain_spin_pool_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_apriori(*args)

    sample_apriori = sr.sample_apriori
    monkeypatch.setattr(sr, "sample_apriori", counted)
    ex.run_correlation(make_config(lam_grid=[0.5, 1.0, 1.5], n_samples=40, n_chains=2))
    assert len(calls) == 40 * 2


def test_correlation_json_shows_an_all_zero_numerator_pool():
    # 7 sites at beta = 4: no sourced labelling of 20 is consistent, so the
    # random-parity row reads 0 +- 0 against an oracle value of about 0.6
    cfg = make_config(n=3, beta=4.0, n_samples=20, seed=1)
    rows, _, _ = ex.run_correlation(cfg)
    rpr = next(r for r in rows if r["method"] == "random-parity")
    assert (rpr["estimate"], rpr["stderr"]) == (0.0, 0.0)
    assert rpr["zero_weight_frac_num"] == 1.0 and rpr["zero_weight_frac_den"] < 1.0
    assert rpr["warnings"] == ["low-ess"]


def test_magnetization_sweep_monotone_in_coupling():
    cfg = make_config(kind="magnetization-sweep", bc_space="w",
                      lam_grid=[0.5, 1.0, 2.0], n_sweeps=1500, dt=0.1)
    rows, summary, ok = ex.run_magnetization_sweep(cfg)
    assert ok and summary["griffiths_monotone"]
    values = [r["estimate"] for r in rows]
    assert values[0] < values[-1] + 0.2
    assert all(r["dt"] > 0 for r in rows)


def test_switching_verify_driver():
    cfg = make_config(kind="switching-verify", bc_space="w",
                      point_site=(1,), point_time=0.25, n_samples=2500)
    rows, summary, ok = ex.run_switching_verify(cfg)
    assert ok
    exact = [r for r in rows if r["mode"] == "exact"]
    assert len(exact) == len(ex.EXACT_SWITCHING_CASES)
    assert all(r["gap"] <= 1e-12 for r in exact)


VERIFY_CONFIGS = {
    "verify-suite": "d = 1\nn = 1\nbeta = 1.0\nbc_space = f\nbc_time = p\nlam = 1.0\n"
                    "delta = 1.0\nn_samples = 300\npoint_site = 1\npoint_time = 0.25\n"
                    "seed = 1\n",
    "wired-space": "d = 1\nn = 1\nbeta = 2.0\nbc_space = w\nbc_time = p\nlam = 1.0\n"
                   "delta = 1.0\nn_samples = 200\npoint_site = 1\npoint_time = 0.25\n"
                   "seed = 3\n",
}

# CSV bytes, and the sha256 of the JSON rows without their wall times, of the
# verification kinds on the configs above as written while each verifier
# built its own report; the local-modification-A rows (rhs and se_rhs) were
# re-pinned when A stopped drawing the unread ghost-connection bound, and the
# exact switching rows (last bits of lhs, rhs and gap) when the enumeration
# took compensated sums; the event-probability, connectivity-product and
# local-modification-A rows when the event-probability identity stopped
# drawing its unread printed closed form and took the paired delta method,
# and the last bits of its se_rhs when its rhs became an accumulator ratio
PINNED_VERIFY_CSV = {
    ('verify-suite', 'switching-verify'):
        'kind,case,mode,lhs,rhs,se_lhs,se_rhs,gap,pass,seed\n'
        'switching-verify,1edge-3slot-fw,exact,0.45017852783203133,'
        '0.45017852783203127,0,0,5.5511151231257827e-17,true,1\n'
        'switching-verify,2edge-3slot-fw,exact,0.18430314339939419,'
        '0.18430314339939421,0,0,2.7755575615628914e-17,true,1\n'
        'switching-verify,1edge-4slot-fw,exact,0.39746015815183861,'
        '0.39746015815183861,0,0,0,true,1\n'
        'switching-verify,1edge-3slot-pp,exact,0.43688321923421919,'
        '0.43688321923421924,0,0,5.5511151231257827e-17,true,1\n'
        'switching-verify,continuum,mc,0.00042458898792898623,'
        '0.00088153845550397456,0.00034511541655233126,0.00071460076264631797,'
        '0.57581240714247151,true,1\n',
    ('verify-suite', 'identity-suite'):
        'kind,identity,case,lhs,rhs,se_lhs,se_rhs,gap,pass,seed\n'
        'identity-suite,modification-bound,delete-all-at0.5,'
        '0.75434263870397578,1.055181613248082,0.01928250010341442,'
        '0.045767046215819417,0,true,1\n'
        'identity-suite,modification-bound,add-two-if-empty-at0.5,'
        '0.75653004218897568,7.5277514875379508,0.019225667347507188,'
        '0.6285296886578513,0,true,1\n'
        'identity-suite,modification-bound,add-or-delete-at0.5,'
        '0.73434690938978431,1.4802705215599381,0.019723939829515657,'
        '0.11754271771134844,0,true,1\n'
        'identity-suite,modification-bound,delete-all-at1.0,'
        '0.54021567390829717,1.0148252159580435,0.021373481411641127,'
        '0.076037104229362329,0,true,1\n'
        'identity-suite,modification-bound,add-two-if-empty-at1.0,'
        '0.50871615117396796,3.8877404394389545,0.021004820775290554,'
        '0.20915687530337271,0,true,1\n'
        'identity-suite,modification-bound,add-or-delete-at1.0,'
        '0.57654390568926028,1.276591362573368,0.021586646516101624,'
        '0.077816408683182736,0,true,1\n'
        'identity-suite,modification-bound,delete-all-at2.0,'
        '0.2992619666507732,1.1822489758289041,0.019219136096611501,'
        '0.15665815375729439,0,true,1\n'
        'identity-suite,modification-bound,add-two-if-empty-at2.0,'
        '0.27932425772702046,1.6919932564088527,0.017678055133471569,'
        '0.093969997045738496,0,true,1\n'
        'identity-suite,modification-bound,add-or-delete-at2.0,'
        '0.28853247271602867,1.2384421828447991,0.018134313649626914,'
        '0.069708929492866695,0,true,1\n'
        'identity-suite,holes,centre-interval,0.082919617547261057,'
        '0.099302701213904263,0.012866481681437265,0.026993540895080124,'
        '0.54787173936425526,true,1\n'
        'identity-suite,event-probability,centre-interval,0.64387409931274886,'
        '0.65737402048140248,0.084206031516933164,0.053558965861498095,'
        '0.13527532956901483,true,1\n'
        'identity-suite,connectivity-product,two-point,0.68358000351756854,'
        '0.16315803331432577,0.5843188339242984,0.077786043769343366,'
        '0.88285877071088992,true,1\n'
        'identity-suite,local-modification-A,"kappa=((1,), 0.25)",'
        '0.21740176141884493,582.34517465145882,0.32546051843777157,'
        '377.37341186040521,0,true,1\n'
        'identity-suite,local-modification-B,no-cuts-on-far-site,0,0,0,0,0,'
        'true,1\n',
    ('wired-space', 'switching-verify'):
        'kind,case,mode,lhs,rhs,se_lhs,se_rhs,gap,pass,seed\n'
        'switching-verify,1edge-3slot-fw,exact,0.45017852783203133,'
        '0.45017852783203127,0,0,5.5511151231257827e-17,true,3\n'
        'switching-verify,2edge-3slot-fw,exact,0.18430314339939419,'
        '0.18430314339939421,0,0,2.7755575615628914e-17,true,3\n'
        'switching-verify,1edge-4slot-fw,exact,0.39746015815183861,'
        '0.39746015815183861,0,0,0,true,3\n'
        'switching-verify,1edge-3slot-pp,exact,0.43688321923421919,'
        '0.43688321923421924,0,0,5.5511151231257827e-17,true,3\n'
        'switching-verify,continuum,mc,3.7608791013897229e-07,'
        '4.657607948619285e-06,2.3225091564397487e-07,2.81799023610876e-06,'
        '1.5142182982447785,true,3\n',
    ('wired-space', 'identity-suite'):
        'kind,identity,case,lhs,rhs,se_lhs,se_rhs,gap,pass,seed\n'
        'identity-suite,modification-bound,delete-all-at0.5,'
        '0.69474633487271231,0.91504030523857127,0.024669413327042502,'
        '0.058082753932992594,0,true,3\n'
        'identity-suite,modification-bound,add-two-if-empty-at0.5,'
        '0.73611203077732146,7.721624782569509,0.024328709688510024,'
        '0.76253384085269249,0,true,3\n'
        'identity-suite,modification-bound,add-or-delete-at0.5,'
        '0.72208621487825497,1.5545526684804081,0.024357027821611796,'
        '0.14591714214946463,0,true,3\n'
        'identity-suite,modification-bound,delete-all-at1.0,'
        '0.53644005790977611,1.0057642765298467,0.0261601599699927,'
        '0.093033440161293043,0,true,3\n'
        'identity-suite,modification-bound,add-two-if-empty-at1.0,'
        '0.49625157924715951,4.0178342612311075,0.0254065717434106,'
        '0.25756774660919929,0,true,3\n'
        'identity-suite,modification-bound,add-or-delete-at1.0,'
        '0.52723021592683228,1.363736571369571,0.026261612401567588,'
        '0.095428205629657495,0,true,3\n'
        'identity-suite,modification-bound,delete-all-at2.0,'
        '0.29003923180199059,0.99752257335563788,0.021978542034537241,'
        '0.17899354259878317,0,true,3\n'
        'identity-suite,modification-bound,add-two-if-empty-at2.0,'
        '0.29733075809714704,1.7992066172426397,0.02180958784260811,'
        '0.11576740711026658,0,true,3\n'
        'identity-suite,modification-bound,add-or-delete-at2.0,'
        '0.3120971649237208,1.1180061964362096,0.0242799434924536,'
        '0.083617516783262916,0,true,3\n'
        'identity-suite,holes,centre-interval,0.007548789508034455,'
        '0.013339211290374324,0.0022115125518136773,0.0078433870760281025,'
        '0.71055069109135083,true,3\n'
        'identity-suite,event-probability,centre-interval,0.23149135491499606,'
        '0.60534359553678208,0.08638684772561514,0.10703767244662947,'
        '2.7179551258909749,true,3\n'
        'identity-suite,connectivity-product,two-point,0.016790282876665997,'
        '0.79613138834535135,0.019655342869062047,0.51081430105815928,'
        '1.5245555986807964,true,3\n'
        'identity-suite,local-modification-A,"kappa=((1,), 0.25)",'
        '1.7739171739520787,354382.85306074866,1.7717906887975454,'
        '370343.35135541059,0,true,3\n'
        'identity-suite,local-modification-B,no-cuts-on-far-site,0,0,0,0,0,'
        'true,3\n',
}
PINNED_VERIFY_JSON_ROWS = {
    ('verify-suite', 'switching-verify'):
        '42687b68c01ac2026c504dfa52cf46a24e4dc797952182a29bf281303c24ce99',
    ('verify-suite', 'identity-suite'):
        '06a98f85cf6828daded7ca905bb9ec3b40010be0220910659055af6bd630ba89',
    ('wired-space', 'switching-verify'):
        'e8133430c3121a2c16eb77b05eab50ef30eb8a8e29f11fa771fb3bf19e643597',
    ('wired-space', 'identity-suite'):
        '7663303a4ea5c96045af89bb061f1a814c722074fd6c4dbe3a89f16733e0218e',
}


@pytest.mark.parametrize("name, kind", sorted(PINNED_VERIFY_CSV))
def test_verification_rows_pinned(tmp_path, name, kind):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f"kind = {kind}\n" + VERIFY_CONFIGS[name])
    assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"run-{kind}.csv").read_bytes() == \
        PINNED_VERIFY_CSV[name, kind].encode()
    rows = json.loads((tmp_path / f"run-{kind}.json").read_text())["rows"]
    blob = json.dumps([{k: v for k, v in row.items() if k != "wall_time"} for row in rows],
                      sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_VERIFY_JSON_ROWS[name, kind]


def test_irb_driver_table_rows():
    cfg = make_config(kind="irb-check", n_schedule=[2], lam_grid=[1.0],
                      l_max_factor=10.0)
    rows, summary, ok = ex.run_irb_check(cfg)
    assert ok
    assert summary["worst_slack"] >= -1e-9
    assert all(row["slack"] >= -1e-9 for row in rows)
    assert {"k", "l", "c_hat", "bound", "slack"} <= set(rows[0])


def test_percolation_sweep_driver():
    cfg = make_config(kind="percolation-sweep", bc_space="w", n=1,
                      lam_grid=[0.4, 1.2], n_samples=300)
    rows, summary, ok = ex.run_percolation_sweep(cfg)
    assert ok
    assert all(r["leaf_violations"] == 0 for r in rows)
    assert rows[0]["p_origin_ghost"] <= rows[1]["p_origin_ghost"] + 0.2


def test_identity_suite_driver_small():
    cfg = make_config(kind="identity-suite", n_samples=1500,
                      point_site=(1,), point_time=0.25)
    rows, summary, ok = ex.run_identity_suite(cfg)
    assert ok, [r for r in rows if not r["pass"]]
    identities = {r["identity"] for r in rows}
    assert {"modification-bound", "holes", "event-probability",
            "connectivity-product", "local-modification-A",
            "local-modification-B"} <= identities


# one tiny config per experiment kind
TINY_CONFIGS = {
    "correlation": dict(n_samples=50),
    "magnetization-sweep": dict(bc_space="w", lam_grid=[0.5, 1.0], n_sweeps=100),
    "switching-verify": dict(bc_space="w", point_time=0.25, n_samples=50),
    "irb-check": dict(n_schedule=[2], l_max_factor=2.0),
    "percolation-sweep": dict(bc_space="w", n_samples=300),
    # its local-modification-B pool is all zero: that row fails, the rest run
    "identity-suite": dict(point_time=0.25, n_samples=50),
    "lambda-c": dict(ground_state=True, beta=None, n_schedule=[3, 4],
                     lam_grid=[0.8, 0.9, 1.0, 1.1, 1.2], n_sweeps=100, seed=11),
}


def test_every_kind_has_a_tiny_config():
    assert TINY_CONFIGS.keys() == ex.KIND_COLUMNS.keys() == ex.DRIVERS.keys()


@pytest.mark.parametrize("kind", sorted(TINY_CONFIGS))
def test_every_row_has_every_column(kind):
    # the CSV writer fills a missing key with "" and would hide it
    rows, _, _ = ex.run_experiment(make_config(kind=kind, **TINY_CONFIGS[kind]))
    assert rows
    for row in rows:
        missing = [c for c in ex.KIND_COLUMNS[kind] if c not in row]
        assert not missing, (row, missing)


def test_identity_suite_row_with_an_all_zero_pool_fails_alone():
    # at 50 draws a coupled pool of about 4 % nonzero weights is all zero
    # one time in eight; the suite writes every row and fails that one
    rows, _, ok = ex.run_experiment(make_config(kind="identity-suite",
                                                **TINY_CONFIGS["identity-suite"]))
    assert not ok and len(rows) == 14
    failed = [r for r in rows if not r["pass"]]
    assert [(r["identity"], r["case"]) for r in failed] == \
        [("local-modification-B", "no-cuts-on-far-site")]
    assert failed[0]["error"] == (
        "SamplingError: all 50 weights of the source-free coupled pool of local "
        "modification B at lam=1.0 are zero, so its ratio is undefined")
    assert [failed[0][c] for c in ("lhs", "rhs", "se_lhs", "se_rhs", "gap")] == [None] * 5
    assert all(isinstance(r["lhs"], float) and "error" not in r
               for r in rows if r["pass"])


@pytest.fixture(scope="module")
def tiny_cli_runs(tmp_path_factory):
    """``tfim run`` of every tiny config in one fresh interpreter, each
    exiting 0 but the identity-suite, which writes its rows and exits 3 on
    its all-zero pool: the scipy modules loaded, and the output directory."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    paths = []
    for kind, overrides in sorted(TINY_CONFIGS.items()):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(dataclasses.asdict(make_config(kind=kind, **overrides))))
        paths.append(str(path))
    code = ("import json, sys, tfim.cli\n"
            "codes = [tfim.cli.main(['run', '--config', p, '--out', sys.argv[1]])"
            " for p in sys.argv[2:]]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), *paths],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [3 if kind == "identity-suite" else 0
                     for kind in sorted(TINY_CONFIGS)], proc.stderr
    assert "local modification B" in proc.stderr
    return scipy_modules, tmp_path / "out"


def test_cli_kinds_load_no_scipy(tiny_cli_runs):
    # scipy serves only the tests and two integral checks; a CLI run of any
    # kind, oracle rows included, must start without it
    assert tiny_cli_runs[0] == []


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def test_cli_json_is_strict_json(tiny_cli_runs):
    # Infinity and NaN are Python extensions that strict JSON parsers reject;
    # the oracle row's n_effective is null, and so are the sides of the
    # identity-suite row whose pool had no weight, also in its failures file
    paths = sorted(tiny_cli_runs[1].glob("*.json"))
    assert {path.stem.removeprefix("run-") for path in paths} == \
        {*TINY_CONFIGS, "identity-suite-failures"}
    payloads = {path.stem.removeprefix("run-"): json.loads(path.read_text(),
                                                           parse_constant=_reject)
                for path in paths}
    assert all(payloads[kind]["rows"] for kind in TINY_CONFIGS)
    rows = payloads["correlation"]["rows"]
    assert [r["n_effective"] for r in rows if r["method"] == "oracle"] == [None]
    failing = payloads["identity-suite-failures"]["failing"]
    assert [r["lhs"] for r in failing] == [None]
    assert [r for r in payloads["identity-suite"]["rows"] if "error" in r] == failing


def test_lambda_c_requires_two_sizes():
    with pytest.raises(ConfigError):
        make_config(kind="lambda-c", ground_state=True, beta=None,
                    n_schedule=[3], lam_grid=[0.9, 1.1])


def test_lambda_c_csv_byte_identical_across_reruns(tmp_path):
    cfg = tmp_path / "lc.cfg"
    cfg.write_text("kind = lambda-c\nground_state = true\nn_grid = 3, 4\n"
                   "lam = 0.8, 0.9, 1.0, 1.1, 1.2\nn_sweeps = 200\nseed = 11\n")
    for out in ("a", "b"):
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out),
                         "--format", "csv"]) == 0
    assert (tmp_path / "a" / "run-lambda-c.csv").read_bytes() == \
        (tmp_path / "b" / "run-lambda-c.csv").read_bytes()


SWEEP_CONFIGS = {
    "magnetization-sweep": "kind = magnetization-sweep\nbeta = 1.0\nn_grid = 1, 2\n"
                           "lam = 0.5, 1.0\nn_sweeps = 100\nseed = 3\n",
    "lambda-c": "kind = lambda-c\nground_state = true\nn_grid = 3, 4\n"
                "lam = 0.8, 0.9, 1.0, 1.1, 1.2\nn_sweeps = 100\nseed = 11\n",
}

# CSV bytes of the configs above as written by one worker since the Trotter
# sweep draws one uniform per site-slot and colours by (site + slot) mod K
PINNED_SWEEP_CSV = {
    "magnetization-sweep":
        "kind,method,d,n,r,lam,delta,estimate,stderr,dt,n_samples,seed\n"
        "magnetization-sweep,trotter,1,1,1,0.5,1,0.20000000000000001,"
        "0.14999813320224256,0.10000000000000001,100,3\n"
        "magnetization-sweep,trotter,1,1,1,1,1,1,0,0.10000000000000001,100,3\n"
        "magnetization-sweep,trotter,1,2,1,0.5,1,0.16,"
        "0.17309511131954017,0.10000000000000001,100,3\n"
        "magnetization-sweep,trotter,1,2,1,1,1,0.16,"
        "0.16514764763602677,0.10000000000000001,100,3\n",
    "lambda-c":
        "kind,method,estimate,uncertainty,reference,n_sizes,seed\n"
        "lambda-c,correlation-ratio,0.90054894883634073,0.11280396004643134,"
        "0.99876595357839271,2,11\n",
}


# the JSON rows of the magnetization-sweep config above, every field but the
# wall time, for any worker count
PINNED_MAGNETIZATION_SWEEP_ROWS = [
    {"d": 1, "delta": 1.0, "dt": 0.1, "estimate": 0.2, "flip_frac": 0.16633333333333333,
     "kind": "magnetization-sweep", "lam": 0.5, "method": "trotter", "n": 1,
     "n_samples": 100, "pass": True, "r": 1.0, "seed": 3, "stderr": 0.14999813320224256,
     "tau_int": 1.1601273731518813},
    {"d": 1, "delta": 1.0, "dt": 0.1, "estimate": 1.0, "flip_frac": 0.043,
     "kind": "magnetization-sweep", "lam": 1.0, "method": "trotter", "n": 1,
     "n_samples": 100, "pass": True, "r": 1.0, "seed": 3, "stderr": 0.0, "tau_int": None},
    {"d": 1, "delta": 1.0, "dt": 0.1, "estimate": 0.16, "flip_frac": 0.1328,
     "kind": "magnetization-sweep", "lam": 0.5, "method": "trotter", "n": 2,
     "n_samples": 100, "pass": True, "r": 1.0, "seed": 3, "stderr": 0.17309511131954017,
     "tau_int": 1.5220801717516812},
    {"d": 1, "delta": 1.0, "dt": 0.1, "estimate": 0.16, "flip_frac": 0.1066,
     "kind": "magnetization-sweep", "lam": 1.0, "method": "trotter", "n": 2,
     "n_samples": 100, "pass": True, "r": 1.0, "seed": 3, "stderr": 0.16514764763602677,
     "tau_int": 1.385519707744054},
]


@pytest.mark.parametrize("kind", sorted(SWEEP_CONFIGS))
def test_sweep_csv_pinned_for_any_worker_count(tmp_path, kind):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SWEEP_CONFIGS[kind])
    flips, taus = [], []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        assert (out / f"run-{kind}.csv").read_text() == PINNED_SWEEP_CSV[kind]
        payload = json.loads((out / f"run-{kind}.json").read_text())
        if kind == "lambda-c":
            summary = payload["summary"]
            assert summary["flip_frac"].keys() == summary["curves"].keys() == \
                summary["tau_int"].keys()
            flips.append([f for n in ("3", "4") for f in summary["flip_frac"][n]])
            taus.append([t for n in ("3", "4") for t in summary["tau_int"][n]])
        else:
            flips.append([row["flip_frac"] for row in payload["rows"]])
            taus.append([row["tau_int"] for row in payload["rows"]])
            assert [{k: v for k, v in row.items() if k != "wall_time"}
                    for row in payload["rows"]] == PINNED_MAGNETIZATION_SWEEP_ROWS
    # the flip fraction and tau_int are in the JSON only (the CSV bytes above
    # hold with them), and the same for any worker count
    assert flips[0] == flips[1] and all(0.0 < f < 1.0 for f in flips[0])
    assert len(flips[0]) == (10 if kind == "lambda-c" else 4)
    assert taus[0] == taus[1] and all(t > 0 for t in taus[0] if t is not None)
    # the magnetization series at n = 1, lam = 1 never changes: s^2 = 0
    assert [t is None for t in taus[0]] == \
        ([False] * 10 if kind == "lambda-c" else [False, True, False, False])


# (ratio, stderr, flip fraction, tau_int of C(n)) per coupling of the
# critical-point benchmark config: sizes 3..6, lam 0.8..1.2, 100 sweeps, seed 1
PINNED_CRITICAL_POINT_CURVES = {
    3: [(0.8330337100560914, 0.07693131651680854, 0.12057142857142857, 1.4550467930159177),
        (0.7667543467878851, 0.07424140148248659, 0.12830952380952382, 1.48848655754806),
        (0.9023373411364094, 0.05662482634249316, 0.10173809523809524, 1.4652745237863645),
        (0.9335825657265054, 0.031623367401197526, 0.08764285714285715, 1.3465400589940308),
        (0.9285335324402046, 0.042893918521612166, 0.07852380952380952, 1.4570051338069987)],
    4: [(0.38799661876584934, 0.1814166148189661, 0.14009722222222223, 1.4068449285931581),
        (0.8608053865078338, 0.07116995732531946, 0.12086111111111111, 1.3762715208521958),
        (0.7931510632421983, 0.09272218724697649, 0.11736111111111111, 1.2389203627740522),
        (0.9726226012793177, 0.029458491833221644, 0.08431944444444445, 1.3919608397576941),
        (0.976917528251984, 0.028042647698549385, 0.07870833333333334, 1.2495800233130567)],
    5: [(0.8526836564650988, 0.09437946313089635, 0.12441818181818182, 1.4802725766509237),
        (0.9049502340761598, 0.051614924883889274, 0.11304545454545455, 1.5484670710311095),
        (0.8375872239221934, 0.06625566530031317, 0.10880909090909091, 1.5658192243588769),
        (0.8573844885980195, 0.04209299469770987, 0.09311818181818182, 1.4283125265425687),
        (0.9639570982089263, 0.0282548227731346, 0.0718090909090909, 1.4865133152759344)],
    6: [(0.7935289847557814, 0.08367632725897807, 0.13416666666666666, 1.4136309037821624),
        (0.9684164431550715, 0.05677172799753315, 0.10478846153846154, 1.5985307752968891),
        (0.938304614775203, 0.04120835948622438, 0.09701923076923077, 1.499117397530121),
        (0.9607553497285213, 0.04145664811608175, 0.07987820512820513, 1.5675941623723466),
        (0.9839207666706763, 0.0402400356059389, 0.07922435897435898, 1.583152056958302)],
}


def test_correlation_ratio_curves_pinned_at_the_critical_point_config():
    cfg = RunConfig(kind="lambda-c", d=1, ground_state=True, n_schedule=[3, 4, 5, 6],
                    lam_grid=[0.8, 0.9, 1.0, 1.1, 1.2], delta=1.0, n_sweeps=100,
                    dt=0.1, seed=1).validate()
    curves = ex.correlation_ratio_curves(cfg)
    assert curves == PINNED_CRITICAL_POINT_CURVES
    assert all(type(x) is float for v in curves.values() for point in v for x in point)


# ratio curves as correlation_ratio_curves returns them: (ratio, stderr, flip
# fraction, tau_int) per coupling of the grid 0.8..1.2
CROSSING_CURVES = {3: [(0.70, 0.02, 0.2, 1.0), (0.75, 0.02, 0.2, 1.0), (0.80, 0.02, 0.2, 1.0),
                       (0.85, 0.02, 0.2, 1.0), (0.90, 0.02, 0.2, 1.0)],
                   4: [(0.60, 0.02, 0.2, 1.0), (0.70, 0.02, 0.2, 1.0), (0.80, 0.02, 0.2, 1.0),
                       (0.90, 0.02, 0.2, 1.0), (1.00, 0.02, 0.2, 1.0)]}
APART_CURVES = {3: CROSSING_CURVES[3],
                4: [(r - 0.2, se, flip, tau) for r, se, flip, tau in CROSSING_CURVES[3]]}


def _fixed_curves(curves):
    return lambda cfg, workers=1: {n: curves[n] for n in cfg.n_schedule}


def test_lambda_c_fails_beyond_15_percent_of_reference(monkeypatch):
    monkeypatch.setattr(ex, "correlation_ratio_curves", _fixed_curves(CROSSING_CURVES))
    monkeypatch.setattr(ex.spectral, "gap_scaling_critical_point",
                        lambda **kwargs: {"estimate": 1.5})
    cfg = make_config(kind="lambda-c", ground_state=True, beta=None, n_schedule=[3, 4],
                      lam_grid=[0.8, 0.9, 1.0, 1.1, 1.2], n_sweeps=200, seed=11)
    rows, summary, ok = ex.run_lambda_c(cfg)
    assert rows[0]["reference"] == 1.5
    assert abs(rows[0]["estimate"] / 1.5 - 1.0) > 0.15
    assert not ok


def test_lambda_c_curves_that_do_not_cross_fail_with_their_curves(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "correlation_ratio_curves", _fixed_curves(APART_CURVES))
    code, csv_text, rows, failing = _sweep(tmp_path / "lc", SWEEP_CONFIGS["lambda-c"],
                                           "lambda-c")
    payload = json.loads((tmp_path / "lc" / "run-lambda-c.json").read_text())
    assert code == 1 and failing == rows and len(rows) == 1
    assert rows[0]["pass"] is False
    assert rows[0]["estimate"] is None and rows[0]["uncertainty"] is None
    assert csv_text.splitlines()[1].startswith("lambda-c,correlation-ratio,,,0.99876")
    summary = payload["summary"]
    assert (summary["estimate"], summary["crossings"], payload["ok"]) == (None, [], False)
    assert summary["curves"] == {str(n): [list(p[:2]) for p in v]
                                 for n, v in APART_CURVES.items()}
    assert summary["flip_frac"] == {"3": [0.2] * 5, "4": [0.2] * 5}


def test_crossing_estimate_failure_diagnostics():
    curves = {3: [(0.5, 0.01), (0.6, 0.01)], 4: [(0.7, 0.01), (0.8, 0.01)]}
    with pytest.raises(RuntimeError, match="do not cross"):
        ex.crossing_estimate([0.9, 1.1], curves)


def test_crossing_estimate_pinned():
    curves = {3: [(0.9, 0.1), (0.7, 0.1), (0.5, 0.1), (0.2, 0.1)],
              4: [(1.0, 0.1), (0.7, 0.1), (0.3, 0.1), (0.1, 0.1)],
              6: [(1.3, 0.1), (0.8, 0.1), (0.45, 0.1), (-0.2, 0.1)]}
    # a tie on a grid point and two interpolated crossings
    assert ex.crossing_estimate([0.8, 0.9, 1.0, 1.1], curves) == \
        (0.9666666666666668, 0.13333333333333341,
         [0.9, 0.9666666666666667, 1.0333333333333334])
    # a single crossing spreads by the grid step
    single = {3: [(0.5, 0.0), (0.3, 0.0), (0.1, 0.0)],
              5: [(0.6, 0.0), (0.25, 0.0), (0.0, 0.0)]}
    assert ex.crossing_estimate([0.8, 0.93, 1.1], single) == \
        (0.8866666666666667, 0.13, [0.8866666666666667])


def test_cli_verification_failure_writes_manifest(tmp_path, monkeypatch):
    def failing_driver(cfg, workers=1):
        rows = [{"kind": cfg.kind, "case": "forced", "mode": "exact",
                 "lhs": 1.0, "rhs": 0.0, "se_lhs": 0.0, "se_rhs": 0.0,
                 "gap": 1.0, "pass": False, "seed": cfg.seed}]
        return rows, {}, False

    monkeypatch.setitem(ex.DRIVERS, "switching-verify", failing_driver)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("kind = switching-verify\nbeta = 1.0\nlam = 1.0\nseed = 1\n"
                   "point_site = 1\n")
    code = cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    assert code == 1
    manifest = json.loads(
        (tmp_path / "v" / "run-switching-verify-failures.json").read_text())
    assert manifest["failing"][0]["case"] == "forced"


def test_irb_check_pass_is_a_json_bool_and_failures_reach_the_manifest(tmp_path,
                                                                      monkeypatch):
    cfg = tmp_path / "irb.cfg"
    cfg.write_text("kind = irb-check\nbeta = 1.0\nlam = 1.0\nn_schedule = 2\n"
                   "l_max_factor = 2.0\nseed = 1\n")

    def verify(out):
        code = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
        payload = json.loads((out / "run-irb-check.json").read_text())
        manifest = out / "run-irb-check-failures.json"
        return (code, payload,
                json.loads(manifest.read_text())["failing"] if manifest.exists() else None)

    code, payload, failing = verify(tmp_path / "ok")
    assert (code, failing) == (0, None)
    assert payload["ok"] is True
    assert all(row["pass"] is True for row in payload["rows"])
    assert all(case["pass"] is True for case in payload["summary"]["cases"].values())
    # every slack falls short of a tolerance of -1e9
    monkeypatch.setattr(ex.spectral, "_IRB_TOL", -1e9)
    code, payload, failing = verify(tmp_path / "bad")
    assert code == 1 and payload["ok"] is False
    assert failing == payload["rows"] and len(failing) > 0
    assert all(row["pass"] is False for row in failing)


# sweep rows carry "pass" in the JSON only: these CSV bytes are those written
# before the rows had it (the magnetization rows are the Trotter results that
# test_failed_griffiths_pair_names_its_later_row feeds its run)
MANIFEST_SWEEP_CONFIGS = {
    # a Griffiths pair fails at lam = 0.14 -> 0.15 (0.2 +- 0.33 against -1 +- 0)
    "magnetization-sweep": "kind = magnetization-sweep\nbeta = 2.0\nn = 1\n"
                           "lam = 0.1, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17\n"
                           "n_sweeps = 10\nseed = 1\n",
    "percolation-sweep": "kind = percolation-sweep\nbeta = 1.0\nbc_space = w\n"
                         "lam = 0.4, 1.2\nn_samples = 100\nn_chains = 2\nseed = 5\n",
}
# the percolation-sweep stderr re-pinned when the origin-to-ghost ratio
# dropped the covariance term
PINNED_MANIFEST_SWEEP_CSV = {
    "magnetization-sweep":
        "kind,method,d,n,r,lam,delta,estimate,stderr,dt,n_samples,seed\n"
        "magnetization-sweep,trotter,1,1,2,0.10000000000000001,1,-0.20000000000000001,"
        "0.32659863237109044,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.11,1,0.80000000000000004,"
        "0.20000000000000001,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.12,1,0.59999999999999998,"
        "0.26666666666666672,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.13,1,-0.40000000000000002,"
        "0.30550504633038927,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.14000000000000001,1,0.20000000000000001,"
        "0.32659863237109044,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.14999999999999999,1,-1,0,"
        "0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.16,1,1,0,0.10000000000000001,10,1\n"
        "magnetization-sweep,trotter,1,1,2,0.17000000000000001,1,0.80000000000000004,"
        "0.20000000000000001,0.10000000000000001,10,1\n",
    "percolation-sweep":
        "kind,d,n,r,lam,delta,p_origin_ghost,stderr,mean_clusters,"
        "mean_boundary_intervals,n_trifurcations,leaf_violations,n_samples,seed\n"
        "percolation-sweep,1,1,1,0.40000000000000002,1,0,0,3.7200000000000002,"
        "7.9100000000000001,2,0,200,5\n"
        "percolation-sweep,1,1,1,1.2,1,0.32651906671863512,0.34008279264380181,"
        "2.4350000000000001,7.7450000000000001,6,0,200,5\n",
}


def _sweep(out: Path, text: str, kind: str) -> tuple[int, str, list, list | None]:
    """Exit code, CSV text, JSON rows and failure manifest (None when not
    written) of one sweep."""
    out.mkdir(parents=True)
    cfg = out / "f.cfg"
    cfg.write_text(text)
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    manifest = out / f"run-{kind}-failures.json"
    return (code, (out / f"run-{kind}.csv").read_text(),
            json.loads((out / f"run-{kind}.json").read_text())["rows"],
            json.loads(manifest.read_text())["failing"] if manifest.exists() else None)


def test_failed_griffiths_pair_names_its_later_row(tmp_path, monkeypatch):
    kind = "magnetization-sweep"
    # the Trotter results of the pinned rows, whatever the sampler's stream
    pinned = [row.split(",") for row in PINNED_MANIFEST_SWEEP_CSV[kind].splitlines()[1:]]
    results = {float(row[5]): sr.TrotterResult(Estimate(float(row[7]), float(row[8]), 10),
                                               float(row[9]), 20, 0.1, None)
               for row in pinned}
    monkeypatch.setattr(ex.spinrep, "trotter_magnetization",
                        lambda region, lams, *args: [results[lam] for lam in lams])
    code, csv_text, rows, failing = _sweep(tmp_path / "m", MANIFEST_SWEEP_CONFIGS[kind], kind)
    assert code == 1
    assert csv_text == PINNED_MANIFEST_SWEEP_CSV[kind]
    assert [row["pass"] for row in rows] == [True] * 5 + [False] + [True] * 2
    assert [row["lam"] for row in failing] == [0.15]


def test_failed_percolation_and_lambda_c_rows_reach_the_manifest(tmp_path, monkeypatch):
    kind = "percolation-sweep"
    code, csv_text, rows, failing = _sweep(tmp_path / "ok", MANIFEST_SWEEP_CONFIGS[kind], kind)
    assert (code, failing) == (0, None)
    assert csv_text == PINNED_MANIFEST_SWEEP_CSV[kind]
    assert [row["pass"] for row in rows] == [True, True]
    diagnostic = ex.percolation.trifurcation_diagnostic

    def violating(*args):
        # one trifurcation more than boundary intervals in every configuration
        rep = diagnostic(*args)
        return dataclasses.replace(rep, n_trifurcations=rep.n_boundary_intervals + 1)

    monkeypatch.setattr(ex.percolation, "trifurcation_diagnostic", violating)
    code, _, rows, failing = _sweep(tmp_path / "bad", MANIFEST_SWEEP_CONFIGS[kind], kind)
    assert code == 1 and failing == rows and len(rows) == 2
    assert all(row["leaf_violations"] == 200 and row["pass"] is False for row in rows)
    monkeypatch.setattr(ex, "correlation_ratio_curves", _fixed_curves(CROSSING_CURVES))
    monkeypatch.setattr(ex.spectral, "gap_scaling_critical_point",
                        lambda **kwargs: {"estimate": 1.5})
    code, _, rows, failing = _sweep(tmp_path / "lc", SWEEP_CONFIGS["lambda-c"], "lambda-c")
    assert code == 1 and failing == rows
    assert rows[0]["pass"] is False and rows[0]["reference"] == 1.5


def test_cli_sweep_rejects_non_sweep_kind(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("kind = correlation\nbeta = 1.0\nlam = 1.0\nseed = 1\n"
                   "point_site = 1\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
