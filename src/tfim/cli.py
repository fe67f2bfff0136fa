"""Command-line interface: run, verify, and sweep subcommands.

Exit codes: 0 on success, 1 when a verification suite fails (a manifest of
the failing identities is written next to the results), 2 on usage or
configuration errors, 3 when the run stops on any other error (one line on
stderr) or when a row could not be estimated (the rows are still written,
and each such row's error is one line on stderr).  Identical config and seed
give byte-identical output files for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .experiments import KIND_COLUMNS, run_experiment

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, rows: list, columns: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row.get(c, "")) for c in columns])


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit(cfg: RunConfig, rows: list, summary: dict, ok: bool, out_dir: Path,
          fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = KIND_COLUMNS[cfg.kind]
    if fmt in ("csv", "both"):
        write_csv(out_dir / f"{cfg.out_prefix}-{cfg.kind}.csv", rows, columns)
    if fmt in ("json", "both"):
        write_json(out_dir / f"{cfg.out_prefix}-{cfg.kind}.json",
                   {"rows": rows, "summary": summary, "ok": ok})
    if not ok:
        failures = [r for r in rows if r.get("pass") is False]
        write_json(out_dir / f"{cfg.out_prefix}-{cfg.kind}-failures.json",
                   {"failing": failures})


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    return cfg


def _run_and_emit(cfg: RunConfig, args) -> int:
    rows, summary, ok = run_experiment(cfg, workers=args.workers)
    _emit(cfg, rows, summary, ok, Path(args.out), args.format)
    errors = [row["error"] for row in rows if "error" in row]
    for error in errors:
        print(" ".join(f"error: {error}".split()), file=sys.stderr)
    if errors:
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfim",
        description="Transverse-field Ising model: graphical-representation "
                    "simulation and verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "execute the experiment described by a config file"),
            ("verify", "run the verification suites (identities, switching, "
                       "infrared bound); nonzero exit on failure"),
            ("sweep", "run a multi-size sweep config (magnetization or "
                      "critical-point estimate)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "verify"), help="config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default="results")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            return _run_and_emit(_load(args), args)
        if args.command == "sweep":
            cfg = _load(args)
            if cfg.kind not in ("magnetization-sweep", "lambda-c", "percolation-sweep"):
                raise ConfigError("sweep expects a sweep-style experiment kind")
            return _run_and_emit(cfg, args)
        if args.command == "verify":
            if args.config:
                cfg = _load(args)
                if cfg.kind not in ("identity-suite", "switching-verify", "irb-check"):
                    raise ConfigError("verify expects a verification kind")
                return _run_and_emit(cfg, args)
            status = EXIT_OK
            for kind in ("switching-verify", "identity-suite", "irb-check"):
                cfg = _default_verify_config(kind, 1 if args.seed is None else args.seed)
                code = _run_and_emit(cfg, args)
                status = max(status, code)
            return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(" ".join(f"error: {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_ERROR
    return EXIT_USAGE


def _default_verify_config(kind: str, seed: int) -> RunConfig:
    cfg = RunConfig(kind=kind, d=1, n=1, beta=1.0, bc_space="f", bc_time="p",
                    lam_grid=[1.0], delta=1.0, n_samples=4000, seed=seed,
                    point_site=(1,), point_time=0.25,
                    out_prefix=f"verify-{kind}")
    if kind == "irb-check":
        cfg.n_schedule = [2, 3]
    return cfg.validate()


if __name__ == "__main__":
    sys.exit(main())
