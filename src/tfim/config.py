"""Run configuration: a flat key = value text format with a JSON alternative.

Every run is fully determined by (config, seed): wall-clock seeding is
rejected at validation.  Lists are comma-separated in the text format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import Box, SpaceTimeRegion

KINDS = ("correlation", "magnetization-sweep", "switching-verify", "irb-check",
         "percolation-sweep", "identity-suite", "lambda-c")


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


@dataclass
class RunConfig:
    kind: str
    d: int = 1
    n: int = 1
    n_schedule: list = field(default_factory=list)
    beta: float | None = None
    ground_state: bool = False
    bc_space: str = "f"
    bc_time: str = "p"
    lam_grid: list = field(default_factory=list)
    delta: float = 1.0
    n_samples: int = 10000
    n_chains: int = 1
    seed: int | None = None
    point_site: tuple = ()
    point_time: float = 0.0
    dt: float = 0.1
    n_sweeps: int = 4000
    l_max_factor: float = 100.0
    out_prefix: str = "run"

    def validate(self) -> "RunConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.seed is None:
            raise ConfigError("a seed is required (no wall-clock seeding)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed {self.seed} must lie in [0, 2^64)")
        for key in sorted(_FLOAT_KEYS):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, not {value}")
        if not all(map(math.isfinite, self.lam_grid)):
            raise ConfigError("couplings must be finite")
        if not self.lam_grid:
            raise ConfigError("empty coupling grid")
        if any(b >= a for a, b in zip(self.lam_grid[1:], self.lam_grid)):
            raise ConfigError("coupling grid must be strictly increasing")
        if self.d < 1 or self.n < 0:
            raise ConfigError("bad box parameters")
        if any(m < 0 for m in self.n_schedule):
            raise ConfigError("n_schedule entries must be nonnegative")
        if self.ground_state or self.kind == "irb-check":
            if self.n < 1 or any(m < 1 for m in self.n_schedule):
                what = ("ground-state runs (time length 2n)" if self.ground_state
                        else "irb-check (even-side box)")
                raise ConfigError(f"{what} need n >= 1 and n_schedule entries >= 1")
        if self.ground_state and self.kind == "irb-check":
            raise ConfigError("irb-check is a finite-temperature run (beta is its time length)")
        if self.ground_state and self.beta is not None:
            raise ConfigError("ground-state runs take no beta (time length is 2n)")
        if not self.ground_state and (self.beta is None or self.beta <= 0):
            raise ConfigError("finite-temperature runs need beta > 0")
        for key in ("bc_space", "bc_time"):
            if getattr(self, key) not in ("f", "w", "p"):
                raise ConfigError(f"{key} must be f, w or p, not {getattr(self, key)!r}")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if any(lam < 0 for lam in self.lam_grid):
            raise ConfigError("couplings must be nonnegative")
        if self.dt <= 0 or self.n_sweeps <= 0:
            raise ConfigError("dt and n_sweeps must be positive")
        if self.l_max_factor < 0:
            raise ConfigError("l_max_factor must be nonnegative")
        if self.point_site:
            self._check_point()
        elif self.kind in ("correlation", "switching-verify", "identity-suite"):
            raise ConfigError(f"{self.kind} needs point_site (the second correlation point)")
        if self.kind == "lambda-c":
            if not self.ground_state:
                raise ConfigError("the critical-point scan is a ground-state run")
            if len(self.n_schedule) < 2:
                raise ConfigError("the crossing estimate needs at least two sizes")
        if self.n_samples < 2 or self.n_chains < 1:
            raise ConfigError("bad sampling parameters")
        return self

    def region(self, n: int | None = None, bc_space: str | None = None,
               bc_time: str | None = None) -> SpaceTimeRegion:
        """The run's region, with the half-side and the boundary conditions
        given here in place of the config's.  Ground-state regions have time
        length 2n and take free time for periodic."""
        box = Box(self.d, self.n if n is None else n)
        bs = self.bc_space if bc_space is None else bc_space
        bt = self.bc_time if bc_time is None else bc_time
        if self.ground_state:
            return SpaceTimeRegion.ground_state(box, bs, bt if bt != "p" else "f")
        return SpaceTimeRegion.finite_beta(box, self.beta, bs, bt)

    def _check_point(self) -> None:
        """The second correlation point lies in the region, off the origin,
        and off the time endpoints (:meth:`SpaceTimeRegion.at_time_end`) when
        time is an interval."""
        if len(self.point_site) != self.d:
            raise ConfigError(f"point_site {self.point_site} needs d = {self.d} coordinates")
        if not any(self.point_site) and self.point_time == 0:
            raise ConfigError("the second correlation point must differ from the origin")
        if any(abs(c) > self.n for c in self.point_site):
            raise ConfigError(f"point_site {self.point_site} is outside the box of half-side {self.n}")
        half = self.n if self.ground_state else self.beta / 2.0
        region = self.region()
        if abs(self.point_time) > half or region.at_time_end(self.point_time):
            lo, hi = "()" if region.time_topology == "interval" else "[]"
            raise ConfigError(f"point_time {self.point_time} must lie in {lo}-{half}, {half}{hi}")


_LIST_KEYS = {"lam_grid", "n_schedule", "point_site"}
_INT_KEYS = {"d", "n", "n_samples", "n_chains", "seed", "n_sweeps"}
_FLOAT_KEYS = {"beta", "delta", "point_time", "dt", "l_max_factor"}
_BOOL_KEYS = {"ground_state"}
_NULLABLE_KEYS = {"beta", "seed"}


def _coerce(key: str, raw):
    if key in _LIST_KEYS:
        if isinstance(raw, str):
            items = [s.strip() for s in raw.split(",") if s.strip()]
        else:
            items = list(raw)
        if key == "n_schedule":
            return [int(v) for v in items]
        if key == "point_site":
            return tuple(int(v) for v in items)
        return [float(v) for v in items]
    if key in _NULLABLE_KEYS and raw in (None, "none"):
        return None
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        return raw if isinstance(raw, bool) else str(raw).lower() in ("1", "true", "yes")
    return raw


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = raw
    return _build(values)


def parse_config_json(text: str) -> RunConfig:
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("JSON config must be an object")
    return _build(values)


_ALIASES = {"lam": "lam_grid", "lambda": "lam_grid", "n_grid": "n_schedule"}


def _build(values: dict) -> RunConfig:
    known = set(RunConfig.__dataclass_fields__)
    cfg = RunConfig(kind=str(values.get("kind", "")))
    for key, raw in values.items():
        if key == "kind":
            continue
        key = _ALIASES.get(key, key)
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return cfg.validate()


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        return parse_config_json(text)
    return parse_config_text(text)
