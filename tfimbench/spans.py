"""Span tracer that wraps tfim functions from outside the package.

Each traced target is replaced, in every ``tfim`` module namespace that holds
it, by a wrapper that records a span (name, start, end, parent, iteration).
Spans stay in memory until the run ends; self time is a span's duration minus
the duration of its traced children.  Counters for the per-layer ratios are
taken at the same boundaries, from the traced calls' arguments and results.
Nothing under ``src/`` is modified: ``uninstall`` restores every original.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import sys
from time import perf_counter

# Traced targets as (module, qualified name).  The module is the layer the
# function belongs to; ``Class.method`` names patch the class attribute.
TARGETS = [
    ("geometry", "EdgeSet.free"),
    ("poisson", "verify_modification_identity"),
    ("spinrep", "sample_apriori"),
    ("spinrep", "gibbs_log_weight"),
    ("spinrep", "TrotterSampler.sweep"),
    ("spinrep", "estimate_cut_partition"),
    ("spinrep", "estimate_exp_overlap_in"),
    ("randomparity", "_labelling_weights"),
    ("randomparity", "build_labelling"),
    ("randomparity", "sample_coupled"),
    ("randomparity", "connectivity"),
    ("randomparity", "estimate_rpr_correlation"),
    ("randomparity", "verify_switching"),
    ("randomparity", "holes_identity_check"),
    ("randomparity", "event_probability_identity"),
    ("randomparity", "verify_local_modification_A"),
    ("randomparity", "verify_local_modification_B"),
    ("discrete", "switching_sides"),
    ("percolation", "trifurcation_diagnostic"),
    ("percolation", "_block_fully_connected"),
    ("percolation", "_complement_branches"),
    ("percolation", "cluster_report"),
    ("percolation", "two_point_connectivity"),
    ("spectral", "build"),
    ("spectral", "oracle_correlation"),
    ("spectral", "irb_check"),
    ("spectral", "gap"),
    ("spectral", "gap_scaling_critical_point"),
    ("stats", "RatioAccumulator.estimate"),
    ("stats", "batch_means_estimate"),
    ("experiments", "run_experiment"),
    ("experiments", "correlation_ratio_curves"),
    ("config", "load_config"),
    ("cli", "write_csv"),
]

# experiments, config and cli form one layer, reported as experiments.
LAYERS = ["geometry", "poisson", "spinrep", "randomparity", "discrete",
          "percolation", "spectral", "stats", "experiments"]
_LAYER_OF = {"config": "experiments", "cli": "experiments"}


# -- counters taken at the traced boundaries -----------------------------------

def _sweep_before(args):
    return args[0].spins.copy()


def _sweep_after(counts, before, args, result):
    spins = args[0].spins
    counts["trotter_cells"] += spins.size
    counts["trotter_flips"] += int((spins != before).sum())


def _labelling_after(counts, before, args, result):
    counts["labellings"] += 1
    counts["labellings_consistent"] += bool(result.consistent)


def _coupled_after(counts, before, args, result):
    counts["coupled"] += 1
    counts["coupled_zero_weight"] += result.weight == 0.0


def _trifurcation_after(counts, before, args, result):
    counts["trif_configs"] += 1
    counts["trif_probes"] += result.n_probes
    counts["trif_clipped"] += result.n_clipped
    counts["trif_found"] += result.n_trifurcations
    counts["leaf_violations"] += result.n_trifurcations > result.n_boundary_intervals


_HOOKS = {
    "spinrep.TrotterSampler.sweep": (_sweep_before, _sweep_after),
    "randomparity.build_labelling": (None, _labelling_after),
    "randomparity.sample_coupled": (None, _coupled_after),
    "percolation.trifurcation_diagnostic": (None, _trifurcation_after),
}


class Tracer:
    """Installs span-recording wrappers on ``TARGETS`` and aggregates them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = [f"{m}.{q}" for m, q in TARGETS]
        self.spans = []          # (name index, start, end, parent span, iteration)
        self.counts = collections.Counter()
        self.iteration = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original static value)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        tfim_modules = [m for k, m in sys.modules.items()
                        if (k == "tfim" or k.startswith("tfim.")) and m is not None]
        for index, (module, qualname) in enumerate(TARGETS):
            owner = sys.modules[f"tfim.{module}"]
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, staticmethod):
                wrapped = staticmethod(self._wrap(index, static.__func__))
            else:
                wrapped = self._wrap(index, static)
            if len(parts) > 1:
                self._patches.append((owner, attr, static))
                setattr(owner, attr, wrapped)
                continue
            # module-level function: replace every alias in tfim namespaces
            for mod in tfim_modules:
                if mod.__dict__.get(attr) is static:
                    self._patches.append((mod, attr, static))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches.clear()

    def _wrap(self, index: int, fn):
        before, after = _HOOKS.get(self.names[index], (None, None))
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (index, start, end, parent, self.iteration)
            if after:
                after(counts, token, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------
    def totals(self) -> tuple[list, list, list]:
        """Per target: calls, inclusive seconds, self seconds (all iterations)."""
        n = len(self.names)
        calls = [0] * n
        inclusive = [0.0] * n
        child = [0.0] * len(self.spans)
        for (index, start, end, parent, _) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * n
        for i, (index, start, end, parent, _) in enumerate(self.spans):
            calls[index] += 1
            inclusive[index] += end - start
            self_s[index] += end - start - child[i]
        return calls, inclusive, self_s

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start,end,parent,workload,iteration\n")
            for i, (index, start, end, parent, iteration) in enumerate(self.spans):
                fh.write(f"{i},{self.names[index]},{start:.9f},{end:.9f},"
                         f"{parent},{self.workload},{iteration}\n")


def per_layer_metrics(tracer: Tracer, iterations: int, scale: float = 1.0) -> dict:
    """Per-iteration calls and self time, and inclusive us per call, for every
    target; per-layer self time; and the boundary ratios.  Times are multiplied
    by ``scale`` (reference seconds per wall second)."""
    calls, inclusive, self_s = tracer.totals()
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (module, qualname) in enumerate(TARGETS):
        name = tracer.names[i]
        out[f"{name}.calls"] = (calls[i] / iterations, "count")
        out[f"{name}.self_s"] = (scale * self_s[i] / iterations, "s")
        out[f"{name}.us_per_call"] = (
            1e6 * scale * inclusive[i] / calls[i] if calls[i] else 0.0, "us")
        layer_self[_LAYER_OF.get(module, module)] += scale * self_s[i] / iterations
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value, "s")
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out["spinrep.trotter_flip_frac"] = (ratio("trotter_flips", "trotter_cells"), "ratio")
    out["randomparity.labelling_consistent_frac"] = (
        ratio("labellings_consistent", "labellings"), "ratio")
    out["randomparity.coupled_zero_weight_frac"] = (
        ratio("coupled_zero_weight", "coupled"), "ratio")
    out["percolation.probes_per_config"] = (ratio("trif_probes", "trif_configs"), "count")
    probed = c["trif_probes"] + c["trif_clipped"]
    out["percolation.clipped_frac"] = (c["trif_clipped"] / probed if probed else 0.0, "ratio")
    out["percolation.trifurcations_per_config"] = (ratio("trif_found", "trif_configs"), "count")
    out["percolation.leaf_violations"] = (c["leaf_violations"] / iterations, "count")
    return out
