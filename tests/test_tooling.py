"""The benchmark's span tracer still finds every function it wraps, so a
deletion or rename of a traced function fails here and not only in a traced
benchmark run; and the traced probe call counts keep their meaning.  Every
name the package exports resolves, so a deletion or move leaves no dangling
export.  The names that no package code reaches are pinned, so code that only
tests reach enters the package on purpose, and ``poisson.draw_times`` stays
the one Poisson draw."""

import ast
import inspect
import sys
from pathlib import Path

import tfim
import tfim.cli
import tfim.discrete  # imported lazily by tfim; the tracer needs it loaded
from tfim import percolation, randomparity
from tfim.geometry import Box, SpaceTimeRegion
from tfim.rng import chain_generator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tfimbench import spans  # noqa: E402


def _resolve(module: str, qualname: str) -> tuple:
    owner = sys.modules[f"tfim.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


# Names defined in src/tfim that no src/tfim code refers to: test references,
# names item 11 of the ROADMAP decides on, and the ones a later change will give
# a caller.  A new name that only tests reach has to be added here on purpose.
UNREFERENCED_IN_SRC = {
    "discrete.enumerate_coupled",
    "randomparity.Labelling.label_is_even",
    "randomparity.correlation_difference_bound",
    "spectral.box_average",
    "spectral.fourier_inversion",
    "spectral.g_function_beta",
    "spectral.g_function_ground",
    "spectral.g_function_lattice",
    "spectral.laplacian_integrability",
    "spectral.quadratic_form_identity",
    "spectral.susceptibility",
    "spectral.susceptibility_direct",
    "spectral.thermal_expectation",
    "spinrep.estimate_correlation",
    "spinrep.estimate_exp_overlap_in",
    "spinrep.gibbs_log_weight",
    "stats.Estimate.agrees_with",
}


def test_names_that_no_src_code_reaches_are_pinned():
    """The top-level functions and classes and the public methods of the
    modules of src/tfim (not __init__.py) that no Name or Attribute node of
    those modules refers to."""
    defined, referenced = {}, set()
    for path in sorted(Path(tfim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert {q for q, name in defined.items() if name not in referenced} == UNREFERENCED_IN_SRC


def test_draw_times_is_the_one_poisson_draw():
    """Every point-process draw goes through ``poisson.draw_times``: no other
    code of src/tfim calls a ``.poisson(`` method, and it calls one once."""
    callers = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "poisson"):
            callers.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(tfim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == ["poisson.draw_times"]


def test_every_public_name_resolves():
    assert len(set(tfim.__all__)) == len(tfim.__all__)
    for name in tfim.__all__:
        assert getattr(tfim, name, None) is not None, name


def test_every_traced_target_resolves_and_is_restored():
    originals = [_resolve(module, qualname) for module, qualname in spans.TARGETS]
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        for owner, attr, static in originals:
            assert inspect.getattr_static(owner, attr) is not static, attr
    finally:
        tracer.uninstall()
    for owner, attr, static in originals:
        assert inspect.getattr_static(owner, attr) is static, attr


def test_one_traced_call_per_probe_and_per_connected_block(monkeypatch):
    """The traced probe counters of the leaf-bound loop (seed 1): one block
    test per unclipped probe and one complement count per connected block."""
    connected = []
    block_test = percolation._block_fully_connected

    def recorded(*args):
        connected.append(block_test(*args))
        return connected[-1]

    monkeypatch.setattr(percolation, "_block_fully_connected", recorded)
    region = SpaceTimeRegion.ground_state(Box(1, 4), "w", "f")
    rng = chain_generator(1, 0)
    probes = 0
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        for _ in range(150):
            c = randomparity.sample_coupled(region, 1.0, 1.0, (), (), rng)
            probes += percolation.trifurcation_diagnostic(c, 1, 1.0, 1.0).n_probes
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.totals()[0]))
    assert calls["percolation._block_fully_connected"] == len(connected) == probes == 1350
    assert calls["percolation._complement_branches"] == sum(connected) == 235
