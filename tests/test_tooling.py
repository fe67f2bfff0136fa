"""The benchmark's span tracer still finds every function it wraps, so a
deletion or rename of a traced function fails here and not only in a traced
benchmark run; and the traced probe call counts keep their meaning.  Every
name the package exports resolves, so a deletion or move leaves no dangling
export."""

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
