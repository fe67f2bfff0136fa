"""The benchmark's span tracer still finds every function it wraps, so a
deletion or rename of a traced function fails here and not only in a traced
benchmark run."""

import inspect
import sys
from pathlib import Path

import tfim.cli
import tfim.discrete  # imported lazily by tfim; the tracer needs it loaded

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tfimbench import spans  # noqa: E402


def _resolve(module: str, qualname: str) -> tuple:
    owner = sys.modules[f"tfim.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


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
