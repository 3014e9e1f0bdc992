"""The benchmark's tracer (perfbench/tracing.py) patches sessrec names from
outside the program and silently drops the metrics of any hook whose target
is gone.  These tests read its hook tables, without installing them, and
check that every target still resolves the way `Tracer._patch` looks it up,
so a refactor cannot drop a per-layer metric that BENCHMARK.json lists."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from sessrec import autodiff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolves(owner, attr):
    """`Tracer._patch`'s lookup: a class's own attribute, a module's attribute."""
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return found is not None


@pytest.mark.parametrize("owner, attr, span", tracing.SPANS, ids=[f"{s}:{a}" for _, a, s in tracing.SPANS])
def test_span_target_resolves(owner, attr, span):
    assert _resolves(owner, attr), f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_make_hook_resolves():
    assert _resolves(autodiff, "_make")


@pytest.mark.parametrize("op", tracing.REPORTED_OPS)
def test_reported_op_is_patched_as_an_op(op):
    # `Tracer.install` wraps the public functions defined in autodiff, less NOT_OPS
    fn = getattr(autodiff, op, None)
    assert inspect.isfunction(fn) and fn.__module__ == autodiff.__name__, f"autodiff.{op} is gone"
    assert op not in tracing.NOT_OPS
