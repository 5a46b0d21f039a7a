"""The benchmark tracer names leavitt functions by (module, attribute).

A rename in the package would leave a per-layer metric silently at zero, so
every name the tracer wraps must resolve to a callable.  The benchmark's
self-test also asserts that the tracer reaches some names bound by
``from ... import``; an import cleanup that dropped one of those bindings
would break it, so they are read from its source (without importing the
benchmark) and must resolve too.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
SELFTEST = BENCH / "selftest.py"


def _targets():
    names = runpy.run_path(str(TRACING))
    spans = [t for targets in names["SPANS"].values() for t in targets]
    return spans + list(names["COUNTERS"].values()) + [names["HITS"]]


def _imported_bindings():
    """The (module, name) pairs of the self-test's ``IMPORTED_BINDINGS``."""
    tree = ast.parse(SELFTEST.read_text(encoding="utf-8"))
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "IMPORTED_BINDINGS" for t in node.targets)
    )
    return [(ast.unparse(owner), ast.literal_eval(name)) for owner, name in
            (pair.elts for pair in value.elts)]


@pytest.mark.parametrize("module_name, attr", _targets() + _imported_bindings())
def test_traced_name_resolves(module_name, attr):
    assert module_name == "leavitt" or module_name.startswith("leavitt.")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
