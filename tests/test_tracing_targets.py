"""The benchmark tracer names leavitt functions by (module, attribute).

A rename in the package would leave a per-layer metric silently at zero, so
every name the tracer wraps must resolve to a callable.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    names = runpy.run_path(str(TRACING))
    spans = [t for targets in names["SPANS"].values() for t in targets]
    return spans + list(names["COUNTERS"].values()) + [names["HITS"]]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_traced_name_resolves(module_name, attr):
    assert module_name == "leavitt" or module_name.startswith("leavitt.")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
