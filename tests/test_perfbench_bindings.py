"""The names the benchmark's span tracer wraps still exist.

``perfbench/tracer.py`` replaces module-level bindings of the package
with timing wrappers; a refactor that deletes or renames one of them
would break the traced benchmark run, so it fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr",
                         [binding[:2] for binding in load_tracer().BINDINGS])
def test_wrapped_binding_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, owner, attr", [
    ("spinhall.sweep", "SweepTable", "rows"),
    ("spinhall.config", "RunManifest", "for_run"),
    ("spinhall.config", "RunManifest", "write"),
])
def test_wrapped_method_exists(module_name, owner, attr):
    cls = getattr(importlib.import_module(module_name), owner)
    assert callable(getattr(cls, attr))
