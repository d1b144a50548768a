"""The names the benchmark's span tracer wraps still exist.

``perfbench/tracer.py`` replaces module-level bindings of the package
with timing wrappers; a refactor that deletes or renames one of them
would break the traced benchmark run, so it fails here first.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from spinhall import cli

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


# bound only for the tracer, and reached by no command (ROADMAP item 14)
UNREACHED = {("spinhall.cli", "sweep"), ("spinhall.cli", "shift_from_beam_integral"),
             ("spinhall.cli", "max_shift_vs_detuning")}
COMMANDS = (["reproduce", "fig2b"], ["reproduce", "fig5b"],
            ["oracle", "--preset", "fig2-ctl", "--theta", "30"],
            ["brewster", "--preset", "fig4-ntype", "--detuning", "0.3"],
            ["windows", "--preset", "fig2-ctl"], ["susceptibility", "--preset", "fig2-ctl"],
            ["shift", "--preset", "fig2-ctl"])


def test_every_wrapped_binding_is_reached(tmp_path, monkeypatch, capsys):
    # a refactor that stops calling through a binding would leave its
    # span at zero in every traced run, without an error
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    bindings = [binding[:2] for binding in load_tracer().BINDINGS]
    for module_name, attr in bindings:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting((module_name, attr), getattr(module, attr)))
    for i, argv in enumerate(COMMANDS):
        assert cli.main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0
    assert [b for b in bindings if b not in UNREACHED and not calls[b]] == []
