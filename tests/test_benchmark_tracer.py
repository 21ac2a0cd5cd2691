"""The benchmark tracer wraps kinser functions by name: every name it lists
must resolve, so that renaming a traced function fails here and not only in
a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _targets():
    # run the file's source by path: no import, so no bytecode is written
    # next to it and the benchmark directory is left as it is
    namespace = {"__name__": "benchmark_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = _targets()


@pytest.mark.parametrize("modname,attr,layer", TARGETS,
                         ids=[f"{modname}.{attr}" for modname, attr, _ in TARGETS])
def test_traced_target_resolves(modname, attr, layer):
    owner = importlib.import_module(modname)
    if "." in attr:
        # methods are rebound in the class __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_methods_are_listed():
    assert ("kinser.core", "Matroid.enumerate", "core") in TARGETS
