"""Every name a gaplab module exports resolves, so a deleted function
cannot leave a dangling entry in an ``__all__``; and every name the
benchmark harness looks up resolves, so a deletion cannot break it."""
import ast
import functools
import importlib
import pathlib
import pkgutil

import pytest

import gaplab

MODULES = ["gaplab"] + [f"gaplab.{info.name}"
                        for info in pkgutil.iter_modules(gaplab.__path__)]
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_something():
    assert len(gaplab.__all__) > 0


def _bench_lookups():
    """bench/tracing.py's ``TARGETS`` pairs (module, attribute or
    Class.method), and the (module, name) pairs bench/workloads.py reads."""
    tracing, workloads = (ast.parse((BENCH / name).read_text("utf-8"))
                          for name in ("tracing.py", "workloads.py"))
    targets = [(e.elts[0].value, e.elts[1].value) for node in tracing.body
               if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "TARGETS"
               for e in node.value.elts]
    modules = {alias.asname or alias.name for node in ast.walk(workloads)
               if isinstance(node, ast.ImportFrom) and node.module == "gaplab"
               for alias in node.names}
    return targets, {(node.value.id, node.attr)
                     for node in ast.walk(workloads)
                     if isinstance(node, ast.Attribute)
                     and getattr(node.value, "id", None) in modules}


def test_benchmark_lookups_resolve():
    targets, lookups = _bench_lookups()
    assert ("finite_models", "StampOperator.apply") in targets
    assert {("spheres", "_spin_tables"), ("cli", "main")} <= lookups
    assert [(module, attribute) for module, attribute in [*targets, *lookups]
            if functools.reduce(lambda obj, name: getattr(obj, name, None),
                                attribute.split("."),
                                importlib.import_module(f"gaplab.{module}"))
            is None] == []
