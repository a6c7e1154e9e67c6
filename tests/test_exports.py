"""Every name a gaplab module exports resolves, so a deleted function
cannot leave a dangling entry in an ``__all__``; and every name the
benchmark harness looks up resolves, so a deletion cannot break it; and
every defaulted parameter of the library is set by a library or benchmark
call, or is listed with its reason."""
import ast
import functools
import importlib
import math
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


SRC = pathlib.Path(gaplab.__file__).resolve().parent

# defaulted parameters that no call in src/gaplab or bench/ sets, each with
# the reason it stays
TEST_ONLY_OPTIONS = {
    ("random_padic_integral", "words"):
        "tests draw words of 3 to 8 elementary matrices",
    ("fit_stheta_constant", "two_j_max"):
        "fit_stheta_constant is the paper's constant, fitted by tests only",
    ("fit_stheta_constant", "thetas"):
        "fit_stheta_constant is the paper's constant, fitted by tests only",
}


def _defaulted_parameters():
    """(function, parameter, index) for every defaulted parameter of every
    function in src/gaplab.  ``index`` is the positional index a call
    spells (a method's leaves out self or cls; None for keyword-only), and
    ``__init__`` goes by its class name, as a constructor call does."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {id(item): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            name = cls.name if cls and node.name == "__init__" else node.name
            bound = int(cls is not None and "staticmethod" not in [
                getattr(d, "id", None) for d in node.decorator_list])
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            out += [(name, arg.arg, i - bound)
                    for i, arg in enumerate(args) if i >= first]
            out += [(name, arg.arg, None) for arg, default
                    in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None]
    return out


def _set_parameters():
    """Callee name -> [keywords, positions, starred] over every call in
    src/gaplab and bench/: the keywords and positional indices some call
    passes, and the first index a starred argument passes from on."""
    calls = {}
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            entry = calls.setdefault(name, [set(), set(), math.inf])
            entry[0].update(k.arg for k in node.keywords)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    entry[2] = min(entry[2], i)
                    break
                entry[1].add(i)
    return calls


def test_every_option_is_set_by_a_caller():
    # an option that only tests set is an option the library does not need;
    # calls match by name alone, so a name shared by two functions counts
    # the calls of both
    calls = _set_parameters()
    unset = set()
    for function, parameter, index in _defaulted_parameters():
        keywords, positions, starred = calls.get(function,
                                                 (set(), set(), math.inf))
        if not (parameter in keywords or index in positions
                or (index is not None and index >= starred)):
            unset.add((function, parameter))
    assert unset == set(TEST_ONLY_OPTIONS)
