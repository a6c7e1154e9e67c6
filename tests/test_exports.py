"""Every name a gaplab module exports resolves, so a deleted function
cannot leave a dangling entry in an ``__all__``; and every name the
benchmark harness looks up resolves, so a deletion cannot break it; and
every defaulted parameter of the library is set by a library or benchmark
call; and every library function is entered by a command or a benchmark
workload, named by an acceptance criterion, or listed with its reason."""
import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import math
import pathlib
import pkgutil
import sys

import pytest

import gaplab
from gaplab import cli

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
    assert unset == set()


# ---------------------------------------------------------------------------
# every library function has a reader

ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"

# Library functions that no command on its default grid, no workload pass
# and no acceptance criterion reaches, each with the reason it stays.  The
# functions that bench/ looks up stay too (``_bench_lookups``), and so does
# every function that a kept one names.
UNREACHED_ALLOWED = {
    "cli.Key.check.refuse": "refuses a value that a key does not accept",
    "cli._usage": "prints the usage of a refused invocation",
    "cli.load_config_file": "reads --config, which no default run passes",
    "cli._finite_or_null":
        "writes a report that holds a non-finite statistic as strict JSON",
    "induction.LatticeMeasure.__len__":
        "truncate_tail's refusal of an empty ball counts the atoms",
    "zigzag.CertificateBlock.to_json":
        "ROADMAP item 1a puts the certificates into the JSON report",
    "zigzag._BlockSteps.__len__": "the step view that to_json reads",
    "zigzag._BlockSteps.__getitem__": "the step view that to_json reads",
    "spheres.su2_element":
        "the spin layer's unitary: light-sweeps empties the spin-table "
        "cache, and ROADMAP item 7 retires the layer with that benchmark "
        "change",
}

# a function called through an operator is named by the operator
_OPERATORS = {ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__",
              ast.MatMult: "__matmul__", ast.USub: "__neg__"}


def _names(tree):
    """Every name that the code under ``tree`` spells: identifiers,
    attributes, imported names and the methods of its operators."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif type(getattr(node, "op", None)) in _OPERATORS:
            out.add(_OPERATORS[type(node.op)])
    return out


def _library_functions():
    """``module.qualname`` -> (code key, def node) for every function in
    src/gaplab.  A nested function's qualname leaves out ``<locals>``, as
    in ``cli.Key.check.refuse``; the code key (file, first line, name) is
    that of the function's code object, whose first line is its first
    decorator's."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qualname = prefix + child.name
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                out[f"{path.stem}.{qualname}"] = (
                    (str(path), first, child.name), child)
                visit(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path, "")
    return out


def _cached():
    """Every functools-cached function of gaplab's modules."""
    return {value for name in MODULES
            for value in vars(importlib.import_module(name)).values()
            if callable(getattr(value, "cache_clear", None))}


def _entered(tmp_path, seed=5):
    """The code keys (file, first line, name) of every function that the
    eight commands on their default grids and one pass of each benchmark
    workload enter, all at ``seed``; each must succeed.  A cached function
    is entered only on a cache miss, so every cache is emptied first,
    whatever an earlier test in the process filled."""
    for function in _cached():
        function.cache_clear()
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for command in cli.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, f"--seed={seed}", "--out",
                                 str(tmp_path / f"{command}.csv")])
            assert code == 0, command
        for name, prepare in workloads.WORKLOADS.items():
            call, check, _ = prepare(seed, str(tmp_path))
            assert check(call()) == 0, name
    finally:
        sys.setprofile(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}


def _covered(functions, names, keys):
    """The library functions that ``names`` name, or that ``keys`` are, and
    those that their bodies name, to closure.  A function is named by its
    own name; a constructor also by its class's name."""
    by_name = {}
    for key in functions:
        parts = key.split(".")
        by_name.setdefault(parts[-1], set()).add(key)
        if parts[-1] in ("__init__", "__post_init__"):
            by_name.setdefault(parts[-2], set()).add(key)
    covered = set()
    fresh = set(keys).union(*(by_name.get(name, ()) for name in names))
    while fresh:
        covered |= fresh
        names = set().union(*(_names(functions[key][1]) for key in fresh))
        fresh = set().union(*(by_name.get(name, ()) for name in names))
        fresh -= covered
    return covered


def test_every_library_function_has_a_reader(tmp_path):
    # a function that no command, workload or criterion needs is deleted,
    # or it moves into the tests next to the tests that check it
    functions = _library_functions()
    assert sorted(set(UNREACHED_ALLOWED) - set(functions)) == []
    assert all(reason.strip() for reason in UNREACHED_ALLOWED.values())
    targets, lookups = _bench_lookups()
    allowed = set(UNREACHED_ALLOWED) | (
        {f"{module}.{name}" for module, name in [*targets, *lookups]}
        & set(functions))
    entered = _entered(tmp_path)
    unentered = {key for key, (code, _) in functions.items()
                 if code not in entered}
    # what a criterion names is kept, and so is what a kept function names
    criteria = _names(ast.parse(ACCEPTANCE.read_text("utf-8")))
    covered = _covered(functions, criteria, allowed & unentered)
    assert sorted(unentered - covered) == []


def test_cached_functions_are_entered_after_their_caches_fill(tmp_path):
    # a first scan fills every cache, as a test that ran earlier would;
    # the second scan still enters the cached functions the first entered
    cached = {(function.__wrapped__.__code__.co_filename,
               function.__wrapped__.__code__.co_firstlineno,
               function.__wrapped__.__name__) for function in _cached()}
    first = _entered(tmp_path) & cached
    assert {name for _, _, name in first} >= {"_tables", "_d_alpha_matrix"}
    assert _entered(tmp_path) & cached == first
