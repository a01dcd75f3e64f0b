"""The package exports its public API only; every name a package or test
module imports is used in that module; every definition in the package has
a caller outside the tests; no package module asserts or compiles a regular
expression at call time; RunOptions is the package's only dataclass; and
every hook the benchmark takes into the package resolves."""

from __future__ import annotations

import __future__
import ast
import functools
import importlib
import types
from pathlib import Path

import shleibniz

PACKAGE = Path(shleibniz.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"
TESTS = Path(__file__).resolve().parent

# Module-level definitions that no other line of the package or of bench/
# names.  Each is library API for callers outside both, and is exercised by
# the tests; anything else without a caller belongs under tests/.
LIBRARY_ENTRY_POINTS = {
    # validate a Maurer-Cartan element and build its deformation family
    "mc_to_deformation",
    # the differential (partial_2, -) on the subcomplex spanned by N_i Der(V)
    "leibniz_cohomology_check",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except ``from __future__``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module) -> list[ast.expr]:
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            found += [a.annotation for a in every if a is not None and a.annotation]
            found += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, names in string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def package_modules() -> list[Path]:
    # the package __init__ re-exports what it imports
    return [p for p in sorted(PACKAGE.rglob("*.py")) if p != PACKAGE / "__init__.py"]


def test_the_package_exports_no_module_and_no_future_feature():
    feature = type(__future__.annotations)
    for name in shleibniz.__all__:
        assert not isinstance(getattr(shleibniz, name), (types.ModuleType, feature)), name
    namespace: dict = {}
    exec("from shleibniz import *", namespace)
    assert "annotations" not in namespace and "coalgebra" not in namespace
    assert {"check_coderivation_axiom", "run_command", "EngineError"} <= namespace.keys()


def unused_imports(paths: list[Path], root: Path) -> list[str]:
    """path:line: name for every imported name its module never uses."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"))
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(root)}:{line}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert len(package_modules()) > 5
    assert unused_imports(package_modules(), PACKAGE) == []


def test_no_test_module_imports_a_name_it_never_uses():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) > 5
    assert unused_imports(modules, TESTS) == []


def test_the_runner_imports_no_private_name_of_another_module():
    # a command runs the public check it reports on, not a copy built from
    # that check's private helpers
    tree = ast.parse((PACKAGE / "runner.py").read_text("utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("shleibniz"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert len(imported_names(tree)) > 10
    assert private == []


def test_no_package_module_holds_an_assert_statement():
    # python -O strips assert statements: an engine invariant raises
    # EngineError instead, so it holds under every interpreter flag
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "__init__.py" in modules and len(modules) > 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_run_options_is_the_only_dataclass_in_the_package():
    # a dataclass generates its methods by exec while its module is
    # imported, at 0.6-1.3 ms a class (Python 3.11, 2-core VM), more than
    # the checks of a small document take; record types derive from
    # record.Record instead.  RunOptions stays a dataclass: the benchmark
    # reads it with dataclasses.asdict, and the CLI its defaults with
    # dataclasses.fields
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "runner.py" in modules and len(modules) > 10
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if ast.unparse(target).split(".")[-1] == "dataclass":
                        found.append(f"{path.relative_to(PACKAGE)}:{node.name}")
    assert found == ["runner.py:RunOptions"]


def regex_calls_at_call_time(tree: ast.Module) -> list[int]:
    """Lines that reach the re module other than through a module-level
    re.compile: a call such as re.split(pattern, text) looks its pattern up
    in re's cache, or compiles it, on every call."""
    at_module_level = {
        id(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "re":
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and not (node.func.attr == "compile" and id(node) in at_module_level)
        ):
            found.append(node.lineno)
    return found


def test_every_regular_expression_is_compiled_at_module_level():
    modules = sorted(PACKAGE.rglob("*.py"))
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in regex_calls_at_call_time(ast.parse(path.read_text("utf-8")))
    ]
    assert found == []
    # the guard sees a pattern literal used at call time, and a compile
    # inside a function
    late = (
        "import re\nP = re.compile('a')\n"
        "def f(s):\n    return re.split(r'(?=[+-])', s), re.compile('b')\n"
    )
    assert regex_calls_at_call_time(ast.parse(late)) == [4, 4]


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded, attributes read, names imported, and the parts of every
    string that is a dotted name, such as a span target."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {part for part in node.value.split(".") if part.isidentifier()}
    return found


def test_every_package_definition_has_a_caller_outside_the_tests():
    sources = package_modules() + sorted(BENCH.glob("*.py"))
    assert len(sources) > 10
    referenced: set[str] = set()
    for path in sources:
        referenced |= referenced_names(ast.parse(path.read_text("utf-8")))
    uncalled = set()
    for path in package_modules():
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced:
                uncalled.add(node.name)
    assert uncalled == LIBRARY_ENTRY_POINTS


def resolve(module: str, dotted: str):
    return functools.reduce(getattr, dotted.split("."), importlib.import_module(module))


def test_every_span_target_of_the_benchmark_resolves():
    # read bench/spans.py as text: install() calls getattr with no default,
    # so one missing target crashes every traced run
    tree = ast.parse((BENCH / "spans.py").read_text("utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert len(targets) > 10
    for module, attr, _ in targets:
        assert callable(resolve(module, attr)), (module, attr)


def test_every_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shleibniz"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("shleibniz"):
                        importlib.import_module(alias.name)
    assert len(imported) > 10
    for script, module, name in imported:
        assert hasattr(importlib.import_module(module), name), (script, module, name)
