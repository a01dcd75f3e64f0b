"""Every name a package module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import shleibniz

PACKAGE = Path(shleibniz.__file__).parent


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


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ re-exports what it imports
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p != PACKAGE / "__init__.py"]
    assert len(modules) > 5
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"))
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert unused == []
