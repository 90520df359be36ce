"""The package's import graph, read from the source alone (no import runs).

Every import of a package module or the standard library sits at module
top, and the package's relative imports form an acyclic graph, so the
module that owns a name sits below the modules that use it.  The one
deferred import is ``scipy.special``: ``tensor.gelu`` and
``diagnostics.residual_diagnostics`` load scipy only on the paths that run
them.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremecast"
DEFERRED = {"scipy.special"}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _names(node) -> list:
    """The dotted names an import statement loads; a relative one keeps its
    leading dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def _package_deps(node, modules) -> set:
    """The package modules a relative import statement loads."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return set()
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in modules}


def test_no_function_body_imports_but_scipy_special():
    deferred = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in _imports(func):
                    deferred += [f"{name}.{func.name}: {imported}"
                                 for imported in _names(node)
                                 if imported not in DEFERRED]
    assert deferred == []


def test_relative_imports_form_a_dag():
    # every relative import, wherever it sits, so a cycle closed by a
    # deferred import is named here too
    modules = _modules()
    graph = {name: set().union(*(_package_deps(node, modules)
                                 for node in _imports(tree)))
             for name, tree in modules.items()}
    assert set().union(*graph.values()) <= set(modules)
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert sorted(order) == sorted(modules)
