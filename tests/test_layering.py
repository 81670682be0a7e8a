"""The package's import layering, read from the source with ``ast``.

Every import sits at module level, so a module's dependencies are stated
in one place, and the module-level imports between package modules form
no cycle.  An ``if TYPE_CHECKING:`` block is ignored: it names a type for
annotations and runs no import.  Importing the command line also loads
``numpy.random``, which numpy itself loads only on first use.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contextkey"
SOURCES = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _imported_modules(node: ast.stmt, modules) -> set[str]:
    """Package modules that one import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in names if parts[0] == "contextkey" and len(parts) > 1}
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] != "contextkey":
            return set()
        base = (node.module or "").removeprefix("contextkey").lstrip(".")
        if base:
            return {base.split(".")[0]}
        return {alias.name for alias in node.names if alias.name in modules}
    return set()


def import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module → package modules its module-level imports load."""
    graph = {}
    for name, source in sources.items():
        edges = set()
        for statement in ast.parse(source).body:
            if _is_type_checking(statement) or isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(statement):
                edges |= _imported_modules(node, sources)
        graph[name] = edges - {name}
    return graph


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_import_inside_a_function(module):
    tree = ast.parse(SOURCES[module])
    inside = [
        f"{function.name} (line {node.lineno})"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []


def test_module_imports_are_acyclic():
    graphlib.TopologicalSorter(import_graph(SOURCES)).prepare()


def test_cycle_is_caught_and_type_checking_is_ignored():
    guarded = {
        "a": "from . import b\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import A\n",
    }
    assert import_graph(guarded) == {"a": {"b"}, "b": set()}
    cyclic = {"a": "from .b import B\n", "b": "import contextkey.a\n"}
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter(import_graph(cyclic)).prepare()


def test_numpy_random_loads_with_the_command_line():
    # loaded lazily, numpy.random would be imported inside the first run's first draw
    program = "import sys, contextkey.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", program], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "True"
