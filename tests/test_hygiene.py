"""Source hygiene checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import p1moduli

PACKAGE = Path(p1moduli.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "import os\nfrom typing import Optional, Sequence\n"
           "def f(x: Optional[int]) -> int:\n    return x\n")
    assert unused_imports(src) == ["Sequence (line 3)", "os (line 2)"]


def test_no_unused_imports_in_package():
    # __init__.py imports only to re-export
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``def _name`` that no module mentions outside the
    function's own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}

    def mentions(node) -> list[str]:
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in mentions(tree):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and counts.get(node.name, 0) == \
                    mentions(node).count(node.name):
                found.append(f"{module}:{node.name} (line {node.lineno})")
    return sorted(found)


def test_unreferenced_private_function_detector():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _dead():\n    return _used()\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "def public():\n    return 2\n"),
        "b.py": "from . import a\nx = a._used\n",
    }
    assert unreferenced_private_functions(sources) == [
        "a.py:_dead (line 3)", "a.py:_recursive (line 5)"]


def test_no_unreferenced_private_functions_in_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []
