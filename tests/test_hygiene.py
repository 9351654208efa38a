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
