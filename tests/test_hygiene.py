"""Source hygiene checks that need no tool beyond the standard library."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import p1moduli

PACKAGE = Path(p1moduli.__file__).resolve().parent
TRACER_PY = PACKAGE.parent.parent / "perfbench" / "tracer.py"


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


def unused_parameters(source: str) -> list[str]:
    """Functions with parameters their body never reads, each listed once
    with those parameters. ``self``, ``cls`` and the parameters of dunder
    methods, whose signatures the protocol fixes, are left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs \
            + [a for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused = [a.arg for a in params
                  if a.arg not in read and a.arg not in ("self", "cls")]
        if unused:
            found.append(f"{node.name}({', '.join(unused)}) "
                         f"(line {node.lineno})")
    return sorted(found)


def test_unused_parameter_detector():
    src = ("def f(a, b, *args, c=1, **kw):\n"
           "    b = 2\n    return c + len(kw)\n"
           "class C:\n"
           "    def __exit__(self, *exc):\n        return None\n"
           "    def m(self, x, y):\n"
           "        return [lambda: x]\n"
           "    @classmethod\n    def k(cls, z):\n        return cls\n"
           "def g(u):\n    def inner(v):\n        return u\n"
           "    return inner\n")
    assert unused_parameters(src) == [
        "f(a, b, args) (line 1)", "inner(v) (line 13)", "k(z) (line 10)",
        "m(y) (line 7)"]


def test_no_unused_parameters_in_package():
    found = {path.name: unused_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def mentions(node) -> list[str]:
    """Every name and attribute name used under an AST node."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def mention_counts(trees) -> Counter:
    return Counter(name for tree in trees for name in mentions(tree))


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``def _name`` that no module mentions outside the
    function's own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    counts = mention_counts(trees.values())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and counts[node.name] == mentions(node).count(node.name):
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


def fraction_sort_keys(source: str) -> list[str]:
    """Calls of ``sorted``, ``min``, ``max`` or ``.sort`` whose key reads
    ``.coords`` or ``sort_key``. Such a key builds a tuple of Fractions
    per item; ``qfield.sorted_by_coords`` orders the same way by ints."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("sorted", "min", "max") \
                or isinstance(func, ast.Attribute) and func.attr == "sort":
            if any(kw.arg == "key"
                   and {"coords", "sort_key"} & set(mentions(kw.value))
                   for kw in node.keywords):
                found.append(f"line {node.lineno}")
    return found


def test_fraction_sort_key_detector():
    src = ("a = sorted(xs, key=lambda p: (p.x.coords, p.y.coords))\n"
           "b = min(xs, key=P.sort_key)\n"
           "xs.sort(key=lambda m: m.sort_key())\n"
           "c = max(xs, key=len)\n"
           "d = sorted(p.coords for p in xs)\n"
           "e = sorted_by_coords(xs, lambda p: (p.y, p.x))\n")
    assert fraction_sort_keys(src) == ["line 1", "line 2", "line 3"]


def test_no_fraction_sort_keys_in_package():
    found = {path.name: fraction_sort_keys(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def unreferenced_public_functions(package: dict[str, str],
                                  users: dict[str, str]) -> list[str]:
    """Public module-level functions, and public methods and properties
    of classes, in ``package`` that no module of ``package`` or
    ``users`` mentions outside the definition's own body.

    Dunders are left out. An import is not a mention, so re-exports do
    not count as uses. Matching is by name alone: a dead method that
    shares its name with a live one (say ``GaloisGroup.index_of`` next to
    ``AutGroup.index_of``) is missed.
    """
    trees = {name: ast.parse(src) for name, src in package.items()}
    counts = mention_counts(list(trees.values())
                            + [ast.parse(src) for src in users.values()])
    found = []
    for module, tree in trees.items():
        scopes = [("", tree)] + [(f"{cls.name}.", cls) for cls in tree.body
                                 if isinstance(cls, ast.ClassDef)]
        for prefix, scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not node.name.startswith("_") \
                        and counts[node.name] == \
                        mentions(node).count(node.name):
                    found.append(f"{module}:{prefix}{node.name} "
                                 f"(line {node.lineno})")
    return sorted(found)


def test_unreferenced_public_function_detector():
    package = {
        "a.py": ("def used():\n    return 1\n"
                 "def dead():\n    return used()\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class C:\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def live(self):\n        return 2\n"
                 "    def gone(self):\n        return self.gone\n"
                 "    @property\n    def size(self):\n        return 3\n"
                 "    def _private(self):\n        return 4\n"),
        "__init__.py": "from .a import dead, C\n",
    }
    users = {"test_a.py": "from a import C, used\nC().live()\nC().size\n"}
    assert unreferenced_public_functions(package, users) == [
        "a.py:C.gone (line 12)", "a.py:dead (line 3)",
        "a.py:recursive (line 5)"]
    # a use in the package itself counts as well
    package["b.py"] = "from .a import C\ndef f(c):\n    return c.gone()\n"
    assert "a.py:C.gone (line 12)" not in \
        unreferenced_public_functions(package, users)


def test_no_unreferenced_public_functions_in_package():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    users = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert unreferenced_public_functions(package, users) == []


def unraised_exception_classes(errors: str,
                               sources: dict[str, str]) -> list[str]:
    """Classes defined in ``errors`` that no ``raise`` in ``sources``
    names; a class that some class subclasses is exempt. Catching a
    class is not a use: an ``except`` for an exception nothing raises is
    dead too."""
    used = set()
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                used.update(mentions(exc))
            elif isinstance(node, ast.ClassDef):
                for base in node.bases:
                    used.update(mentions(base))
    return sorted(f"{node.name} (line {node.lineno})"
                  for node in ast.parse(errors).body
                  if isinstance(node, ast.ClassDef) and node.name not in used)


def test_unraised_exception_class_detector():
    errors = ("class Base(Exception):\n    pass\n"
              "class Raised(Base):\n    pass\n"
              "class Called(Base):\n    pass\n"
              "class Caught(Base):\n    pass\n"
              "class Parent(Base):\n    pass\n")
    sources = {
        "errors.py": errors,
        "a.py": ("from . import errors\nfrom .errors import *\n"
                 "class Child(Parent):\n    pass\n"
                 "def f():\n    raise Raised\n"
                 "def g(e):\n    raise errors.Called(str(e)) from e\n"
                 "def h():\n    try:\n        f()\n"
                 "    except Caught:\n        raise\n"),
    }
    assert unraised_exception_classes(errors, sources) == [
        "Caught (line 7)"]


def test_every_exception_class_is_raised():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unraised_exception_classes(sources["errors.py"], sources) == []


def test_every_name_the_tracer_patches_resolves():
    # perfbench/tracer.py wraps these by name from outside the package, so
    # a rename would break `perfbench/run.py --trace 1` and nothing else
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PY)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(name):
        return importlib.import_module(f"{tracer.PKG}.{name}")

    targets = [(module(m), fn) for m, fns in tracer.SPANS.items()
               for fn in fns]
    targets.append((module("projline"), "mobius_from_triples"))
    field_elem, mobius = module("qfield").FieldElem, module("projline").Mobius
    targets += [(field_elem, attr)
                for attr in ("__mul__", "__rmul__", "inverse", "sqrt")]
    targets += [(mobius, attr) for attr in ("__init__", "compose")]
    # classes are patched through their own __dict__, modules through vars
    assert [f"{owner.__name__}.{name}" for owner, name in targets
            if not callable(vars(owner).get(name))] == []
