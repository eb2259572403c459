"""Nothing in `src/octeig` without a user: every module-level private function or class is
read somewhere in the package outside its own definition, and every name a module imports
from the package is read there or exported.  A helper that only tests call belongs in the
tests."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "octeig"


def unreferenced(sources: dict) -> list:
    """(module, name) of each module-level private function or class in `sources`, module
    name to text, that no name or attribute of any of them reads outside that definition;
    an import alone is not a use."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads[node.id if isinstance(node, ast.Name) else node.attr].append(node)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = set(map(id, ast.walk(node)))
                if all(id(r) in own for r in reads[node.name]):
                    found.append((mod, node.name))
    return found


def unread_imports(sources: dict) -> list:
    """(module, name) of each name that a module of `sources`, other than `__init__`, imports
    from the package, at any depth, and neither reads as a name nor lists in its `__all__`."""
    found = []
    for mod, text in sources.items():
        if mod == "__init__":
            continue
        tree = ast.parse(text)
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        found += [(mod, alias.asname or alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names
                  if (alias.asname or alias.name) not in reads | exported]
    return found


def test_every_private_definition_has_a_user_in_the_package():
    assert unreferenced({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_guard_sees_a_private_definition_without_a_user():
    sources = {"a": "def _used():\n    return 1\n\n\n"
                    "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                    "class _Unused:\n    pass\n\n\n"
                    "def __dunder__():\n    pass\n",
               "b": "from .a import _Unused, _used\n\nx = a._used()\n"}
    assert unreferenced(sources) == [("a", "_recursive"), ("a", "_Unused")]


def test_every_imported_name_is_read_or_exported():
    assert unread_imports({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_guard_sees_an_import_without_a_reader():
    sources = {"a": "def used():\n    return 1\n",
               "b": "from .a import exported, left, used\nfrom .c import renamed as alias\n\n"
                    "__all__ = ['exported']\n\n\n"
                    "def f():\n    from .a import late\n    return used()\n",
               "c": "from .a import read\n\nread = read\n",
               "__init__": "from .a import used\n"}
    assert unread_imports(sources) == [("b", "left"), ("b", "alias"), ("b", "late")]
