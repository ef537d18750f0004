"""Every exported name is used by a pipeline stage, a command or the
benchmark, not only by tests.

The check parses the package and ``bench/`` sources: a name in a
module's ``__all__`` must be defined in that module, and some ``Name``,
``Attribute`` or import alias outside its own definition must refer to
it.  Reference code that only tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "deeptest").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))


def _parse():
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree) -> set:
    # top-level names: functions, classes, assignments and imports
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unused_exports(trees) -> list:
    # (file, top-level statement) pairs with the names each one refers to
    statements = [
        (path, node, _referenced(node)) for path, tree in trees.items() for node in tree.body
    ]
    unused = []
    for path, tree in trees.items():
        for name in _exports(tree):
            used = any(
                name in refs
                for where, node, refs in statements
                if not (
                    where == path
                    and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == name
                )
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_export_is_defined():
    trees = _parse()
    assert any(_exports(tree) for tree in trees.values())
    for path, tree in trees.items():
        missing = set(_exports(tree)) - _defined(tree)
        assert not missing, f"{path.name}: __all__ names {sorted(missing)} are not defined"


def test_no_export_is_used_only_by_tests():
    assert _unused_exports(_parse()) == []
