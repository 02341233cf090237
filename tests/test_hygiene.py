"""Package code carries no dead weight: no unused import, no orphaned private name."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiaedit"


def parse_package() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    unused = {}
    for name, tree in parse_package().items():
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = read_names(tree)
        if missing := [b for b in bound if b not in read]:
            unused[name] = missing
    assert not unused, f"unused imports: {unused}"


def test_every_private_module_name_is_referenced():
    trees = parse_package()
    referenced = set()
    for tree in trees.values():
        referenced |= read_names(tree)
        referenced |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    orphans = {}
    for name, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
        if missing := [d for d in private if d not in referenced]:
            orphans[name] = missing
    assert not orphans, f"private names nothing references: {orphans}"
