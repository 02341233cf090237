"""Code carries no dead weight: no unused import in the package, its tests or
its scripts, and no orphaned private name, error class or unread parameter in
the package."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fiaedit"
SCRIPTS = TESTS.parent / "scripts"


def parse_modules(directory: Path = PACKAGE) -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(directory.glob("*.py"))
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
    modules = {f"src/fiaedit/{name}": tree for name, tree in parse_modules().items()}
    modules |= {f"tests/{name}": tree for name, tree in parse_modules(TESTS).items()}
    modules |= {f"scripts/{name}": tree for name, tree in parse_modules(SCRIPTS).items()}
    for name, tree in modules.items():
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


# parameters that stay unread, each with its reason
UNREAD_PARAMETERS = {
    ("config.py", "_parse_str", "key"): "every value parser takes (raw, key)",
    ("fia.py", "build_target_overrides", "topology"): (
        "benchmark/bench_tracer.py binds the call's topology argument by name"
    ),
}


def test_every_parameter_is_read():
    unread = set()
    for name, tree in parse_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            function = getattr(node, "name", "<lambda>")
            unread |= {(name, function, p) for p in params if p not in read | {"self", "cls"}}
    assert unread == UNREAD_PARAMETERS.keys(), (
        f"unread parameters: {sorted(unread - UNREAD_PARAMETERS.keys())}; "
        f"stale allowlist entries: {sorted(UNREAD_PARAMETERS.keys() - unread)}"
    )


def test_every_private_module_name_is_referenced():
    trees = parse_modules()
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


def test_every_error_class_is_raised():
    trees = parse_modules()
    declared = [
        node.name
        for node in trees["errors.py"].body
        if isinstance(node, ast.ClassDef) and node.name != "FiaEditError"
    ]
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    orphans = [name for name in declared if name not in raised]
    assert declared and not orphans, f"error classes nothing raises: {orphans}"
