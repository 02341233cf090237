"""Line counts of the source tree, split into code, docstring, comment and blank.

Prints one row per ``src/fiaedit`` module, then totals over every ``.py``
file under ``src/``, ``tests/`` and ``scripts/``.  A line is code if any
token outside a docstring touches it, else docstring if a module, class or
function docstring spans it, else comment if it holds a comment, else
blank; so the four parts sum to the raw count.  Deleting a docstring or a
comment shrinks the raw count but not the code count.  It takes no options:

    python scripts/line_counts.py
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("code", "docstring", "comment", "blank")
# tokens that lay a line out and mark it as nothing
_LAYOUT = {
    tokenize.ENCODING,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0].value
                starts.add((doc.lineno, doc.col_offset))
    return starts


def count_lines(text: str) -> dict[str, int]:
    """``text``'s raw line count and its split into ``PARTS``."""
    docstrings = docstring_starts(ast.parse(text))
    seen: dict[int, set[str]] = {}  # line number -> the parts touching it
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            part = "comment"
        elif tok.type == tokenize.STRING and tok.start in docstrings:
            part = "docstring"
        else:
            part = "code"
        for row in range(tok.start[0], tok.end[0] + 1):
            seen.setdefault(row, set()).add(part)
    raw = len(io.StringIO(text).readlines())
    counts = dict.fromkeys(PARTS, 0)
    for row in range(1, raw + 1):
        counts[next((p for p in PARTS if p in seen.get(row, ())), "blank")] += 1
    return {"raw": raw, **counts}


def count_files(paths) -> dict[str, int]:
    total = dict.fromkeys(("raw", *PARTS), 0)
    for path in paths:
        for name, n in count_lines(path.read_text(encoding="utf-8")).items():
            total[name] += n
    return total


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    rows = [
        (f"src/fiaedit/{path.name}", count_files([path]))
        for path in sorted((ROOT / "src" / "fiaedit").glob("*.py"))
    ]
    for top in ("src", "tests", "scripts"):
        rows.append((f"{top}/", count_files(sorted((ROOT / top).rglob("*.py")))))
    width = max(len(name) for name, _ in rows)
    print(f"{'path':<{width}} " + " ".join(f"{name:>9}" for name in ("raw", *PARTS)))
    for name, counts in rows:
        print(f"{name:<{width}} " + " ".join(f"{n:>9}" for n in counts.values()))


if __name__ == "__main__":
    main()
