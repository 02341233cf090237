"""Opt-in check that the suite runs every ``raise`` in ``src/fiaedit``.

Run it over the whole suite from the repository root::

    PYTHONPATH=src python -m pytest -p tests.reach_check

It records the lines that run in frames of the package's own files, and
fails the session if a ``raise`` statement never ran and is not in
``ALLOWED``.  An entry there names the file and the statement's line, so
it survives line shifts, and says why no test reaches it.  Nothing is
recorded while ``tracemalloc`` traces, so the records stay out of the
peak-memory tests.  It is not part of tier-1: tracing about doubles the
suite's time, and a run of part of the suite reports every raise that
part leaves out.
"""

from __future__ import annotations

import ast
import sys
import threading
import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiaedit"

# (file, the raise statement's line, stripped) -> why no test runs it
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"): (
        "the console script's entry point, not a refusal; tests call main() "
        "in-process, and the subprocess tests run it outside the trace"
    ),
}

_prefix = str(PACKAGE) + "/"
_ran: set[tuple[str, int]] = set()
_missed: list[str] = []


def _lines(frame, event, arg):
    if event == "line" and not tracemalloc.is_tracing():
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(_prefix) else None


def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def unreached() -> list[str]:
    """``file:line: statement`` of each raise that never ran and is not allowed."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        nodes = list(ast.walk(ast.parse(source)))
        # a raise on the line of its `if` would count as run whenever the test does
        shared = {n.lineno for n in nodes if isinstance(n, ast.stmt) and not isinstance(n, ast.Raise)}
        for line in sorted(n.lineno for n in nodes if isinstance(n, ast.Raise)):
            statement = text[line - 1].strip()
            if line in shared:
                out.append(f"{path.name}:{line}: {statement} (give the raise its own line)")
            elif (str(path), line) not in _ran and (path.name, statement) not in ALLOWED:
                out.append(f"{path.name}:{line}: {statement}")
    return out


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    _missed[:] = unreached()
    if _missed and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("reach check")
    for line in _missed:
        terminalreporter.write_line(f"unreached raise: {line}")
    terminalreporter.write_line(
        f"{len(_missed)} unreached raise statements in src/fiaedit, {len(ALLOWED)} allowed"
    )
