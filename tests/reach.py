"""List every statement in ``src/countreg`` that the tier-1 suite never runs.

From the repository root: ``PYTHONPATH=src python tests/reach.py [pytest args]``.
The script runs ``pytest -q --continue-on-collection-errors`` on ``tests/`` in
this process, with a line tracer on every thread (``sys.settrace`` and
``threading.settrace``) that records only frames of ``src/countreg/*.py``.
Any arguments are passed on to pytest, e.g. ``--hypothesis-seed=0``.  Code
run only in a subprocess or a worker process is not seen.

A statement is every ``ast`` statement except a docstring and a ``def``,
``class`` or ``import`` line.  A compound statement (``if``, ``for``,
``with``, ``try``, ...) is reached when a line of its header is; any other
statement when any of its lines is, so a call or a condition spread over
several lines counts once.  Each unreached statement is printed as
``file:line`` on stdout, and their count on stderr; the exit status is 1 if
any was printed, else pytest's own.  This file is not named ``test_*.py``,
so pytest does not collect it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "countreg"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (*DEFINITIONS, ast.Import, ast.ImportFrom)


def statements(tree):
    """(first line, lines that count as running it) of each counted statement."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(args):
    sources = sorted(PACKAGE.glob("*.py"))
    hit = {path: set() for path in sources}
    files = {}  # co_filename -> its set in ``hit``, or None outside the package

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = hit.get(Path(name).resolve())
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = [
        f"{path.relative_to(ROOT)}:{first}"
        for path in sources
        for first, lines in sorted(statements(ast.parse(path.read_text(encoding="utf-8"))), key=lambda s: s[0])
        if hit[path].isdisjoint(lines)
    ]
    for statement in unreached:
        print(statement)
    print(f"{len(unreached)} unreached statement(s) in {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
    return 1 if unreached else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
