"""List the function-body lines of ``src/pastekit`` that the tier-1 tests never run.

Runs ``tests`` and ``bench`` with pytest in this process under a
``sys.monitoring`` LINE callback (Python 3.12 or later) that disables each
line after its first hit, so the tests run at about their untraced speed.
A body line is the first line of a statement inside a function; docstrings
and ``nonlocal``/``global`` declarations are not counted.  Prints each
unreached line, then ``unreached: N of M body lines``.  Exits with pytest's
status when the tests fail.

    PYTHONPATH=src python tools/unreached.py
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pastekit"


def body_lines(tree: ast.Module) -> set[int]:
    """The first line of every statement in a function body of ``tree``."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if ast.get_docstring(fn, clean=False) is not None:
            body = body[1:]
        todo = list(body)
        while todo:
            st = todo.pop()
            if isinstance(st, (ast.Nonlocal, ast.Global)):
                continue
            # a decorated definition runs from its first decorator
            lines.add(min([st.lineno] + [d.lineno for d in getattr(st, "decorator_list", ())]))
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # its body runs when it is called, and is counted as its own function
            for field in ("body", "orelse", "finalbody"):
                todo += getattr(st, field, [])
            for handler in getattr(st, "handlers", []):
                todo += handler.body
            for case in getattr(st, "cases", []):
                todo += case.body
    return lines


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print("unreached: needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    hits: dict[str, set[int]] = {}

    def line(code, lineno):
        hits.setdefault(code.co_filename, set()).add(lineno)
        return sys.monitoring.DISABLE

    mon = sys.monitoring
    mon.use_tool_id(mon.COVERAGE_ID, "unreached")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "bench"])
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    reached: dict[str, set[int]] = {}
    for name, lines in hits.items():  # a file may be imported by more than one name
        reached.setdefault(os.path.realpath(name), set()).update(lines)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = body_lines(ast.parse(source))
        text = source.splitlines()
        total += len(lines)
        for n in sorted(lines - reached.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    print(f"unreached: {missed} of {total} body lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
