#!/usr/bin/env python3
"""List the statements of ``src/coexsim`` that a pytest run never reaches.

A stdlib ``sys.settrace`` line collector, for when ``coverage`` is not
installed.  It runs pytest in this process with any arguments given
(the whole suite by default), then prints, per module, the statements
whose first line never ran, with their source.  Statements are the
``ast`` statements whose first line holds code, so docstrings and
``pass`` do not count.  Code run in a subprocess is not seen.

Tracing makes the suite about four times slower, so this script is
run by hand, from the repository root, and is not part of the test
suite:

    python scripts/line_coverage.py
    python scripts/line_coverage.py tests/test_simulator.py -k Skip
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coexsim"


def code_lines(code) -> set[int]:
    """Every line that holds bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list[int]:
    """The first lines of the module's statements that compile to code."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and node.lineno in executable})


def collect(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest under the line tracer; its exit code and the lines hit."""
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = collect(argv)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statements(path)
        unreached = [line for line in lines if (str(path), line) not in hits]
        total += len(lines)
        missed += len(unreached)
        print(f"\n{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)} "
              f"statements unreached")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unreached:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"\ntotal: {missed} of {total} statements unreached (pytest exit {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
