"""List the `raise` statements and the functions of src/rinfinity that a run
of the test suite never reaches.

    PYTHONPATH=src python tools/raise_probe.py [pytest arguments]

The suite runs in this process under `sys.settrace` (standard library
only, so it runs several times slower than the suite alone).  A raise is
reached when any of its lines runs; a function when it is called.  The
report prints each unreached raise and function as path:line, then the
counts and pytest's exit status.  Code run in a subprocess is not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rinfinity"


def _sites(path: Path):
    """The raise statements (first line, last line) and the functions
    (first line of their code object, qualified name) of one source file."""
    raises, functions = [], []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                raises.append((child.lineno, child.end_lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions.append((first, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return raises, functions


def main(args: list[str]) -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    lines: dict[str, set[int]] = {f: set() for f in files}
    called: set[tuple[str, int]] = set()
    resolved: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            real = os.path.realpath(name)
            resolved[name] = real if real in files else None
        path = resolved[name]
        if path is None:
            return None
        called.add((path, frame.f_code.co_firstlineno))
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    n_raises = n_functions = 0
    unreached_raises, unreached_functions = [], []
    for path, p in files.items():
        raises, functions = _sites(p)
        n_raises += len(raises)
        n_functions += len(functions)
        rel = p.relative_to(SRC.parents[1])
        for first, last in raises:
            if not lines[path] & set(range(first, last + 1)):
                unreached_raises.append(f"{rel}:{first}")
        for first, name in functions:
            if (path, first) not in called:
                unreached_functions.append(f"{rel}:{first} {name}")
    print("\nunreached raise statements:")
    print("\n".join(f"  {r}" for r in unreached_raises) or "  none")
    print("functions never called:")
    print("\n".join(f"  {f}" for f in unreached_functions) or "  none")
    print(
        f"{len(unreached_raises)} of {n_raises} raise statements and "
        f"{len(unreached_functions)} of {n_functions} functions unreached; pytest exit status {int(status)}"
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider", "tests"]))
