"""List the statements of a Python package that a pytest run never reaches.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``); the tracer follows only frames whose code lives in
the package, and records the lines they run.  A statement is an AST
``stmt`` other than a ``def``, a ``class``, an import or a docstring.  A
simple statement has run when any of its lines has; a compound one
(``if``, ``for``, ``while``, ``with``, ``try``, ...) when a line of its
header has, or, for ``try``, when its first statement has.  Standard
library only, besides pytest itself.

    python3 tools/line_coverage.py                    # tests/ on src/vngrid
    python3 tools/line_coverage.py -- -k helium       # extra pytest arguments

Prints, per module, each statement that never ran (line number and source
line), then the count per module and the total.  The exit code is pytest's.
``tools/reach.py`` runs its callers under the same tracer (:func:`trace`)
and counts and prints statements the same way (:func:`statements`,
:func:`report`).
"""

from __future__ import annotations

import ast
import os
import sys
import threading

_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
_PACKAGE = os.path.join(_ROOT, "src", "vngrid")
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_TRIES = tuple(getattr(ast, name) for name in ("Try", "TryStar")
               if hasattr(ast, name))


def statements(source: str):
    """``(line, lines that show it ran, AST node)`` of each counted
    statement, in line order."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(id(first))
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED)
                or id(node) in docstrings):
            continue
        body = getattr(node, "body", None)
        if isinstance(node, _TRIES):
            shown = {body[0].lineno}
        elif body and isinstance(body[0], ast.stmt):
            shown = set(range(node.lineno, body[0].lineno))
        else:
            shown = set(range(node.lineno, node.end_lineno + 1))
        out.append((node.lineno, shown or {node.lineno}, node))
    return sorted(out, key=lambda s: s[0])


def trace(run):
    """Call ``run()`` under ``sys.settrace`` (and ``threading.settrace``),
    following only frames whose code lives in the package; return its
    result and the lines run, per module path."""
    ran = {}                       # module path -> line numbers run
    lines_of = {}                  # code file name -> its set in ran, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = os.path.realpath(name)
            lines_of[name] = (ran.setdefault(path, set())
                              if os.path.dirname(path) == _PACKAGE else None)
        hit = lines_of[name]
        if hit is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def run_tests(args=()):
    """The pytest suite under :func:`trace`: its exit code and lines run."""
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import pytest

    return trace(lambda: pytest.main(["-q", "-p", "no:cacheprovider",
                                      os.path.join(_ROOT, "tests"), *args]))


def report(pick):
    """Print each statement of the package for which ``pick(path, shown,
    node)`` is true (``shown`` and ``node`` as :func:`statements` gives
    them), then the count per module and the total."""
    total, counts = 0, []
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        picked = [line for line, shown, node in statements(source)
                  if pick(path, shown, node)]
        for line in picked:
            print(f"{name}:{line}: {lines[line - 1].strip()}")
        counts.append((name, len(picked)))
        total += len(picked)
    for name, n in counts:
        print(f"{name:24s} {n:6d}")
    print(f"{'total':24s} {total:6d}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] == "--":
        args = args[1:]
    code, ran = run_tests(args)
    report(lambda path, shown, node: not shown & ran.get(path, set()))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
