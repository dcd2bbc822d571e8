"""Count the code lines of each module of a Python package.

A code line holds a token other than a comment, a newline, an indent or a
dedent, and is not a line of a module, class or function docstring: blank
lines, comment lines and docstrings are left out.  Standard library only.

    python3 tools/code_lines.py              # src/vngrid
    python3 tools/code_lines.py path/to/pkg

Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = args[0] if args else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "vngrid")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            total += n
            print(f"{name:24s} {n:6d}")
    print(f"{'total':24s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
