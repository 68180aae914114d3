#!/usr/bin/env python3
"""Count code lines: docstrings, comments and blank lines excluded.

A line counts when it holds at least one token that is not a comment
and is not part of a module, class or function docstring.  A statement
spanning several lines counts each of them, so the number tracks what
a reader has to read, not how it was wrapped.

Prints one line per ``.py`` file under each root, then the root's
total, then the grand total.  It reports only; nothing is gated on it.

Stdlib only.  Usage::

    python scripts/loc.py [ROOT ...]    # default: the wsdb and experiments packages
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

DEFAULT_ROOTS = ("src/repro/wsdb", "src/repro/experiments")

#: Tokens that never make a line count.
_NON_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    skip = docstring_lines(ast.parse(source))
    counted: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NON_CODE:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                counted.add(line)
    return len(counted)


def main(argv: list[str]) -> int:
    roots = [pathlib.Path(arg) for arg in argv] or [
        pathlib.Path(root) for root in DEFAULT_ROOTS
    ]
    grand = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  {root} (total)")
        grand += total
    if len(roots) > 1:
        print(f"{grand:6d}  all roots")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
