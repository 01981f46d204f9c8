#!/usr/bin/env python3
"""Count the code of Python modules.

For each module, prints the lines that hold code and the parameters that
have a default value, then the totals.  A line holds code when some token
on it is not a comment and not part of a docstring, so blank lines,
comment lines and docstrings do not count; a statement spread over
several lines counts each of them.  A docstring is a string literal that
is the first statement of a module, class or function.  Defaulted
parameters are counted over every ``def`` and ``lambda``, keyword-only
ones included.  Run from the repository root:

    python3 tools/code_lines.py [path ...]

Each path is a module or a directory searched for ``*.py``; with no path,
``src/qextract``.
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)


def count(source: str) -> tuple[int, int]:
    """(code lines, defaulted parameters) of one module's source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    defaults = sum(len(a.defaults) + sum(d is not None for d in a.kw_defaults)
                   for a in ast.walk(tree) if isinstance(a, ast.arguments))
    return len(lines), defaults


def modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            yield path


def main(argv) -> int:
    total_lines = total_defaults = 0
    print(f"{'code':>6} {'defaults':>8}  module")
    for path in modules(argv or ["src/qextract"]):
        with open(path, encoding="utf-8") as f:
            lines, defaults = count(f.read())
        total_lines += lines
        total_defaults += defaults
        print(f"{lines:>6} {defaults:>8}  {path}")
    print(f"{total_lines:>6} {total_defaults:>8}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
