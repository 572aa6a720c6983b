#!/usr/bin/env python3
"""Line and code-line counts of the ``src/qent`` modules of a source tree.

Usage (from the repository root)::

    python3 tools/loc.py [TREE]

``TREE`` defaults to this repository.  For each ``src/qent/*.py`` module the
script prints its line count, which equals ``wc -l``, and its code-line
count, then a total row.  A code line is a line that holds a token outside
comments and docstrings: blank lines, comment lines and the lines of a
module, class or function docstring do not count, and every line that
another multi-line string literal spans does.  Uses only the standard
library.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``(lines, code_lines)`` of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(row for row in range(tok.start[0], tok.end[0] + 1)
                        if row not in docstrings)
    return source.count("\n"), len(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT),
                        help="checkout whose src/qent is counted (default: this one)")
    args = parser.parse_args(argv)
    paths = sorted((Path(args.tree) / "src" / "qent").glob("*.py"))
    if not paths:
        parser.error(f"no src/qent/*.py under {args.tree}")
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
