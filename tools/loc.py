#!/usr/bin/env python3
"""Line and code-line counts of the ``src/qent`` modules of a source tree.

Usage (from the repository root)::

    python3 tools/loc.py [TREE [CHANGE]]

``TREE`` defaults to this repository.  For each ``src/qent/*.py`` module the
script prints its line count, which equals ``wc -l``, and its code-line
count, then a total row.  Given a second tree ``CHANGE``, each row holds
both trees' counts, then ``CHANGE`` minus ``TREE``; a module that one tree
lacks counts 0 there.  A code line is a line that holds a token outside
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


def _counts(tree, parser):
    """``{module name: (lines, code_lines)}`` of the ``src/qent`` of ``tree``."""
    paths = sorted((Path(tree) / "src" / "qent").glob("*.py"))
    if not paths:
        parser.error(f"no src/qent/*.py under {tree}")
    return {path.name: count(path.read_text(encoding="utf-8")) for path in paths}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT), metavar="TREE",
                        help="checkout whose src/qent is counted (default: this one); "
                             "the parent when CHANGE is given")
    parser.add_argument("change", nargs="?", metavar="CHANGE",
                        help="a second checkout, compared with TREE")
    args = parser.parse_args(argv)
    trees = [_counts(tree, parser) for tree in (args.tree, args.change) if tree]
    header = ["module", "lines", "code"]
    rows = [[name, *(n for counts in trees for n in counts.get(name, (0, 0)))]
            for name in sorted(set().union(*trees))]
    rows.append(["total", *map(sum, zip(*(row[1:] for row in rows)))])
    if args.change:
        header = ["module", "parent_lines", "parent_code", "change_lines", "change_code",
                  "diff_lines", "diff_code"]
        for row in rows:
            row += [f"{row[3] - row[1]:+d}", f"{row[4] - row[2]:+d}"]
    table = [header, *rows]
    widths = [max(len(row[0]) for row in table)] + [max(6, len(title)) for title in header[1:]]
    for row in table:
        print("  ".join(f"{cell:<{w}}" if i == 0 else f"{cell:>{w}}"
                        for i, (cell, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
