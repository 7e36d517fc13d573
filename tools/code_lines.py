"""Count the code lines of Python files, per file and in total.

Usage:
    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory, searched for ``*.py``; the default is
``src/sigma_binomial`` next to this script's directory.  A code line is a
non-blank line that is neither a comment nor part of a docstring: it
holds a token other than a comment, and it is not a line of the string
that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one file's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "sigma_binomial"]
    files = sorted(f for r in roots for f in (r.rglob("*.py") if r.is_dir() else [r]))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print("%6d  %s" % (n, f))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
