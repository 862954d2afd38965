"""Count the lines of Python source that hold code.

A line counts when some token on it is code: blank lines, comment lines
and the lines of docstrings (module, class and function) do not count.
A multi-line token other than a docstring, such as a triple-quoted
string used as a value, counts every line it spans.

    python3 tools/code_lines.py src/pdmetric tests/test_probes.py

Each path is a ``.py`` file or a directory searched for them.  Prints one
``<count> <file>`` line per file in path order, then ``<count> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
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
    """Number of lines of ``source`` holding a code token."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NON_CODE:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for f in _files(argv):
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n} {f}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
