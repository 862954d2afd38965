"""List the statements of src/pdmetric that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer that
records the lines executed in the package, then prints one
``<file>:<line>: <source>`` line per statement that never ran, and a
``<k> statements unreached`` total.  Definitions (def, class and their
decorators), imports and docstrings are not listed.

    python3 tools/unreached.py [PYTEST ARGS ...]

With no arguments it runs the whole suite, ``-q --continue-on-collection-errors
tests``, from the repository root.  Tracing about doubles the suite's time.
Code run only in a child process (``python -m pdmetric.cli``) is not
seen.  Exits with pytest's status.

A statement counts as run when one of its own lines did: every line of a
simple statement, the header lines of a compound one (``if``, ``for``,
``while``, ``with``, ``try``).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring statements of the module, classes and
    functions of tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, own lines) of each listed statement of source, in line
    order: not a definition, an import or a docstring."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _DEFINITIONS) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        end = node.end_lineno
        if isinstance(body, list) and body:  # a compound statement: its header
            end = max(node.lineno, body[0].lineno - 1)
        out.append((node.lineno, range(node.lineno, end + 1)))
    return sorted(out)


def unreached(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of source none of whose own lines
    is in ran."""
    return [first for first, own in statements(source) if ran.isdisjoint(own)]


class LineTracer:
    """Records the lines run in files under root while active; restores
    the tracers it replaced when stopped."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.ran: dict[str, set[int]] = defaultdict(set)
        self._wanted: dict[str, bool] = {}
        self._saved = None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        wanted = self._wanted.get(name)
        if wanted is None:
            wanted = self._wanted[name] = name.startswith(self.root)
        return self._line if wanted else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self) -> LineTracer:
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def report(package: Path, ran: dict[str, set[int]], base: Path) -> list[str]:
    """One ``<file>:<line>: <source>`` line per unreached statement of the
    .py files under package, each file named relative to base."""
    out = []
    for f in sorted(package.rglob("*.py")):
        source = f.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first in unreached(source, ran.get(str(f), set())):
            out.append(f"{f.relative_to(base)}:{first}: {lines[first - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "pdmetric"
    src = str(root / "src")
    sys.path.insert(0, src)
    # child processes the tests start (python -m pdmetric.cli) import it too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    with LineTracer(package) as tracer:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(root / "tests")])
    lines = report(package, tracer.ran, root)
    print("\n".join(lines + [f"{len(lines)} statements unreached"]))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
