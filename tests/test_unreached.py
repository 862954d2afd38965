"""The unreached-statement lister in tools/unreached.py on a fixed snippet."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unreached.py"

SNIPPET = '''"""Module docstring."""

import os

LIMIT = 3


def f(x):
    """Function docstring."""
    if x > 0:
        return (x,
                os.sep)
    raise ValueError(
        "negative")


class C:
    """Class docstring."""

    @staticmethod
    def g():
        try:
            return 1
        finally:
            pass
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("unreached", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_statements_only():
    # the assignment, the if header, both lines of the return, the raise,
    # try's header, the return in it and pass; no def, class, decorator,
    # import or docstring
    tool = load_tool()
    assert [(first, list(own)) for first, own in tool.statements(SNIPPET)] == [
        (5, [5]), (10, [10]), (11, [11, 12]), (13, [13, 14]),
        (22, [22]), (23, [23]), (25, [25]),
    ]
    # a statement runs when any of its own lines does
    assert tool.unreached(SNIPPET, {5, 10, 12}) == [13, 22, 23, 25]


def test_traces_a_module_and_reports_what_never_ran(tmp_path):
    tool = load_tool()
    (tmp_path / "snippet.py").write_text(SNIPPET)
    spec = importlib.util.spec_from_file_location("snippet", tmp_path / "snippet.py")
    module = importlib.util.module_from_spec(spec)
    outer = sys.gettrace()
    with tool.LineTracer(tmp_path) as tracer:
        spec.loader.exec_module(module)
        module.f(1)
    assert sys.gettrace() is outer
    assert tool.report(tmp_path, tracer.ran, tmp_path.parent) == [
        f"{tmp_path.name}/snippet.py:13: raise ValueError(",
        f"{tmp_path.name}/snippet.py:22: try:",
        f"{tmp_path.name}/snippet.py:23: return 1",
        f"{tmp_path.name}/snippet.py:25: pass",
    ]
