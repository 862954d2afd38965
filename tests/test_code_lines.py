"""The code-line counter in tools/code_lines.py on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
class C:
    """Class docstring."""

    def f(self):
        """Function docstring
        over two lines."""
        text = """a multi-line string
        that is a value"""
        return (text,
                os.sep)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, def, the two lines of the string value, return and
    # its continuation; no blank, comment or docstring line counts
    assert load_tool().code_lines(SNIPPET) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert load_tool().main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"7 {tmp_path / 'pkg' / 'a.py'}",
        f"1 {tmp_path / 'b.py'}",
        "8 total",
    ]
