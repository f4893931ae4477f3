import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code


# a comment line
class A:
    """Class docstring."""

    x = """a multi-line string
that is not a docstring"""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''


def test_counts_lines_with_tokens_outside_docstrings_and_comments():
    # import, class, x (two lines), def, return
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", "a", "1", "b", "7", "total"]


def test_a_file_or_missing_directory_is_a_usage_error(tmp_path, capsys):
    module = tmp_path / "a.py"
    module.write_text(SOURCE)
    (tmp_path / "empty").mkdir()
    for arg in (module, tmp_path / "missing", tmp_path / "empty"):
        assert code_lines.main([str(arg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
