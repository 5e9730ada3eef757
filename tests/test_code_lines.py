"""The code-line counter in tools/code_lines.py, which CHANGES.md counts are read with."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

# A comment line.
def f():
    """A function docstring."""

    return """not a
docstring"""  # a trailing comment
'''


def test_counts_neither_docstrings_comments_nor_blank_lines(tmp_path, capsys):
    assert code_lines.code_lines(MODULE) == 3  # def, and the string over two lines
    assert code_lines.code_lines('"""Doc."""\n# comment\nx = 1\ny = 2\n') == 2
    (tmp_path / "m.py").write_text('"""Doc."""\n\n# comment\nx = 1\n\ny = 2\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["2", "m.py", "2", "total"]


def test_default_package_is_found_from_any_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert "ldops.py" in [name for _, name in rows]
    assert rows[-1][1] == "total" and int(rows[-1][0]) > 1000


def test_directory_without_modules_is_an_error(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no .py file in {tmp_path}\n"
