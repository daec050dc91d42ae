"""tools/codelines.py counts the lines that hold code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import codelines

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        s = """a string
that is not a docstring"""
        return s  # a trailing comment
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # code: import, class, def, the two lines of s, return
    assert codelines.count(SOURCE) == (6, 15)


def test_main_counts_the_package(capsys):
    codelines.main()
    code, total = map(int, capsys.readouterr().out.split())
    assert 2000 < code < total
