"""``tools/code_lines.py`` on sample modules whose counts are known."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "code_lines.py")

# 9 code lines: the import, both defs, the class, both returns, and the
# two lines each of the string and of the call; 4 defaulted parameters:
# y, z, the lambda's b and k (w is keyword-only with no default)
SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


def f(x, y=1, *, z=2, w):
    """One-line docstring."""
    text = """not a docstring,
    but a string over two lines"""
    return math.fsum(map(lambda a, b=0: a + b,
                         (x, y, z, w, len(text))))


class C:
    """Class docstring."""

    def method(self, k=None):
        return k
'''


def run(*paths):
    out = subprocess.run([sys.executable, TOOL, *map(str, paths)], check=True,
                         capture_output=True, text=True).stdout
    return [line.split() for line in out.splitlines()[1:]]


def test_sample_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert run(path) == [["9", "4", str(path)], ["9", "4", "total"]]


def test_directory_is_searched_for_modules(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "only_docs.py").write_text('"""Nothing but a docstring."""\n')
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert run(tmp_path) == [["9", "4", str(tmp_path / "sample.py")],
                             ["0", "0", str(tmp_path / "pkg" / "only_docs.py")],
                             ["9", "4", "total"]]
