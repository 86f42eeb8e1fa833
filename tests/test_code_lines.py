"""tools/code_lines.py: lines of code, docstrings, comments and blank lines aside."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment alone
import re   # a comment after code


class Ranked:
    """A class docstring."""

    limit = 3

    def key(self, text):
        """A method docstring,

        with a blank line in it."""
        pattern = """a string literal

# that is not a docstring"""
        return (re.match(pattern, text),
                len(text))


def bare():
    return "a string that is a value, not a docstring"
'''


def test_code_lines_counts_code_outside_docstrings(tmp_path):
    # import, class, limit, def key, the three lines of pattern, the two of
    # the return, def bare and its return
    assert code_lines.code_lines(FIXTURE) == 11
    # docstring and comment edits leave the count as it is
    edited = FIXTURE.replace("A class docstring.", "A longer\n    class docstring.")
    edited = edited.replace("# a comment alone", "# a comment\n# over two lines")
    assert code_lines.code_lines(edited) == 11
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(path), str(path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == f"    11 {path}\n    11 {path}\n    22 total\n"
