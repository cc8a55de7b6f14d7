"""Smoke test of tools/code_lines.py, the code-line counter of src/jointkern."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def test_code_lines_counts_every_module():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    counts = dict(line.split() for line in out)
    total = int(counts.pop("total"))
    assert set(counts) == {p.name for p in (ROOT / "src" / "jointkern").glob("*.py")}
    assert all(int(n) > 0 for n in counts.values())
    assert total == sum(map(int, counts.values()))


def test_code_lines_skips_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = '''"""Module
docstring."""

# a comment
X = """a string,
not a docstring"""


class A:
    """Doc."""

    def f(self):  # trailing comment
        """Doc
        on two lines."""
        return 1
'''
    assert tool.code_lines(text) == 5
