"""Smoke tests of tools/code_lines.py, the code-line counter of src/jointkern,
and tools/cli_corpus.py, the in-process CLI corpus."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
CORPUS = ROOT / "tools" / "cli_corpus.py"


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


def test_cli_corpus_prints_one_line_per_command():
    out = subprocess.run([sys.executable, str(CORPUS), str(ROOT / "src")], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert len(out) >= 400
    for line in out:
        model, command, code, digest, stderr = line.split("\t")
        assert model and command.split()[0] in {
            "validate", "sample", "logpdf", "abduct", "cf", "do", "spw", "cover", "export-dot"}
        assert code in {"0", "1", "2", "3", "4", "5"}, line
        assert re.fullmatch("[0-9a-f]{64}", digest)
        # a command that succeeds writes nothing to stderr; one that fails says why
        assert (json.loads(stderr) == "") == (code in {"0", "1"}), line
