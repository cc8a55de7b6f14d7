"""The column engine's import boundary: jointkern.columns is the one module
that imports numpy, and only spw loads it; every other command, and the
package namespace, leaves it out."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import jointkern.columns as columns

SRC = Path(__file__).resolve().parent.parent / "src"
WEIGHTED = str(Path(__file__).parent / "models" / "weighted.json")


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "numpy":
                return True
    return False


def test_only_the_column_module_imports_numpy():
    modules = sorted((SRC / "jointkern").glob("*.py"))
    assert len(modules) > 10
    assert [p.name for p in modules if _imports_numpy(p)] == ["columns.py"]


def test_the_column_module_exports_nothing():
    assert columns.__all__ == []
    public = [name for name, obj in vars(columns).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == columns.__name__]
    assert public == []


# runs in a fresh interpreter: argv[1] is a model, argv[2] a directory
SCRIPT = r"""
import sys

import jointkern.cli
from jointkern.cli import main


def loaded():
    return "jointkern.columns" in sys.modules


assert not loaded(), "import"
model, tmp = sys.argv[1], sys.argv[2]
trace, u = tmp + "/t.jsonl", tmp + "/u.jsonl"
for argv in (["validate", model],
             ["sample", model, "--n", "3", "--seed", "2", "--out", trace],
             ["logpdf", model, "--trace", trace],
             ["abduct", model, "--trace", trace, "--out", u],
             ["cf", model, "--u", u],
             ["cf", model, "--u", u, "--set", "b1=1"],
             ["do", model, "--set", "b1=1", "sample", "--n", "2"]):
    assert main(argv) == 0, argv
    assert not loaded(), argv
assert main(["spw", model, "--n", "1000"]) in (0, 1)
assert loaded(), "spw"
print("boundary held")
"""


def test_only_spw_loads_the_column_module(tmp_path):
    env = dict(os.environ)
    src = str(SRC)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", SCRIPT, WEIGHTED, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "boundary held"
