"""Count the code lines of each module in src/jointkern.

A code line is a line that is not blank, not a comment alone and not part
of a docstring; docstrings (of a module, class or function) are found from
the AST. Run from anywhere:

    python3 tools/code_lines.py [DIR]

It prints one "module count" line per module, sorted by name, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jointkern"


def _docstring_lines(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    docs = _docstring_lines(ast.parse(text))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
