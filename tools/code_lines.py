"""Count the code lines of a Python package: not blank, comment-only or docstring.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: the repository's src/shrinkbraid)

Prints one line per module, "<count> <file name>", then "<count> total", and
exits 1 when PACKAGE_DIR holds no .py file.  The default is found from this
file's place in the repository, so the tool runs from any directory.  A
line counts when a token other than a comment starts on it or a multi-line
token (a string) runs over it, and it lies in no docstring: the string that
opens a module, class or function body.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shrinkbraid"


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    paths = sorted(package.glob("*.py"))
    if not paths:
        print(f"no .py file in {package}", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
