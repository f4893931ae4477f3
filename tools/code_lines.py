"""Count the code lines of each module of a Python package directory.

A code line is a line that holds a token other than a comment, outside
module, class and function docstrings; blank lines, comment-only lines and
docstring lines do not count.  A token that spans several lines (a
multi-line string that is not a docstring) counts on each of them.

    python tools/code_lines.py src/dpcst

prints one "<lines>  <module>" row per module, sorted by name, then the
total.  It exits 1 with its usage line unless given one directory that holds
at least one ``.py`` file.
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
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of the string token of every docstring in tree."""
    starts = set()
    for scope in ast.walk(tree):
        if isinstance(scope, _SCOPES) and scope.body:
            first = scope.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    # a file or a missing directory globs no module, which would read as 0 lines
    paths = sorted(Path(argv[0]).glob("*.py")) if len(argv) == 1 and Path(argv[0]).is_dir() else []
    if not paths:
        print("usage: python tools/code_lines.py <package-directory>", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
