"""Count the package's lines of code.

A line counts when it holds a token that is neither a comment nor part of
a docstring, so blank lines, comment lines and docstrings do not count; a
string literal that spans lines counts every line it spans.  A docstring
is a string literal that stands alone as a statement.

Usage: python tools/code_lines.py [DIR ...]

Each DIR (default: the package under src/) is searched for .py files; the
script prints the count of each file and the total.  Stdlib only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "collatz_descent"

# tokens that end or indent a statement, or mark the file's ends
_LAYOUT = {
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of the Python file at path that hold code."""
    with path.open("rb") as f:
        tokens = [
            t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    lines: set[int] = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and before.type in _STATEMENT_START
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for d in [Path(a) for a in argv] or [PACKAGE]:
        for path in sorted(d.rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
