"""Print the code lines of each module of ``src/rbpda`` and their total.

A line counts when it holds a token other than a comment or a
statement-level string (a docstring, or any string that stands alone as a
statement).  Blank lines, comment lines and docstring lines do not count;
a token spanning several lines counts on each of them.

    python tools/code_lines.py [DIR]

DIR defaults to the package directory next to this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    strings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP or (tok.type == tokenize.STRING and tok.start in strings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "rbpda"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
