#!/usr/bin/env python3
"""Print the size of a package directory (src/divcorr by default): the
line count of its *.py files, as `wc -l` totals it, and its code lines,
those holding a token that is neither a comment nor part of a docstring.

    python scripts/code_lines.py
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The lines of source that hold a token other than a comment, outside
    the docstrings of the module, its classes and its functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    root = Path(__file__).resolve().parent.parent / "src" / "divcorr"
    parser.add_argument("dir", nargs="?", type=Path, default=root)
    args = parser.parse_args(argv)
    sources = [path.read_text() for path in sorted(args.dir.glob("*.py"))]
    total = sum(source.count("\n") for source in sources)
    print(f"wc -l: {total}")
    print(f"code lines: {sum(code_lines(source) for source in sources)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
