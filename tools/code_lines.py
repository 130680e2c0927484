"""Code lines of each `src/nchodge` module, and their total.

A code line is a line that holds a token other than a comment, a line
break, an indent or dedent, or a string statement (a docstring, or any
other string that stands alone as a statement).  A token that spans
several lines, such as a triple-quoted string inside an expression, makes
each of them a code line.  Blank lines and lines of comments or docstrings
only do not count.  The rule reads the source with `tokenize`, so a `#`
inside a string is no comment.

    python3 tools/code_lines.py            # the modules of src/nchodge
    python3 tools/code_lines.py DIR        # the *.py files of DIR

One `lines name` row per module, in name order, then `lines total`.
Stdlib only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _statements(tokens):
    """The tokens of a file grouped into logical lines, layout dropped."""
    line = []
    for tok in tokens:
        if tok.type == tokenize.NEWLINE:
            yield line
            line = []
        elif tok.type not in _LAYOUT:
            line.append(tok)
    if line:
        yield line


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    with tokenize.open(path) as f:
        tokens = list(tokenize.generate_tokens(f.readline))
    lines = set()
    for statement in _statements(tokens):
        if all(tok.type == tokenize.STRING for tok in statement):
            continue  # a string statement
        for tok in statement:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT / "src" / "nchodge"
    total = 0
    for path in sorted(directory.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n} {path.stem}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
