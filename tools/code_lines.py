"""Count the code lines of widthlab's modules.

A line counts if it holds a token other than a comment or a layout token
(NEWLINE, NL, INDENT, DEDENT, ENDMARKER); a docstring counts on every line it
spans.  Prints one line per module of src/widthlab, then the total.

    python3 tools/code_lines.py
"""

import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    lines = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    src = Path(__file__).resolve().parent.parent / "src" / "widthlab"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
