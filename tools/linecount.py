"""Line counts of the modules of ``src/flime``, from the standard library's
``ast`` and ``tokenize``.

For each module, and in total, three counts:

- ``raw``: every line of the file;
- ``code+doc``: lines that hold a token other than a comment, so without
  blank lines and comment-only lines (a line inside a multi-line string
  counts, blank or not);
- ``code``: those lines, less every line of a docstring (the leading string
  of a module, class or function).

Run from the repository root::

    python tools/linecount.py [directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _token_lines(path):
    """Numbers of the lines that hold a token other than a comment."""
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _docstring_lines(source):
    """Numbers of the lines of every docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """``(raw, code+doc, code)`` line counts of one Python file."""
    source = path.read_text()
    tokens = _token_lines(path)
    return len(source.splitlines()), len(tokens), len(tokens - _docstring_lines(source))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "flime"
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in zip(*(r[1:] for r in rows)))))
    print(f"{'module':<16}{'raw':>7}{'code+doc':>10}{'code':>7}")
    for name, raw, tokens, code in rows:
        print(f"{name:<16}{raw:>7}{tokens:>10}{code:>7}")


if __name__ == "__main__":
    main()
