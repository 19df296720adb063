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
    python tools/linecount.py --against <git-ref>

With ``--against``, each module is also counted as it is at the git ref,
read with ``git show <ref>:src/flime/<module>`` (no checkout), and each
count is printed at the ref, now, and as the change; a module that exists
on one side only counts as 0 lines on the other.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = "src/flime"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _token_lines(source):
    """Numbers of the lines that hold a token other than a comment."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
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


def count(source):
    """``(raw, code+doc, code)`` line counts of one Python source text."""
    tokens = _token_lines(source)
    return len(source.splitlines()), len(tokens), len(tokens - _docstring_lines(source))


def table(sources, base=None):
    """Rows ``(module, counts)`` for ``sources`` (module name -> source text)
    and a last ``total`` row.  With ``base``, the sources at a reference in
    the same form, counts holds for each of the three counts its value at
    the base, now, and the change."""
    names = sorted(set(sources) | set(base or ()))
    rows = []
    for name in names:
        now = count(sources[name]) if name in sources else (0, 0, 0)
        if base is not None:
            then = count(base[name]) if name in base else (0, 0, 0)
            now = tuple(x for pair in zip(then, now) for x in (*pair, pair[1] - pair[0]))
        rows.append((name, now))
    rows.append(("total", tuple(sum(col) for col in zip(*(r[1] for r in rows)))))
    return rows


def _git(*args):
    return subprocess.run(["git", *args], cwd=_ROOT, capture_output=True, text=True, check=True).stdout


def _sources_at(ref):
    """The modules of the package at a git ref, name -> source text."""
    names = _git("ls-tree", "--name-only", f"{ref}:{_PACKAGE}").split()
    return {name: _git("show", f"{ref}:{_PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Line counts of the modules of src/flime.")
    parser.add_argument("directory", nargs="?", type=Path, default=_ROOT / _PACKAGE)
    parser.add_argument("--against", metavar="REF", help="also count the modules at this git ref")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    sources = {path.name: path.read_text() for path in sorted(args.directory.glob("*.py"))}
    if args.against is None:
        print(f"{'module':<16}{'raw':>7}{'code+doc':>10}{'code':>7}")
        for name, (raw, tokens, code) in table(sources):
            print(f"{name:<16}{raw:>7}{tokens:>10}{code:>7}")
        return
    try:
        base = _sources_at(args.against)
    except subprocess.CalledProcessError as err:
        sys.exit(f"linecount: cannot read {_PACKAGE} at {args.against!r}: {err.stderr.strip()}")
    print(f"{'':<16}{'raw':^21}{'code+doc':^21}{'code':^21}")
    print(f"{'module':<16}" + f"{'ref':>7}{'now':>7}{'change':>7}" * 3)
    for name, counts in table(sources, base):
        print(f"{name:<16}" + "".join(f"{c:>7}" if i % 3 < 2 else f"{c:>+7}"
                                      for i, c in enumerate(counts)))


if __name__ == "__main__":
    main()
