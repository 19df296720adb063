"""The line counter of ``tools/linecount.py`` on in-memory sources."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"
_SPEC = importlib.util.spec_from_file_location("linecount", _PATH)
linecount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecount)

OLD = '''"""Module docstring."""

# a comment


def f(x):
    """Two-line
    docstring."""
    return x + 1
'''

NEW = '''"""Module docstring."""


def f(x):
    return (x
            + 1)
'''


def test_count_separates_blank_comment_and_docstring_lines():
    assert linecount.count(OLD) == (9, 5, 2)
    assert linecount.count(NEW) == (6, 4, 3)


def test_table_against_a_base_reports_both_sides_and_the_change():
    rows = linecount.table({"a.py": NEW, "b.py": NEW}, base={"a.py": OLD, "c.py": OLD})
    assert rows == [
        ("a.py", (9, 6, -3, 5, 4, -1, 2, 3, 1)),
        ("b.py", (0, 6, 6, 0, 4, 4, 0, 3, 3)),
        ("c.py", (9, 0, -9, 5, 0, -5, 2, 0, -2)),
        ("total", (18, 12, -6, 10, 8, -2, 4, 6, 2)),
    ]
    assert linecount.table({"a.py": NEW}) == [("a.py", (6, 4, 3)), ("total", (6, 4, 3))]
