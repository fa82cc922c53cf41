"""Design gates on the package sources: counts that may fall, never grow.

A mode branch is a line that picks its arithmetic from an ``exact`` flag
or a value's type instead of reading it off a ``bernstein.Field``.  The
ceiling is today's count; a change that lowers the count lowers it too.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bernpop"

# the same pattern as grep -nE on src/bernpop/*.py
MODE_BRANCH = re.compile(
    r"\bexact\b[^#]*\belse\b|^\s*(el)?if\b[^#]*\bexact\b|isinstance\([^)]*Fraction\)"
    r"|\bexact\b (or|and)\b|\b(or|and) (not )?(self\.|cfg\.)?exact\b"
)
MODE_BRANCH_CEILING = 24


def test_mode_branches_do_not_grow():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if MODE_BRANCH.search(line)
    ]
    assert len(hits) <= MODE_BRANCH_CEILING, "\n".join(hits)
