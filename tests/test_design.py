"""Design gates on the package sources: counts that may fall, never grow,
and the bindings the benchmark's tracer patches.

A mode branch is a line that picks its arithmetic from an ``exact`` flag
or a value's type instead of reading it off a ``bernstein.Field``.  The
ceiling is today's count; a change that lowers the count lowers it too.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bernpop"

# the same pattern as grep -nE on src/bernpop/*.py
MODE_BRANCH = re.compile(
    r"\bexact\b[^#]*\belse\b|^\s*(el)?if\b[^#]*\bexact\b|isinstance\([^)]*Fraction\)"
    r"|\bexact\b (or|and)\b|\b(or|and) (not )?(self\.|cfg\.)?exact\b"
)
MODE_BRANCH_CEILING = 21


def test_mode_branches_do_not_grow():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if MODE_BRANCH.search(line)
    ]
    assert len(hits) <= MODE_BRANCH_CEILING, "\n".join(hits)


def test_traced_bindings_exist():
    # perfbench/spans.py patches each (owner, attribute) through the
    # owner's own namespace; a binding dropped here would end every traced
    # benchmark run in a KeyError
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TARGETS if attr not in vars(owner)]
    assert not missing, missing
