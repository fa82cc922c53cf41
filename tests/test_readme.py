"""The README's library quickstart runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_and_prints_its_values():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md quickstart", "exec"), {})
    level1, level2, bnb = printed.getvalue().splitlines()
    assert level1.startswith("-911.4697")
    bound, rows = level2.split()
    assert bound.startswith("-856.416") and rows == "6"
    lower, upper = (float(v) for v in bnb.split()[:2])
    assert lower <= 0.0 <= upper
