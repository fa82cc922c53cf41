"""Seeded fuzzing of the input loaders, in process through ``cli.main``.

Each mutant is a bundled fixture with one change: a key deleted or
retyped, a number replaced by an awkward one, a list shortened or
lengthened, or a stray character in a string.  Problem mutants run
``relax --level 1`` and Lyapunov case mutants ``lyapunov --max-boxes
300``, in both arithmetics.  Every run must end in a result (exit code 0
or 2) or in one ``error:`` line with exit code 1, never in an exception.
"""

import copy
import json
import random
import warnings

import pytest

from bernpop.cli import main
from bernpop.problems import load_fixture, lyapunov_fixture_names, pop_fixture_names

SEED = 2
MUTANTS_PER_KIND = 150
NUMBERS = (0, -1, 2.5, 1e308, True, "7", "1/0")
RETYPES = (None, "x", [1], {"a": 1}, 3, False)
STRAYS = ("^", ".", "q")


# each change and the values it applies to
FITS = {
    "delete": lambda value: True,
    "retype": lambda value: True,
    "number": lambda value: isinstance(value, (int, float)),
    "resize": lambda value: isinstance(value, list),
    "stray": lambda value: isinstance(value, str),
}


def _locations(node, path=()):
    """(path, value) of every key and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


def _mutate(data: dict, rng: random.Random) -> tuple[dict, str]:
    """A deep copy of ``data`` with one random change, and what it was.
    The change is drawn first, then a depth, then a value at that depth
    that the change applies to, so that a top-level key is as likely to
    change as a coefficient deep in a list."""
    data = copy.deepcopy(data)
    kind = rng.choice(list(FITS))
    fits = [(path, value) for path, value in _locations(data) if FITS[kind](value)]
    depth = rng.choice(sorted({len(path) for path, _ in fits}))
    path, value = rng.choice([(p, v) for p, v in fits if len(p) == depth])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = rng.choice([v for v in RETYPES if type(v) is not type(value)])
    elif kind == "number":
        parent[key] = rng.choice(NUMBERS)
    elif kind == "resize" and value and rng.random() < 0.5:
        value.pop(rng.randrange(len(value)))
    elif kind == "resize":
        value.append(copy.deepcopy(rng.choice(value)) if value else 0)
    else:
        at = rng.randrange(len(value) + 1)
        parent[key] = value[:at] + rng.choice(STRAYS) + value[at:]
    return data, f"{kind} at {list(path)}"


def _mutants(names, rng):
    fixtures = {name: load_fixture(name) for name in names}
    for _ in range(MUTANTS_PER_KIND):
        name = rng.choice(names)
        data, change = _mutate(fixtures[name], rng)
        yield data, f"{name}: {change}"


@pytest.mark.parametrize(
    "names, argv",
    [
        (pop_fixture_names(), ["relax", "--level", "1"]),
        (lyapunov_fixture_names(), ["lyapunov", "--max-boxes", "300"]),
    ],
    ids=["problems", "lyapunov cases"],
)
def test_mutated_fixtures_end_in_a_result_or_an_error(capsys, tmp_path, names, argv):
    rng = random.Random(SEED)
    path = tmp_path / "mutant.json"
    failures, errors = [], 0
    for data, change in _mutants(names, rng):
        path.write_text(json.dumps(data))
        for arith in ("float", "rational"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # V(0) != 0
                    code = main([*argv, "--arith", arith, str(path)])
            except Exception as exc:  # any exception would be a traceback at the command line
                failures.append(f"{change} ({arith}): {type(exc).__name__}: {exc}")
                capsys.readouterr()
                continue
            out, err = capsys.readouterr()
            if code == 1:
                errors += 1
                ok = out == "" and err.startswith("error:") and err.count("\n") == 1
            else:
                ok = code in (0, 2) and out != "" and err == ""
            if not ok:
                failures.append(f"{change} ({arith}): exit {code}, stdout {out!r}, stderr {err!r}")
    assert not failures, "\n".join(failures)
    # the mutants exercise the error paths, not only the happy one
    assert errors > MUTANTS_PER_KIND // 4
