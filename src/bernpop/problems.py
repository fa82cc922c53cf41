"""Problem JSON schema, its loaders and the bundled fixture files.

A problem file looks like::

    {"dimension": 2,
     "objective": [{"exponents": [2, 0], "coeff": 1}, ...],
     "box": {"lower": [-5, -5], "upper": [5, 5]},
     "constraints_poly": [[{"exponents": [1, 0], "coeff": 1}, ...], ...],
     "constraints_linear": {"A": [[1, 1]], "b": [1]}}

Coefficients are numbers or strings; strings such as ``"1/3"`` always
parse as exact rationals, and in rational mode every number is read
exactly from its decimal literal.  A boolean is never a number.
``constraints_poly`` entries mean g(x) <= 0, and each linear row
a.x <= b loads as one more of them, the degree-1 a.x - b, after the
file's own.  Lyapunov fixture files carry plain-text polynomials instead
(``V``, ``odes``; the derivative printed in the source benches,
``printed_vdot``, is for the tests' cross-check and not read here);
``lyapunov`` loads them and holds the benchmark registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .bernstein import field
from .poly import Box, Polynomial, parse_polynomial


def parse_coeff(value, exact: bool = False):
    """Number or string to a scalar; strings (e.g. "1/3") are exact, and
    in exact mode a float is read from its decimal literal."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"bad coefficient {value!r}: division by zero") from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"bad coefficient {value!r}")
    elif exact and isinstance(value, float):
        value = Fraction(str(value))
    return field(exact).of(value)


def checked(value, kind, what: str):
    """``value`` if it is an instance of ``kind`` and not a bool; a
    ValueError saying ``what`` it must be otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what}, got {value!r}")
    return value


def parse_dimension(data: dict) -> int:
    """The file's "dimension": an int of at least 1."""
    dim = checked(data["dimension"], int, '"dimension" must be an integer')
    if dim < 1:
        raise ValueError(f'"dimension" must be a positive integer, got {dim}')
    return dim


def poly_from_terms(dimension: int, entries: Sequence[dict], exact: bool = False) -> Polynomial:
    what = "a polynomial must be a list of term objects"
    terms = {}
    for entry in checked(entries, list, what):
        exps = checked(entry, dict, what).get("exponents")
        if not isinstance(exps, list) or len(exps) != dimension:
            raise ValueError(f"exponents {exps!r} do not match dimension {dimension}")
        if not all(type(e) is int and e >= 0 for e in exps):  # no bool, float or string
            raise ValueError(f"exponents {exps!r} must be non-negative integers")
        idx = tuple(exps)
        terms[idx] = terms.get(idx, 0) + parse_coeff(entry.get("coeff"), exact)
    return Polynomial(dimension, terms)


@dataclass
class PopProblem:
    name: str
    objective: Polynomial
    box: Box
    constraints_poly: tuple  # every side constraint g(x) <= 0, linear rows last
    known_optimum: Optional[float] = None
    epsilon: Optional[float] = None


def parse_box(data: dict, key: str, exact: bool = False) -> Box:
    """The box ``data[key]``: an object with lists "lower" and "upper"."""
    what = f'"{key}" must be an object with "lower" and "upper" lists'
    bounds = checked(data[key], dict, what)
    lower, upper = (checked(bounds[side], list, what) for side in ("lower", "upper"))
    return Box(
        tuple(parse_coeff(v, exact) for v in lower), tuple(parse_coeff(v, exact) for v in upper)
    )


def read_json_object(source, what: str) -> tuple[dict, Optional[str]]:
    """The JSON object of a file path, or a dict as given, with the file's
    stem (None for a dict); a ValueError saying that ``what`` must contain
    a JSON object otherwise.  A path that cannot be read is an OSError."""
    if isinstance(source, dict):
        return source, None
    data = json.loads(Path(source).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{what} must contain a JSON object")
    return data, Path(source).stem


def load_problem(source, exact: bool = False) -> PopProblem:
    """Parse a problem from a dict or a file path."""
    data, stem = read_json_object(source, "problem file")
    num = (int, float, type(None))
    try:
        dim = parse_dimension(data)
        objective = poly_from_terms(dim, data["objective"], exact)
        box = parse_box(data, "box", exact)
        polys = checked(data.get("constraints_poly", []), list, '"constraints_poly" must be a list')
        constraints = [poly_from_terms(dim, entry, exact) for entry in polys]
        if data.get("constraints_linear"):
            what = '"constraints_linear" must be an object with a list of rows "A" and a list "b"'
            lin = checked(data["constraints_linear"], dict, what)
            a_mat = [
                [parse_coeff(v, exact) for v in checked(row, list, what)]
                for row in checked(lin["A"], list, what)
            ]
            b_vec = [parse_coeff(v, exact) for v in checked(lin["b"], list, what)]
            if any(len(row) != dim for row in a_mat) or len(a_mat) != len(b_vec):
                raise ValueError("constraints_linear shapes are inconsistent")
            units = [tuple(int(l == j) for l in range(dim)) for j in range(dim)]
            for row, b in zip(a_mat, b_vec):  # a.x <= b as a.x - b <= 0
                constraints.append(Polynomial(dim, {(0,) * dim: -b, **dict(zip(units, row))}))
    except KeyError as missing:
        raise ValueError(f"problem file is missing key {missing}") from None
    if box.dimension != dim:
        raise ValueError("box dimension does not match problem dimension")
    return PopProblem(
        name=checked(data.get("name", stem or "problem"), str, '"name" must be a string'),
        objective=objective,
        box=box,
        constraints_poly=tuple(constraints),
        known_optimum=checked(data.get("known_optimum"), num, '"known_optimum" must be a number'),
        epsilon=checked(data.get("epsilon"), num, '"epsilon" must be a number'),
    )


# ---------------------------------------------------------------------------
# bundled fixtures


def _fixture_paths() -> list[Path]:
    root = resources.files("bernpop").joinpath("fixtures")
    return sorted(Path(str(root)).glob("*.json"))


def load_fixture(name: str) -> dict:
    root = resources.files("bernpop").joinpath("fixtures")
    path = Path(str(root)) / f"{name}.json"
    if not path.exists():
        raise ValueError(f"no bundled fixture named {name!r}")
    return json.loads(path.read_text())


def pop_fixture_names() -> list[str]:
    return [p.stem for p in _fixture_paths() if not p.stem.startswith("lyap")]


def lyapunov_fixture_names() -> list[str]:
    return [p.stem for p in _fixture_paths() if p.stem.startswith("lyap")]


def poly_from_text(text: str, variables: Sequence[str], exact: bool = False) -> Polynomial:
    F = field(exact)
    terms = parse_polynomial(checked(text, str, "a polynomial must be a string"), variables)
    return Polynomial(len(variables), {i: F.of(c) for i, c in terms.items()})


def canonical_json(data) -> str:
    """One canonical rendering so emitted reports re-serialize bytewise.
    A non-finite float is a ValueError: strict JSON has no NaN or
    infinity."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
