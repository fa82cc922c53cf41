"""Problem JSON schema and the bundled benchmark registry.

A problem file looks like::

    {"dimension": 2,
     "objective": [{"exponents": [2, 0], "coeff": 1}, ...],
     "box": {"lower": [-5, -5], "upper": [5, 5]},
     "constraints_poly": [[{"exponents": [1, 0], "coeff": 1}, ...], ...],
     "constraints_linear": {"A": [[1, 1]], "b": [1]}}

Coefficients are numbers or strings; strings such as ``"1/3"`` always
parse as exact rationals, and in rational mode every number is read
exactly from its decimal literal.  ``constraints_poly`` entries mean
g(x) <= 0.  Lyapunov fixture files carry plain-text polynomials instead
(``V``, ``odes``) plus the derivative polynomial printed in the source
benches for cross-checking.
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
        value = Fraction(value)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"bad coefficient {value!r}")
    elif exact and isinstance(value, float):
        value = Fraction(str(value))
    return field(exact).of(value)


def poly_from_terms(dimension: int, entries: Sequence[dict], exact: bool = False) -> Polynomial:
    terms = {}
    for entry in entries:
        exps = entry.get("exponents")
        if not isinstance(exps, list) or len(exps) != dimension:
            raise ValueError(f"exponents {exps!r} do not match dimension {dimension}")
        idx = tuple(int(e) for e in exps)
        terms[idx] = terms.get(idx, 0) + parse_coeff(entry.get("coeff"), exact)
    return Polynomial(dimension, terms)


@dataclass
class PopProblem:
    name: str
    objective: Polynomial
    box: Box
    constraints_poly: tuple
    constraints_linear: Optional[tuple]  # (A, b) in original coordinates
    known_optimum: Optional[float] = None
    epsilon: Optional[float] = None

    def all_constraints(self) -> tuple:
        """Every side constraint as a polynomial g(x) <= 0: the polynomial
        ones, then each linear row a.x <= b as the degree-1 a.x - b (with
        Fraction coefficients when the problem was read exactly)."""
        n = self.objective.dimension
        linear = []
        if self.constraints_linear:
            a_mat, b_vec = self.constraints_linear
            for row, b in zip(a_mat, b_vec):
                terms = {(0,) * n: -b}
                for j, a in enumerate(row):
                    terms[tuple(int(l == j) for l in range(n))] = a
                linear.append(Polynomial(n, terms))
        return tuple(self.constraints_poly) + tuple(linear)


def load_problem(source, exact: bool = False) -> PopProblem:
    """Parse a problem from a dict, JSON text, or file path."""
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        data = json.loads(Path(source).read_text())
        default_name = Path(source).stem
    elif isinstance(source, str):
        data = json.loads(source)
        default_name = "problem"
    else:
        data = source
        default_name = "problem"
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    try:
        dim = int(data["dimension"])
        objective = poly_from_terms(dim, data["objective"], exact)
        box_data = data["box"]
        lower = tuple(parse_coeff(v, exact) for v in box_data["lower"])
        upper = tuple(parse_coeff(v, exact) for v in box_data["upper"])
    except KeyError as missing:
        raise ValueError(f"problem file is missing key {missing}") from None
    box = Box(lower, upper)
    if box.dimension != dim:
        raise ValueError("box dimension does not match problem dimension")
    constraints = tuple(
        poly_from_terms(dim, entry, exact) for entry in data.get("constraints_poly", [])
    )
    linear = None
    if "constraints_linear" in data and data["constraints_linear"]:
        lin = data["constraints_linear"]
        a_mat = [[parse_coeff(v, exact) for v in row] for row in lin["A"]]
        b_vec = [parse_coeff(v, exact) for v in lin["b"]]
        if any(len(row) != dim for row in a_mat) or len(a_mat) != len(b_vec):
            raise ValueError("constraints_linear shapes are inconsistent")
        linear = (a_mat, b_vec)
    return PopProblem(
        name=data.get("name", default_name),
        objective=objective,
        box=box,
        constraints_poly=constraints,
        constraints_linear=linear,
        known_optimum=data.get("known_optimum"),
        epsilon=data.get("epsilon"),
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
    terms = parse_polynomial(text, variables)
    return Polynomial(len(variables), {i: F.of(c) for i, c in terms.items()})


def canonical_json(data) -> str:
    """One canonical rendering so emitted reports re-serialize bytewise."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
