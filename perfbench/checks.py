"""Output checks that share no code with bernpop.

Polynomials are read straight from the fixture JSON with this file's own
parser and evaluated in rationals.  Every rule here is either a value
proven apart from bernpop (the optima below, the HiGHS reference of
``reference_l2.py``) or a property a sound method must have (a lower
bound never exceeds a sampled value, a witness lies in its box).  The
functions take plain numbers, so ``selftest.py`` can feed them forged
results.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "bernpop" / "fixtures"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_l2.json"

# Global minima over the fixture boxes, each with its proof:
# himmelblau is a sum of two squares that both vanish at (3, 2), inside
# [-5, 5]^2; motzkin3 = x^4y^2 + x^2y^4 + z^6 - 3x^2y^2z^2 >= 0 by AM-GM on
# the three positive terms, with 0 at the origin; algebraic4 =
# x^4+y^4+z^4+w^4 - 4xyzw - 1 >= -1 by AM-GM, with -1 at the origin.
PROVEN_OPTIMA = {
    "himmelblau": (Fraction(0), (3, 2)),
    "motzkin3": (Fraction(0), (0, 0, 0)),
    "algebraic4": (Fraction(-1), (0, 0, 0, 0)),
}

# Points where exact reckoning shows a certificate condition fails:
# -dV/dt = -1/5000 for lyap7 at (1,-1,1), V = -10.9789 for lyap8 at (-1,-1,-1).
KNOWN_POINTS = {
    "lyap7": ("vdot", (1, -1, 1), Fraction(-1, 5000)),
    "lyap8": ("v", (-1, -1, -1), Fraction(-109789, 10000)),
}
MUST_REJECT = ("lyap7", "lyap8")
MUST_VERIFY = ("lyap1", "lyap3", "lyap4", "lyap5", "lyap6", "lyap9")
# lyap2 is valid but rejected by the stall rule; no verdict is asserted

SOUND_TOL = 1e-9  # float bounds may sit this far above a sampled value
GRID_POINTS = 9  # per axis, so the grid holds the origin and the corners
RANDOM_POINTS = 64


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}

_TERM = re.compile(r"([+-]?)(\d+(?:\.\d+)?)?((?:[a-z](?:\^\d+)?)*)")
_FACTOR = re.compile(r"([a-z])(?:\^(\d+))?")


def parse_text(text: str, variables) -> dict:
    """Read a plain-text polynomial such as ``-1.25x^4+5xy^2z``."""
    terms: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot read polynomial at {text[pos:pos + 12]!r}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        exps = [0] * len(variables)
        for name, power in _FACTOR.findall(m.group(3)):
            exps[variables.index(name)] += int(power or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        pos = m.end()
    return {k: c for k, c in terms.items() if c}


def parse_terms(entries) -> dict:
    """Read the ``objective`` list of a problem fixture exactly."""
    terms: dict = {}
    for entry in entries:
        key = tuple(entry["exponents"])
        value = entry["coeff"]
        coeff = Fraction(value) if isinstance(value, (str, int)) else Fraction(str(value))
        terms[key] = terms.get(key, 0) + coeff
    return {k: c for k, c in terms.items() if c}


def evaluate(terms: dict, point) -> Fraction:
    """Exact value at a point; floats enter as the rationals they are."""
    xs = [Fraction(x) for x in point]
    total = Fraction(0)
    for key, c in terms.items():
        term = c
        for x, e in zip(xs, key):
            if e:
                term *= x**e
        total += term
    return total


def evaluate_float(terms: dict, point) -> float:
    total = 0.0
    for key, c in terms.items():
        term = float(c)
        for x, e in zip(point, key):
            if e:
                term *= x**e
        total += term
    return total


def magnitude(terms: dict, point) -> float:
    """Sum of |term| at a point: the scale of float rounding in an evaluation."""
    return evaluate_float({k: abs(c) for k, c in terms.items()}, [abs(float(x)) for x in point])


def derivative(terms: dict, axis: int) -> dict:
    out: dict = {}
    for key, c in terms.items():
        e = key[axis]
        if e:
            k = key[:axis] + (e - 1,) + key[axis + 1 :]
            out[k] = out.get(k, 0) + c * e
    return out


def multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def negate(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def load_json(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# branch and bound


def bnb_problem(name: str) -> dict:
    """Objective and box of a fixture, read apart from bernpop."""
    data = load_json(name)
    terms = parse_terms(data["objective"])
    optimum, argmin = PROVEN_OPTIMA[name]
    if evaluate(terms, argmin) != optimum:
        raise CheckFailed(f"{name}: the fixture objective is not {optimum} at {argmin}")
    return {
        "name": name,
        "terms": terms,
        "lower": [Fraction(str(v)) for v in data["box"]["lower"]],
        "upper": [Fraction(str(v)) for v in data["box"]["upper"]],
        "optimum": optimum,
    }


def check_bnb(problem: dict, result: dict, epsilon: float, rng: random.Random) -> None:
    """``result`` holds lower, upper, witness and converged of one solve."""
    name = problem["name"]
    require(result["converged"], f"{name}: branch and bound did not converge")
    require(None not in (result["lower"], result["upper"]), f"{name}: no bound reported")
    lower, upper = Fraction(result["lower"]), Fraction(result["upper"])
    optimum = problem["optimum"]
    require(lower <= optimum, f"{name}: lower bound {float(lower)} above the optimum {optimum}")
    require(optimum <= upper, f"{name}: upper bound {float(upper)} below the optimum {optimum}")
    slack = Fraction(epsilon) * max(1, abs(upper))
    require(upper - lower <= slack, f"{name}: gap {float(upper - lower)} over {float(slack)}")
    witness = result["witness"]
    require(
        witness is not None and len(witness) == len(problem["lower"]),
        f"{name}: no witness of the problem's dimension",
    )
    for x, lo, hi in zip(witness, problem["lower"], problem["upper"]):
        require(lo <= Fraction(x) <= hi, f"{name}: witness {witness} outside the box")
    value = evaluate(problem["terms"], witness)
    if isinstance(result["upper"], Fraction):
        require(value == upper, f"{name}: objective at the witness is {value}, not {upper}")
    else:
        tol = 1e-12 * (1 + magnitude(problem["terms"], witness))
        require(
            abs(float(value - upper)) <= tol,
            f"{name}: objective at the witness is {float(value)}, reported {float(upper)}",
        )
    for _ in range(8):
        pt = [lo + (hi - lo) * Fraction(rng.randrange(1 << 20), 1 << 20)
              for lo, hi in zip(problem["lower"], problem["upper"])]
        require(
            lower <= evaluate(problem["terms"], pt),
            f"{name}: lower bound {float(lower)} above the value at {[float(x) for x in pt]}",
        )


# ---------------------------------------------------------------------------
# relaxation chains


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_chain(label: str, chain: dict, reference: dict, float_p2: float) -> None:
    """``chain`` holds the exact p0, first, p1, p2 and the cut-row count of one degree."""
    require(chain["rows"] == reference["rows"], f"{label}: {chain['rows']} cut rows, not {reference['rows']}")
    p0, first, p1, p2 = (Fraction(chain[k]) for k in ("p0", "first", "p1", "p2"))
    require(p0 <= first <= p1 <= p2 <= 0, f"{label}: chain {[float(v) for v in (p0, first, p1, p2)]} out of order")
    require(p0 == Fraction(reference["p0"]), f"{label}: p0 {p0} differs from {reference['p0']}")
    require(p1 == Fraction(reference["p1"]), f"{label}: p1 {p1} differs from {reference['p1']}")
    ref_p2 = reference["p2_highs"]
    require(
        abs(float(p2) - ref_p2) <= 1e-6 * abs(ref_p2),
        f"{label}: exact p2 {float(p2)} differs from the HiGHS value {ref_p2}",
    )
    require(
        abs(float_p2 - float(p2)) <= 1e-9 * abs(float(p2)),
        f"{label}: float p2 {float_p2} differs from the exact {float(p2)}",
    )


# ---------------------------------------------------------------------------
# Lyapunov certificates


def lyapunov_case(name: str) -> dict:
    """V and -dV/dt of a fixture, computed here in rationals."""
    data = load_json(name)
    variables = data["variables"]
    v = parse_text(data["V"], variables)
    field = [parse_text(ode, variables) for ode in data["odes"]]
    vdot: dict = {}
    for axis, f in enumerate(field):
        vdot = add(vdot, multiply(derivative(v, axis), f))
    case = {
        "name": name,
        "v": v,
        "nvdot": negate(vdot),
        "lower": [Fraction(b) for b in data["region"]["lower"]],
        "upper": [Fraction(b) for b in data["region"]["upper"]],
    }
    if name in KNOWN_POINTS:
        which, point, value = KNOWN_POINTS[name]
        poly = case["v"] if which == "v" else case["nvdot"]
        got = evaluate(poly, point)
        if got != value:
            raise CheckFailed(f"{name}: own reckoning gives {got} at {point}, not {value}")
    return case


def sample_minima(case: dict, rng: random.Random) -> dict:
    """Least V and -dV/dt over a grid, seeded random points and the
    known points; every sound lower bound lies below these."""
    lo, hi = case["lower"], case["upper"]
    axes = [[float(a + (b - a) * Fraction(t, GRID_POINTS - 1)) for t in range(GRID_POINTS)]
            for a, b in zip(lo, hi)]
    points = list(itertools.product(*axes))
    points += [tuple(float(a) + float(b - a) * rng.random() for a, b in zip(lo, hi))
               for _ in range(RANDOM_POINTS)]
    out = {}
    for key in ("v", "nvdot"):
        out[key] = min(evaluate_float(case[key], pt) for pt in points)
    if case["name"] in KNOWN_POINTS:
        which, point, value = KNOWN_POINTS[case["name"]]
        key = "v" if which == "v" else "nvdot"
        out[key] = min(out[key], float(value))
    return out


def check_lyapunov(label: str, name: str, verdict: dict, minima: dict) -> None:
    """``verdict`` holds v_bound, vdot_bound, stable and exhausted of one verification."""
    require(not verdict["exhausted"], f"{label}: node budget ran out")
    require(
        verdict["v_bound"] <= minima["v"] + SOUND_TOL,
        f"{label}: V bound {verdict['v_bound']} above the sampled minimum {minima['v']}",
    )
    require(
        verdict["vdot_bound"] <= minima["nvdot"] + SOUND_TOL,
        f"{label}: -dV/dt bound {verdict['vdot_bound']} above the sampled minimum {minima['nvdot']}",
    )
    if name in MUST_REJECT:
        require(not verdict["stable"], f"{label}: certificate with a counterexample was verified")
    if name in MUST_VERIFY:
        require(verdict["stable"], f"{label}: valid certificate was not verified")
        require(
            minima["v"] >= -SOUND_TOL and minima["nvdot"] >= -SOUND_TOL,
            f"{label}: sampled points violate a certificate expected to be valid",
        )
