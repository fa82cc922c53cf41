"""Independent level-0/1/2 values for himmelblau, written to reference_l2.json.

The Bernstein coefficients, the level-1 caps and every degree-elevation
row are built here from ``math.comb`` in rationals; nothing comes from
bernpop.  The level-2 LP (all rows, no cut loop) is solved with scipy's
HiGHS, which only this command uses.  Run it from the repository root:

    python3 perfbench/reference_l2.py

It rewrites ``perfbench/reference_l2.json``, which the ``exact`` workload
checks against.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from checks import REFERENCE_FILE, load_json, parse_terms

DEGREES = ((4, 4), (5, 5))


def unit_box_terms(terms: dict, lower, upper) -> dict:
    """Coefficients of p(lower + (upper - lower) t) in powers of t."""
    out: dict = {}
    for key, c in terms.items():
        per_axis = [
            [math.comb(e, k) * (hi - lo) ** k * lo ** (e - k) for k in range(e + 1)]
            for e, lo, hi in zip(key, lower, upper)
        ]
        for ks in itertools.product(*(range(len(a)) for a in per_axis)):
            w = c
            for a, k in zip(per_axis, ks):
                w *= a[k]
            out[ks] = out.get(ks, 0) + w
    return out


def indices(degree):
    return list(itertools.product(*(range(d + 1) for d in degree)))


def bernstein_coefficients(unit_terms: dict, degree) -> list:
    """b_I = sum over J <= I of prod_r C(i_r, j_r) / C(d_r, j_r) * a_J."""
    out = []
    for idx in indices(degree):
        b = Fraction(0)
        for key, a in unit_terms.items():
            if all(j <= i for j, i in zip(key, idx)):
                w = Fraction(a)
                for i, j, d in zip(idx, key, degree):
                    w *= Fraction(math.comb(i, j), math.comb(d, j))
                b += w
        out.append(b)
    return out


def peak(i: int, d: int) -> Fraction:
    """max over [0,1] of C(d,i) t^i (1-t)^(d-i), reached at t = i/d."""
    if d == 0:
        return Fraction(1)
    t = Fraction(i, d)
    return math.comb(d, i) * t**i * (1 - t) ** (d - i)


def elevation_rows(degree) -> tuple[list, list]:
    """Rows sum_J e_J z_J <= peak(I, K) for every I <= K <= degree, K != degree,
    with e_J = prod_r C(k_r, i_r) C(d_r - k_r, j_r - i_r) / C(d_r, j_r)."""
    top = indices(degree)
    rows, rhs = [], []
    for low in indices(degree):
        if tuple(low) == tuple(degree):
            continue
        for idx in indices(low):
            row = []
            for jdx in top:
                w = Fraction(1)
                for i, k, j, d in zip(idx, low, jdx, degree):
                    if not i <= j <= i + d - k:
                        w = Fraction(0)
                        break
                    w *= Fraction(math.comb(k, i) * math.comb(d - k, j - i), math.comb(d, j))
                row.append(w)
            rows.append(row)
            bound = Fraction(1)
            for i, k in zip(idx, low):
                bound *= peak(i, k)
            rhs.append(bound)
    return rows, rhs


def greedy_level1(b: list, caps: list) -> Fraction:
    """min b.z, sum z = 1, 0 <= z <= caps: fill the cheapest first."""
    remaining, value = Fraction(1), Fraction(0)
    for coeff, cap in sorted(zip(b, caps)):
        take = min(cap, remaining)
        value += coeff * take
        remaining -= take
        if remaining == 0:
            break
    return value


def highs(b, caps, rows=None, rhs=None) -> float:
    n = len(b)
    res = linprog(
        c=np.array([float(v) for v in b]),
        A_ub=None if rows is None else np.array([[float(v) for v in r] for r in rows]),
        b_ub=None if rhs is None else np.array([float(v) for v in rhs]),
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, float(c)) for c in caps],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise SystemExit(f"HiGHS failed: {res.message}")
    return float(res.fun)


def main() -> None:
    data = load_json("himmelblau")
    lower = [Fraction(str(v)) for v in data["box"]["lower"]]
    upper = [Fraction(str(v)) for v in data["box"]["upper"]]
    unit = unit_box_terms(parse_terms(data["objective"]), lower, upper)
    out = {}
    for degree in DEGREES:
        b = bernstein_coefficients(unit, degree)
        caps = [math.prod(peak(i, d) for i, d in zip(idx, degree)) for idx in indices(degree)]
        p1 = greedy_level1(b, caps)
        p1_highs = highs(b, caps)
        if abs(p1_highs - float(p1)) > 1e-9 * abs(float(p1)):
            raise SystemExit(f"level 1 at {degree}: greedy {p1} but HiGHS {p1_highs}")
        rows, rhs = elevation_rows(degree)
        out[",".join(map(str, degree))] = {
            "p0": str(min(b)),
            "p1": str(p1),
            "p2_highs": highs(b, caps, rows, rhs),
            "rows": len(rows),
        }
    REFERENCE_FILE.write_text(json.dumps({"himmelblau": out}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE.name}: {json.dumps(out, sort_keys=True)}")


if __name__ == "__main__":
    main()
