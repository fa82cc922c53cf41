"""Show that the output checks catch wrong results.

    python3 perfbench/selftest.py

Each case takes a result that passes the checks, forges one field, and
requires ``checks.py`` to reject it with the expected complaint.  Exits 1
if a true result is rejected or a forged one gets through.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import checks


def himmelblau_result(**forged) -> dict:
    result = {"lower": -1e-10, "upper": 0.0, "witness": (3.0, 2.0), "converged": True}
    result.update(forged)
    return result


def lyap7_verdict(**forged) -> dict:
    verdict = {"v_bound": 0.0, "vdot_bound": -1 / 5000, "stable": False, "exhausted": False}
    verdict.update(forged)
    return verdict


def chain(reference: dict, **forged) -> dict:
    p0, p1 = Fraction(reference["p0"]), Fraction(reference["p1"])
    out = {"p0": p0, "first": p0, "p1": p1, "p2": Fraction(reference["p2_highs"]), "rows": reference["rows"]}
    out.update(forged)
    return out


def main() -> int:
    rng = random.Random(0)
    himmelblau = checks.bnb_problem("himmelblau")
    lyap7 = checks.sample_minima(checks.lyapunov_case("lyap7"), rng)
    reference = checks.load_reference()["himmelblau"]["4,4"]
    p2 = reference["p2_highs"]

    def bnb(result):
        checks.check_bnb(himmelblau, result, 1e-9, rng)

    def lyapunov(verdict):
        checks.check_lyapunov("lyap7", "lyap7", verdict, lyap7)

    def relaxation(values):
        checks.check_chain("himmelblau 4x4", values, reference, p2)

    true_results = [
        ("true B&B result", bnb, himmelblau_result()),
        ("true lyap7 rejection", lyapunov, lyap7_verdict()),
        ("true relaxation chain", relaxation, chain(reference)),
    ]
    forged_results = [
        ("lower bound above the optimum", bnb, himmelblau_result(lower=0.5), "above the optimum"),
        ("witness outside the box", bnb, himmelblau_result(witness=(6.0, 2.0)), "outside the box"),
        ("objective at the witness differs from upper", bnb,
         himmelblau_result(witness=(3.0, 2.001)), "objective at the witness"),
        ("lyap7 verified with its true bounds", lyapunov, lyap7_verdict(stable=True), "was verified"),
        ("lyap7 verified with forged bounds", lyapunov,
         lyap7_verdict(vdot_bound=0.0, stable=True), "above the sampled minimum"),
        ("relaxation chain with p2 < p1", relaxation,
         chain(reference, p2=Fraction(reference["p1"]) - 1), "out of order"),
    ]
    ok = True
    for label, check, result in true_results:
        try:
            check(result)
            print(f"passes: {label}")
        except checks.CheckFailed as exc:
            print(f"WRONGLY REJECTED: {label}: {exc}")
            ok = False
    for label, check, result, complaint in forged_results:
        try:
            check(result)
        except checks.CheckFailed as exc:
            if complaint in str(exc):
                print(f"caught: {label}: {exc}")
                continue
            print(f"CAUGHT FOR ANOTHER REASON: {label}: {exc}")
        else:
            print(f"NOT CAUGHT: {label}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
