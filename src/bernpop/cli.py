"""Command-line front end.

Four modes:

* ``relax``    - one-shot lower bounds on a problem file (levels 0..2)
* ``bnb``      - branch-and-bound global minimization
* ``lyapunov`` - certificate verification for an ODE + candidate V file
* ``bench``    - run the bundled benchmark registry

Problem files follow the JSON schema documented in ``problems``.  Exit
codes: 0 success, 2 not converged / verdict not reached, 1 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import bnb as bnb_mod
from . import lyapunov as lyap_mod
from . import problems
from .bernstein import BernsteinForm, upper_bounds
from .relax import LEVEL_0, LEVEL_1, LEVEL_2, LEVEL_FIRST, bound_at_level, constraint_rows, witness

# the level chain in order of strength, with each level's report key
_LEVEL_KEYS = {LEVEL_0: "p0", LEVEL_FIRST: "first", LEVEL_1: "p1", LEVEL_2: "p2"}


def _existing(path: str) -> str:
    from pathlib import Path

    if not Path(path).exists():
        raise FileNotFoundError(path)
    return path


def _parse_degree(text: str, objective_degree: tuple) -> tuple:
    parts = [int(p) for p in text.split(",") if p != ""]
    if len(parts) == 1:
        parts = parts * len(objective_degree)
    if len(parts) != len(objective_degree):
        raise ValueError(
            f"degree override has {len(parts)} entries for dimension {len(objective_degree)}"
        )
    if any(d < e for d, e in zip(parts, objective_degree)):
        raise ValueError(
            f"unsupported degree: override {tuple(parts)} is below the "
            f"objective degree {objective_degree}"
        )
    return tuple(parts)


def _bounds_json(named: dict) -> dict:
    """Named bounds as floats (None, an infeasible LP, stays None, and so
    does a Fraction beyond binary64) and, under "exact_bounds", the exact
    strings of those that are Fractions (exact mode)."""
    out = {k: bnb_mod.float_or_none(v) for k, v in named.items()}
    exact_strs = {k: str(v) for k, v in named.items() if isinstance(v, Fraction)}
    if exact_strs:
        out["exact_bounds"] = exact_strs
    return out


def _witness_json(witness, exact: bool):
    if witness is None:
        return None
    if exact:
        return {
            "float": [bnb_mod.float_or_none(v) for v in witness],
            "exact": [str(Fraction(v)) for v in witness],
        }
    return [float(v) for v in witness]


def _run_relax(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    problem = problems.load_problem(_existing(args.input), exact)
    p = problem.objective
    degree = _parse_degree(args.degree, p.degree) if args.degree else None
    t, *g_tensors = bnb_mod.relaxation_tensors(p, problem.all_constraints(), problem.box, degree, exact)
    bf = BernsteinForm(t)
    extra_rows = constraint_rows(g_tensors)
    u = upper_bounds(bf.degree, exact=exact)

    named: dict = {}
    timings: dict = {}
    point = None
    levels = list(_LEVEL_KEYS)
    for level in levels[: levels.index(args.level) + 1]:
        key = _LEVEL_KEYS[level]
        t0 = time.perf_counter()
        out = bound_at_level(bf, level, u=u, extra_rows=extra_rows)
        timings[key] = time.perf_counter() - t0
        named[key] = out.bound
        if point is None and not g_tensors:
            point = witness(bf, out)
    bounds = _bounds_json(named)
    report = {
        "mode": "relax",
        "problem": problem.name,
        "level": args.level,
        "degree": list(bf.degree),
        "bounds": bounds,
        "timings": timings,
    }
    if "exact_bounds" in bounds:
        report["exact_bounds"] = bounds.pop("exact_bounds")
    if args.level == LEVEL_2:
        bounds["p2_activated_rows"] = len(out.activated_rows)
        bounds["p2_iterations"] = out.iterations
        bounds["p2_pivots"] = out.pivots
    if point is not None:
        report["witness"] = _witness_json(problem.box.point(point), exact)
    return 0, report


def _bnb_section(result, exact: bool) -> dict:
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed"], stats["edge_elapsed"]  # the timings section reports them
    return {
        **_bounds_json({"lower": result.lower_bound, "upper": result.upper_bound}),
        "witness": _witness_json(result.witness, exact),
        "converged": result.converged,
        "stats": stats,
    }


def _run_bnb(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    problem = problems.load_problem(_existing(args.input), exact)
    degree = None
    if args.degree:
        degree = _parse_degree(args.degree, problem.objective.degree)
    eps = args.eps if args.eps is not None else problem.epsilon or 1e-6
    cfg = bnb_mod.BnbConfig(level=args.level, epsilon=eps, max_boxes=args.max_boxes, exact=exact)
    t0 = time.perf_counter()
    result = bnb_mod.branch_and_bound(
        problem.objective, problem.all_constraints(), problem.box, cfg, degree=degree
    )
    elapsed = time.perf_counter() - t0
    report = {
        "mode": "bnb",
        "problem": problem.name,
        "level": args.level,
        "bnb": _bnb_section(result, exact),
        "timings": {
            "total": elapsed,
            "main": result.stats.elapsed,
            "edge": result.stats.edge_elapsed,
        },
    }
    return (0 if result.converged else 2), report


def _run_lyapunov(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    case = lyap_mod.load_lyapunov_case(_existing(args.input), exact)
    cfg = lyap_mod.default_config(max_boxes=args.max_boxes)
    cfg.level = args.level
    cfg.exact = exact
    verdict = lyap_mod.verify_lyapunov(case, cfg)
    reached = not (verdict.v_run.exhausted or verdict.vdot_run.exhausted)
    report = {
        "mode": "lyapunov",
        "problem": case.name,
        "level": cfg.level,
        "verdict": {
            **_bounds_json({"v_bound": verdict.v_bound, "vdot_bound": verdict.vdot_bound}),
            "stable": verdict.stable,
            "nodes": [verdict.v_run.nodes, verdict.vdot_run.nodes],
        },
        "timings": {
            "v": verdict.v_run.elapsed,
            "vdot": verdict.vdot_run.elapsed,
        },
    }
    return (0 if reached else 2), report


def _run_bench(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    registry = lyap_mod.benchmark_registry(exact)
    pops, cases = registry["pop"], registry["lyapunov"]
    names = args.names or sorted(pops) + sorted(cases)
    for name in names:
        if name not in pops and name not in cases:
            raise ValueError(f"unknown benchmark {name!r}")
    results = [
        _bench_pop(name, pops[name], args.level, exact) if name in pops
        else _bench_lyapunov(name, cases[name], args.level, exact)
        for name in names
    ]
    ok = all(r.pop("_ok") for r in results)
    report = {"mode": "bench", "level": args.level, "results": results}
    return (0 if ok else 2), report


def _bench_pop(name: str, problem, level: str, exact: bool) -> dict:
    cfg = bnb_mod.BnbConfig(
        level=level, epsilon=problem.epsilon or 1e-6, max_boxes=200_000, exact=exact,
    )
    t0 = time.perf_counter()
    result = bnb_mod.branch_and_bound(
        problem.objective, problem.all_constraints(), problem.box, cfg
    )
    row = bnb_mod.report_row(name, level, result)
    bounds = _bounds_json({"lower": result.lower_bound, "upper": result.upper_bound})
    if "exact_bounds" in bounds:
        row["exact_bounds"] = bounds["exact_bounds"]
    row["kind"] = "pop"
    row["known_optimum"] = problem.known_optimum
    row["time_total"] = time.perf_counter() - t0
    row["_ok"] = result.converged
    return row


def _bench_lyapunov(name: str, case, level: str, exact: bool) -> dict:
    cfg = lyap_mod.default_config()
    cfg.level = level
    cfg.exact = exact
    verdict = lyap_mod.verify_lyapunov(case, cfg)
    row = {
        "kind": "lyapunov",
        "label": name,
        "level": level,
        **_bounds_json({"v_bound": verdict.v_bound, "vdot_bound": verdict.vdot_bound}),
        "stable": verdict.stable,
        "expected": case.expected_verdict,
        "time_total": verdict.v_run.elapsed + verdict.vdot_run.elapsed,
        "_ok": not (verdict.v_run.exhausted or verdict.vdot_run.exhausted),
    }
    if case.note:
        row["note"] = case.note
    return row


def _print_report(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(problems.canonical_json(report))
        return
    mode = report["mode"]
    if mode == "relax":
        print(f"problem {report['problem']}  degree {tuple(report['degree'])}")
        for key in ("p0", "first", "p1", "p2"):
            if key in report["bounds"]:
                value = report["bounds"][key]
                exact_str = report.get("exact_bounds", {}).get(key)
                line = f"  {key:>5} = {bnb_mod.report_text(value, exact_str, '.10g')}"
                if exact_str is not None and value is not None:
                    line += f"  (= {exact_str})"
                print(line)
        if "p2_activated_rows" in report["bounds"]:
            print(
                f"  cut rows activated: {report['bounds']['p2_activated_rows']}"
                f" in {report['bounds']['p2_iterations']} iterations"
                f" ({report['bounds']['p2_pivots']} pivots)"
            )
        if "witness" in report:
            print(f"  witness: {report['witness']}")
    elif mode == "bnb":
        sec = report["bnb"]
        s = sec["stats"]
        row = {
            "label": report["problem"],
            "level": report["level"],
            "sub": s["subdivisions"],
            "time": report["timings"]["main"],
            "cutoff": s["cutoff_count"],
            "mono": s["mono_count"],
            "sub_edge": s["edge_subdivisions"],
            "cutoff_edge": s["edge_cutoffs"],
            "time_edge": report["timings"]["edge"],
            "opt": sec["upper"],
            "exact_bounds": sec.get("exact_bounds", {}),
        }
        print(bnb_mod.format_report([row]))
        lower, upper = (
            bnb_mod.report_text(sec[key], row["exact_bounds"].get(key), ".10g")
            for key in ("lower", "upper")
        )
        print(f"bounds: [{lower}, {upper}]  converged: {sec['converged']}")
        if sec["witness"] is not None:
            print(f"witness: {sec['witness']}")
    elif mode == "lyapunov":
        v = report["verdict"]
        mark = "verified" if v["stable"] else "NOT verified"
        print(f"case {report['problem']} (level {report['level']}): {mark}")
        exact_strs = v.get("exact_bounds", {})
        for label, key in (("p_V*   ", "v_bound"), ("p_Vdot*", "vdot_bound")):
            line = f"  {label} = {bnb_mod.report_text(v[key], exact_strs.get(key), '.6g')}"
            if key in exact_strs and v[key] is not None:
                line += f"  (= {exact_strs[key]})"
            print(line)
    else:  # bench
        pop_rows = [r for r in report["results"] if r["kind"] == "pop"]
        if pop_rows:
            print(bnb_mod.format_report(pop_rows))
        for r in report["results"]:
            if r["kind"] == "lyapunov":
                mark = "ok" if r["stable"] == (r["expected"] == "pass") else "DIFFERS"
                v_bound, vdot_bound = (
                    bnb_mod.report_text(r[key], r.get("exact_bounds", {}).get(key), ".6g")
                    for key in ("v_bound", "vdot_bound")
                )
                print(
                    f"{r['label']}: p_V*={v_bound} "
                    f"p_Vdot*={vdot_bound} "
                    f"{'verified' if r['stable'] else 'not verified'} "
                    f"(expected {r['expected']}; {mark})"
                )
                if "note" in r:
                    print(f"  note: {r['note']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernpop",
        description="Bernstein-basis LP relaxations and branch-and-bound "
        "for polynomial minimization over boxes.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(sp, with_input=True):
        sp.add_argument("--level", choices=["0", "first", "1", "2"], default="2")
        sp.add_argument("--output", choices=["text", "json"], default="text")
        sp.add_argument("--arith", choices=["float", "rational"], default="float")
        if with_input:
            sp.add_argument("input", help="problem JSON file")

    sp = sub.add_parser("relax", help="one-shot relaxation bounds")
    common(sp)
    sp.add_argument("--degree", help="degree override, e.g. 6,6 or a single value")

    sp = sub.add_parser("bnb", help="branch-and-bound minimization")
    common(sp)
    sp.add_argument("--degree", help="degree override for the relaxations")
    sp.add_argument("--eps", type=float, default=None, help="relative cutoff tolerance")
    sp.add_argument("--max-boxes", type=int, default=100_000)

    sp = sub.add_parser("lyapunov", help="verify a Lyapunov certificate file")
    common(sp)
    sp.set_defaults(level=LEVEL_FIRST)
    sp.add_argument("--max-boxes", type=int, default=50_000)

    sp = sub.add_parser("bench", help="run bundled benchmarks")
    common(sp, with_input=False)
    sp.set_defaults(level="1")
    sp.add_argument("names", nargs="*", help="benchmark names (default: all)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "relax": _run_relax,
        "bnb": _run_bnb,
        "lyapunov": _run_lyapunov,
        "bench": _run_bench,
    }
    try:
        code, report = runners[args.mode](args)
        _print_report(report, args.output)  # a non-finite value in JSON is a ValueError
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON input: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: cannot read input file: {err}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as err:  # e.g. an exact result beyond binary64
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
