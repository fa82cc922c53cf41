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
import json
import sys
import time
from fractions import Fraction

from . import bnb as bnb_mod
from . import lyapunov as lyap_mod
from . import problems
from .bernstein import to_bernstein, upper_bounds
from .poly import to_unit_box
from .relax import (
    LEVEL_0,
    LEVEL_1,
    LEVEL_2,
    LEVEL_FIRST,
    build_cut_matrix,
    first_lp_bound,
    relax0,
    relax1,
    relax1_lp,
    relax2_iterative,
    semialgebraic_rows,
)

_LEVEL_ORDER = {LEVEL_0: 0, LEVEL_FIRST: 1, LEVEL_1: 2, LEVEL_2: 3}


def _fraction_str(value) -> str:
    return str(Fraction(value)) if not isinstance(value, Fraction) else str(value)


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


def _witness_json(witness, exact: bool):
    if witness is None:
        return None
    if exact:
        return {
            "float": [float(v) for v in witness],
            "exact": [_fraction_str(v) for v in witness],
        }
    return [float(v) for v in witness]


def _run_relax(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    problem = problems.load_problem(_existing(args.input), exact)
    p = problem.objective
    constraints = problem.all_constraints()
    degree = p.degree
    if args.degree:
        degree = _parse_degree(args.degree, p.degree)
    for g in constraints:  # the relaxation degree must cover every constraint
        degree = tuple(max(a, b) for a, b in zip(degree, g.degree))
    q, amap = to_unit_box(p, problem.box)
    bf = to_bernstein(q, degree)
    g_units = [to_unit_box(g, problem.box)[0] for g in constraints]
    extra_rows = semialgebraic_rows(g_units, degree, exact)

    want = _LEVEL_ORDER[args.level]
    bounds: dict = {}
    exact_strs: dict = {}
    timings: dict = {}
    witness = None

    t0 = time.perf_counter()
    out0 = relax0(bf, amap)
    timings["p0"] = time.perf_counter() - t0
    bounds["p0"] = float(out0.bound)
    if exact:
        exact_strs["p0"] = _fraction_str(out0.bound)
    if out0.exact and not extra_rows:
        witness = out0.witness

    if want >= 1:
        u = upper_bounds(degree, exact=exact)
        t0 = time.perf_counter()
        bounds["first"] = float(first_lp_bound(bf, u))
        timings["first"] = time.perf_counter() - t0
    if want >= 2:
        t0 = time.perf_counter()
        out1 = (
            relax1_lp(bf, u, extra_rows, amap, exact)
            if extra_rows
            else relax1(bf, u, amap, exact)
        )
        timings["p1"] = time.perf_counter() - t0
        bounds["p1"] = float(out1.bound)
        if exact:
            exact_strs["p1"] = _fraction_str(out1.bound)
        if out1.exact:
            witness = witness or out1.witness
    if want >= 3:
        t0 = time.perf_counter()
        cuts = build_cut_matrix(degree, exact)
        out2 = relax2_iterative(bf, u, cuts, extra_rows, amap, exact)
        timings["p2"] = time.perf_counter() - t0
        bounds["p2"] = float(out2.bound)
        if exact:
            exact_strs["p2"] = _fraction_str(out2.bound)
        bounds["p2_activated_rows"] = len(out2.activated_rows)
        bounds["p2_iterations"] = out2.iterations
        if out2.exact:
            witness = witness or out2.witness

    report = {
        "mode": "relax",
        "problem": problem.name,
        "level": args.level,
        "degree": list(degree),
        "bounds": bounds,
        "timings": timings,
    }
    if exact_strs:
        report["exact_bounds"] = exact_strs
    if witness is not None:
        report["witness"] = _witness_json(witness, exact)
    return 0, report


def _bnb_config(args, problem=None) -> bnb_mod.BnbConfig:
    eps = args.eps
    if eps is None:
        eps = problem.epsilon if problem is not None and problem.epsilon else 1e-6
    return bnb_mod.BnbConfig(
        level=args.level,
        epsilon=eps,
        max_boxes=args.max_boxes,
        split=bnb_mod.SPLIT_ZERO if args.split == "zero" else bnb_mod.SPLIT_LONGEST,
        exact=args.arith == "rational",
    )


def _bnb_section(result, exact: bool) -> dict:
    s = result.stats
    return {
        "lower": None if result.lower_bound is None else float(result.lower_bound),
        "upper": None if result.upper_bound is None else float(result.upper_bound),
        "witness": _witness_json(result.witness, exact),
        "converged": result.converged,
        "stats": {
            "subdivisions": s.subdivisions,
            "cutoff_count": s.cutoff_count,
            "mono_count": s.mono_count,
            "edge_subdivisions": s.edge_subdivisions,
            "edge_cutoffs": s.edge_cutoffs,
            "infeasible_count": s.infeasible_count,
        },
    }


def _run_bnb(args) -> tuple[int, dict]:
    exact = args.arith == "rational"
    problem = problems.load_problem(_existing(args.input), exact)
    degree = None
    if args.degree:
        degree = _parse_degree(args.degree, problem.objective.degree)
    cfg = _bnb_config(args, problem)
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
            "v_bound": verdict.v_bound,
            "vdot_bound": verdict.vdot_bound,
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
    registry = lyap_mod.benchmark_registry()
    exact = args.arith == "rational"
    names = args.names or sorted(registry["pop"]) + sorted(registry["lyapunov"])
    tasks = []
    for name in names:
        if name in registry["pop"]:
            tasks.append(("pop", name))
        elif name in registry["lyapunov"]:
            tasks.append(("lyapunov", name))
        else:
            raise ValueError(f"unknown benchmark {name!r}")
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(
                pool.map(_bench_one, [(k, n, args.level, exact) for k, n in tasks])
            )
    else:
        results = [_bench_one((k, n, args.level, exact)) for k, n in tasks]
    ok = all(r.pop("_ok") for r in results)
    report = {"mode": "bench", "level": args.level, "results": results}
    return (0 if ok else 2), report


def _bench_one(task) -> dict:
    kind, name, level, exact = task
    registry = lyap_mod.benchmark_registry(exact)
    if kind == "pop":
        problem = registry["pop"][name]
        cfg = bnb_mod.BnbConfig(
            level=level, epsilon=problem.epsilon or 1e-6, max_boxes=200_000,
            exact=exact,
        )
        t0 = time.perf_counter()
        result = bnb_mod.branch_and_bound(
            problem.objective, problem.all_constraints(), problem.box, cfg
        )
        row = bnb_mod.report_row(name, level, result)
        row["kind"] = "pop"
        row["known_optimum"] = problem.known_optimum
        row["time_total"] = time.perf_counter() - t0
        row["_ok"] = result.converged
        return row
    case = registry["lyapunov"][name]
    cfg = lyap_mod.default_config()
    cfg.level = level
    cfg.exact = exact
    verdict = lyap_mod.verify_lyapunov(case, cfg)
    return {
        "kind": "lyapunov",
        "label": name,
        "level": level,
        "v_bound": verdict.v_bound,
        "vdot_bound": verdict.vdot_bound,
        "stable": verdict.stable,
        "expected": case.expected_verdict,
        "time_total": verdict.v_run.elapsed + verdict.vdot_run.elapsed,
        "_ok": not (verdict.v_run.exhausted or verdict.vdot_run.exhausted),
    }


def _print_report(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(problems.canonical_json(report))
        return
    mode = report["mode"]
    if mode == "relax":
        print(f"problem {report['problem']}  degree {tuple(report['degree'])}")
        for key in ("p0", "first", "p1", "p2"):
            if key in report["bounds"]:
                line = f"  {key:>5} = {report['bounds'][key]:.10g}"
                if "exact_bounds" in report and key in report["exact_bounds"]:
                    line += f"  (= {report['exact_bounds'][key]})"
                print(line)
        if "p2_activated_rows" in report["bounds"]:
            print(
                f"  cut rows activated: {report['bounds']['p2_activated_rows']}"
                f" in {report['bounds']['p2_iterations']} iterations"
            )
        if "witness" in report:
            print(f"  exactness witness: {report['witness']}")
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
        }
        print(bnb_mod.format_report([row]))
        lower, upper = (
            "-" if v is None else f"{v:.10g}" for v in (sec["lower"], sec["upper"])
        )
        print(f"bounds: [{lower}, {upper}]  converged: {sec['converged']}")
        if sec["witness"] is not None:
            print(f"witness: {sec['witness']}")
    elif mode == "lyapunov":
        v = report["verdict"]
        mark = "verified" if v["stable"] else "NOT verified"
        print(f"case {report['problem']} (level {report['level']}): {mark}")
        print(f"  p_V*    = {v['v_bound']:.6g}")
        print(f"  p_Vdot* = {v['vdot_bound']:.6g}")
    else:  # bench
        pop_rows = [r for r in report["results"] if r["kind"] == "pop"]
        if pop_rows:
            print(bnb_mod.format_report(pop_rows))
        for r in report["results"]:
            if r["kind"] == "lyapunov":
                mark = "ok" if r["stable"] == (r["expected"] == "pass") else "DIFFERS"
                print(
                    f"{r['label']}: p_V*={r['v_bound']:.6g} "
                    f"p_Vdot*={r['vdot_bound']:.6g} "
                    f"{'verified' if r['stable'] else 'not verified'} "
                    f"(expected {r['expected']}; {mark})"
                )


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
    sp.add_argument("--split", choices=["longest", "zero"], default="longest")

    sp = sub.add_parser("lyapunov", help="verify a Lyapunov certificate file")
    common(sp)
    sp.set_defaults(level=LEVEL_FIRST)
    sp.add_argument("--max-boxes", type=int, default=50_000)

    sp = sub.add_parser("bench", help="run bundled benchmarks")
    common(sp, with_input=False)
    sp.set_defaults(level="1")
    sp.add_argument("--jobs", type=int, default=1)
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
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON input: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: cannot read input file: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_report(report, args.output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
