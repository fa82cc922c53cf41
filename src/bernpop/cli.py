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
from typing import Sequence

from . import bnb as bnb_mod
from . import lyapunov as lyap_mod
from . import problems
from .bernstein import upper_bounds
from .relax import LEVEL_0, LEVEL_1, LEVEL_2, LEVEL_FIRST, bound_at_level, constraint_rows, witness

# the level chain in order of strength, with each level's report key
_LEVEL_KEYS = {LEVEL_0: "p0", LEVEL_FIRST: "first", LEVEL_1: "p1", LEVEL_2: "p2"}


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


# ---------------------------------------------------------------------------
# reported values and the benchmark-table row


def float_or_none(value):
    """``float(value)`` for a reported value; None for None, and for an
    exact value beyond binary64, whose exact string is reported instead."""
    try:
        return None if value is None else float(value)
    except OverflowError:
        return None


def report_text(value, exact_str: str | None, spec: str) -> str:
    """A reported float as text: the exact string where the float is
    None but the exact value is known, '-' where neither is."""
    if value is None:
        return exact_str or "-"
    return format(value, spec)


def _bounds_json(named: dict) -> dict:
    """Named bounds as floats (None, an infeasible LP, stays None, and so
    does a Fraction beyond binary64) and, under "exact_bounds", the exact
    strings of those that are Fractions (exact mode)."""
    out = {k: float_or_none(v) for k, v in named.items()}
    exact_strs = {k: str(v) for k, v in named.items() if isinstance(v, Fraction)}
    if exact_strs:
        out["exact_bounds"] = exact_strs
    return out


def _bound_texts(bounds: dict, keys, spec: str) -> list[str]:
    """``report_text`` of each key of ``_bounds_json`` output."""
    exact_strs = bounds.get("exact_bounds", {})
    return [report_text(bounds[key], exact_strs.get(key), spec) for key in keys]


def _bound_lines(bounds: dict, labels: dict, spec: str) -> list[str]:
    """A text line per labelled key of ``_bounds_json`` output, with the
    exact string beside a float that has one."""
    exact_strs = bounds.get("exact_bounds", {})
    lines = []
    for (key, label), text in zip(labels.items(), _bound_texts(bounds, labels, spec)):
        exact_str = exact_strs.get(key) if bounds[key] is not None else None
        lines.append(f"  {label} = {text}" + (f"  (= {exact_str})" if exact_str else ""))
    return lines


def report_row(label: str, level: str, result: bnb_mod.BnbResult) -> dict:
    s = result.stats
    bounds = _bounds_json({"lower": result.lower_bound, "upper": result.upper_bound})
    return {
        "label": label,
        "level": level,
        "sub": s.subdivisions,
        "time": round(s.elapsed, 3),
        "cutoff": s.cutoff_count,
        "mono": s.mono_count,
        "sub_edge": s.edge_subdivisions,
        "cutoff_edge": s.edge_cutoffs,
        "opt": bounds.pop("upper"),
        **bounds,  # "lower", and "exact_bounds" in exact mode
        "converged": result.converged,
    }


def format_report(rows: Sequence[dict]) -> str:
    headers = ("ID", "Ineq", "Sub", "Time", "Cutoff", "Mono", "Sub*", "Cutoff*", "Opt")
    table = [headers]
    for r in rows:
        table.append(
            (
                str(r["label"]), str(r["level"]), str(r["sub"]), f"{r['time']:.2f}",
                str(r["cutoff"]), str(r["mono"]), str(r["sub_edge"]), str(r["cutoff_edge"]),
                report_text(r["opt"], r.get("exact_bounds", {}).get("upper"), ".6g"),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def _witness_json(witness, exact: bool):
    if witness is None:
        return None
    if exact:
        return {
            "float": [float_or_none(v) for v in witness],
            "exact": [str(Fraction(v)) for v in witness],
        }
    return [float(v) for v in witness]


# ---------------------------------------------------------------------------
# modes: each returns its exit code, its JSON report and its text lines


def _solve_pop(problem, level: str, exact: bool, max_boxes: int, eps=None, degree=None):
    """Branch-and-bound on ``problem``, with the tolerance ``eps``, else the
    file's "epsilon", else 1e-6: the result and its wall time."""
    if eps is None:
        eps = 1e-6 if problem.epsilon is None else problem.epsilon
    cfg = bnb_mod.BnbConfig(level=level, epsilon=eps, max_boxes=max_boxes, exact=exact)
    t0 = time.perf_counter()
    result = bnb_mod.branch_and_bound(
        problem.objective, problem.constraints_poly, problem.box, cfg, degree=degree
    )
    return result, time.perf_counter() - t0


def _verify(case, level: str, exact: bool, max_boxes: int):
    """The case's verdict, its bounds as ``_bounds_json`` reports them, and
    whether both certification runs ended within ``max_boxes``."""
    cfg = bnb_mod.BnbConfig(level=level, max_boxes=max_boxes, exact=exact)
    verdict = lyap_mod.verify_lyapunov(case, cfg)
    bounds = _bounds_json({"v_bound": verdict.v_bound, "vdot_bound": verdict.vdot_bound})
    return verdict, bounds, not (verdict.v_run.exhausted or verdict.vdot_run.exhausted)


def _run_relax(args, exact: bool) -> tuple[int, dict, list[str]]:
    problem = problems.load_problem(args.input, exact)
    p = problem.objective
    degree = _parse_degree(args.degree, p.degree) if args.degree else None
    bf, *g_forms = bnb_mod.relaxation_tensors(p, problem.constraints_poly, problem.box, degree, exact)
    extra_rows = constraint_rows(g_forms)
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
        if point is None and not g_forms:
            point = witness(bf, out)
    bounds = _bounds_json(named)
    lines = [
        f"problem {problem.name}  degree {bf.degree}",
        *_bound_lines(bounds, {key: f"{key:>5}" for key in named}, ".10g"),
    ]
    report = {
        "mode": "relax", "problem": problem.name, "level": args.level,
        "degree": list(bf.degree), "bounds": bounds, "timings": timings,
    }
    if "exact_bounds" in bounds:
        report["exact_bounds"] = bounds.pop("exact_bounds")
    if args.level == LEVEL_2:
        rows, iterations, pivots = len(out.activated_rows), out.iterations, out.pivots
        bounds.update(p2_activated_rows=rows, p2_iterations=iterations, p2_pivots=pivots)
        lines.append(f"  cut rows activated: {rows} in {iterations} iterations ({pivots} pivots)")
    if point is not None:
        report["witness"] = _witness_json(problem.box.point(point), exact)
        lines.append(f"  witness: {report['witness']}")
    return 0, report, lines


def _run_bnb(args, exact: bool) -> tuple[int, dict, list[str]]:
    problem = problems.load_problem(args.input, exact)
    degree = _parse_degree(args.degree, problem.objective.degree) if args.degree else None
    result, elapsed = _solve_pop(problem, args.level, exact, args.max_boxes, args.eps, degree)
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed"]  # the timings section reports it
    section = {
        **_bounds_json({"lower": result.lower_bound, "upper": result.upper_bound}),
        "witness": _witness_json(result.witness, exact),
        "converged": result.converged,
        "stats": stats,
    }
    report = {
        "mode": "bnb", "problem": problem.name, "level": args.level, "bnb": section,
        "timings": {"total": elapsed, "main": result.stats.elapsed},
    }
    lower, upper = _bound_texts(section, ("lower", "upper"), ".10g")
    lines = [
        format_report([report_row(problem.name, args.level, result)]),
        f"bounds: [{lower}, {upper}]  converged: {result.converged}",
    ]
    if result.witness is not None:
        lines.append(f"witness: {section['witness']}")
    return (0 if result.converged else 2), report, lines


def _run_lyapunov(args, exact: bool) -> tuple[int, dict, list[str]]:
    case = lyap_mod.load_lyapunov_case(args.input, exact)
    verdict, bounds, reached = _verify(case, args.level, exact, args.max_boxes)
    v_run, vdot_run = verdict.v_run, verdict.vdot_run
    report = {
        "mode": "lyapunov",
        "problem": case.name,
        "level": args.level,
        "verdict": {**bounds, "stable": verdict.stable, "nodes": [v_run.nodes, vdot_run.nodes]},
        "timings": {"v": v_run.elapsed, "vdot": vdot_run.elapsed},
    }
    mark = "verified" if verdict.stable else "NOT verified"
    lines = [
        f"case {case.name} (level {args.level}): {mark}",
        *_bound_lines(bounds, {"v_bound": "p_V*   ", "vdot_bound": "p_Vdot*"}, ".6g"),
    ]
    return (0 if reached else 2), report, lines


def _run_bench(args, exact: bool) -> tuple[int, dict, list[str]]:
    registry = lyap_mod.benchmark_registry(exact)
    pops, cases = registry["pop"], registry["lyapunov"]
    names = args.names or sorted(pops) + sorted(cases)
    for name in names:
        if name not in pops and name not in cases:
            raise ValueError(f"unknown benchmark {name!r}")
    results, lyap_lines, ok = [], [], True
    for name in names:
        if name in pops:
            result, elapsed = _solve_pop(pops[name], args.level, exact, 200_000)
            row = report_row(name, args.level, result)
            row.update(kind="pop", known_optimum=pops[name].known_optimum, time_total=elapsed)
            results.append(row)
            ok = ok and result.converged
            continue
        case = cases[name]
        verdict, bounds, reached = _verify(case, args.level, exact, 50_000)
        row = {
            "kind": "lyapunov",
            "label": name,
            "level": args.level,
            **bounds,
            "stable": verdict.stable,
            "expected": case.expected_verdict,
            "time_total": verdict.v_run.elapsed + verdict.vdot_run.elapsed,
        }
        ok = ok and reached
        v_text, vdot_text = _bound_texts(bounds, ("v_bound", "vdot_bound"), ".6g")
        mark = "ok" if verdict.stable == (case.expected_verdict == "pass") else "DIFFERS"
        lyap_lines.append(
            f"{name}: p_V*={v_text} p_Vdot*={vdot_text} "
            f"{'verified' if verdict.stable else 'not verified'} "
            f"(expected {case.expected_verdict}; {mark})"
        )
        if case.note:
            row["note"] = case.note
            lyap_lines.append(f"  note: {case.note}")
        results.append(row)
    pop_rows = [r for r in results if r["kind"] == "pop"]
    lines = ([format_report(pop_rows)] if pop_rows else []) + lyap_lines
    return (0 if ok else 2), {"mode": "bench", "level": args.level, "results": results}, lines


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
    runners = {"relax": _run_relax, "bnb": _run_bnb, "lyapunov": _run_lyapunov, "bench": _run_bench}
    try:
        code, report, lines = runners[args.mode](args, args.arith == "rational")
        # a non-finite value in JSON is a ValueError
        text = problems.canonical_json(report) if args.output == "json" else "\n".join(lines) + "\n"
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON input: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a missing path, a directory, no permission
        print(f"error: cannot read input file: {err.filename}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as err:  # e.g. an exact result beyond binary64
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
