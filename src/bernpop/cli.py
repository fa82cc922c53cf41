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


def _fraction_str(value) -> str:
    return str(Fraction(value))


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


def _bound_json(bound):
    """A bound as a float; None (an infeasible LP) stays None."""
    return None if bound is None else float(bound)


def _verdict_bounds(verdict) -> dict:
    """The two certificate bounds as floats, plus their exact strings when
    they are Fractions (exact mode)."""
    named = {"v_bound": verdict.v_bound, "vdot_bound": verdict.vdot_bound}
    out = {k: float(v) for k, v in named.items()}
    exact_strs = {k: _fraction_str(v) for k, v in named.items() if isinstance(v, Fraction)}
    if exact_strs:
        out["exact_bounds"] = exact_strs
    return out


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
    degree = _parse_degree(args.degree, p.degree) if args.degree else None
    t, *g_tensors = bnb_mod.relaxation_tensors(p, problem.all_constraints(), problem.box, degree, exact)
    bf = BernsteinForm(t)
    extra_rows = constraint_rows(g_tensors)
    u = upper_bounds(bf.degree, exact=exact)

    bounds: dict = {}
    exact_strs: dict = {}
    timings: dict = {}
    point = None
    levels = list(_LEVEL_KEYS)
    for level in levels[: levels.index(args.level) + 1]:
        key = _LEVEL_KEYS[level]
        t0 = time.perf_counter()
        out = bound_at_level(bf, level, u=u, extra_rows=extra_rows)
        timings[key] = time.perf_counter() - t0
        bounds[key] = _bound_json(out.bound)
        if exact and out.bound is not None:
            exact_strs[key] = _fraction_str(out.bound)
        if point is None and not g_tensors:
            point = witness(bf, out)
        if level == LEVEL_2:
            bounds["p2_activated_rows"] = len(out.activated_rows)
            bounds["p2_iterations"] = out.iterations
            bounds["p2_pivots"] = out.pivots

    report = {
        "mode": "relax",
        "problem": problem.name,
        "level": args.level,
        "degree": list(bf.degree),
        "bounds": bounds,
        "timings": timings,
    }
    if exact_strs:
        report["exact_bounds"] = exact_strs
    if point is not None:
        report["witness"] = _witness_json(problem.box.point(point), exact)
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
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed"], stats["edge_elapsed"]  # the timings section reports them
    return {
        "lower": _bound_json(result.lower_bound),
        "upper": _bound_json(result.upper_bound),
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
            **_verdict_bounds(verdict),
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
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    # a fork-started pool starts all its workers at once: no more than cases
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    row = {
        "kind": "lyapunov",
        "label": name,
        "level": level,
        **_verdict_bounds(verdict),
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
                line = f"  {key:>5} = {'-' if value is None else format(value, '.10g')}"
                if "exact_bounds" in report and key in report["exact_bounds"]:
                    line += f"  (= {report['exact_bounds'][key]})"
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
        exact_strs = v.get("exact_bounds", {})
        for label, key in (("p_V*   ", "v_bound"), ("p_Vdot*", "vdot_bound")):
            line = f"  {label} = {v[key]:.6g}"
            if key in exact_strs:
                line += f"  (= {exact_strs[key]})"
            print(line)
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
        _print_report(report, args.output)  # a non-finite value in JSON is a ValueError
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON input: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: cannot read input file: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
