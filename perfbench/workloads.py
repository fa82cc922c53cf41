"""The four workloads: what each one solves, and the operations it times.

``setup(name)`` does what a user pays before the first solve (imports,
fixture parsing through ``bernpop.problems``, building the problem
objects) and returns the operations.  Each operation calls bernpop's
public functions through their module attribute, so a traced round sees
them, and returns a plain record for ``checks.py`` plus bernpop's own
counters.
"""

from __future__ import annotations

import bernpop.bernstein
import bernpop.bnb
import bernpop.lyapunov
import bernpop.poly
import bernpop.problems
import bernpop.relax

MAX_BOXES = 300_000
CHAIN_LEVELS = ("0", "first", "1", "2")
LYAPUNOV_CASES = tuple(f"lyap{k}" for k in range(1, 10))

# (kind, fixture, level, epsilon or None for the fixture's, exact)
WORKLOADS = {
    # per-box unit-box mapping and Bernstein conversion, no LP; himmelblau
    # is the only bundled problem that reaches the edge subproblems
    "bnb-l0": [
        ("bnb", "motzkin3", "0", None, False),
        ("bnb", "himmelblau", "0", None, False),
    ],
    # cut loop and float simplex; algebraic4 is one node of cut-matrix building
    "bnb-l2": [
        ("bnb", "motzkin3", "2", 1e-3, False),
        ("bnb", "himmelblau", "2", None, False),
        ("bnb", "algebraic4", "2", None, False),
    ],
    # the depth-first certification engine at the lyapunov-mode and bench defaults
    "lyapunov": [
        ("lyapunov", name, level, None, False)
        for level in ("first", "1")
        for name in LYAPUNOV_CASES
    ],
    # Fraction arithmetic: exact simplex, exact conversion, exact B&B
    "exact": [
        ("chain", "himmelblau", (4, 4), None, True),
        ("chain", "himmelblau", (5, 5), None, True),
        ("lyapunov", "lyap7", "first", None, True),
        ("bnb", "himmelblau", "0", None, True),
    ],
}


def _bnb_op(fixture, level, epsilon, exact):
    problem = bernpop.problems.load_problem(bernpop.problems.load_fixture(fixture), exact)
    eps = epsilon if epsilon is not None else problem.epsilon
    cfg = bernpop.bnb.BnbConfig(level=level, epsilon=eps, max_boxes=MAX_BOXES, exact=exact)

    def run():
        res = bernpop.bnb.branch_and_bound(problem.objective, problem.constraints_poly, problem.box, cfg)
        s = res.stats
        return {
            "lower": res.lower_bound,
            "upper": res.upper_bound,
            "witness": res.witness,
            "converged": res.converged,
            "epsilon": eps,
            "counters": {
                "bnb.nodes": s.subdivisions,
                "bnb.edge_nodes": s.edge_subdivisions,
                "bnb.cutoff_closures": s.cutoff_count + s.edge_cutoffs,
                "bnb.monotone_closures": s.mono_count,
            },
        }

    return run


def _lyapunov_op(fixture, level, exact):
    case = bernpop.lyapunov.load_lyapunov_case(bernpop.problems.load_fixture(fixture), exact)
    cfg = bernpop.lyapunov.default_config()
    cfg.level = level
    cfg.exact = exact

    def run():
        v = bernpop.lyapunov.verify_lyapunov(case, cfg)
        runs = (v.v_run, v.vdot_run)
        return {
            "v_bound": v.v_bound,
            "vdot_bound": v.vdot_bound,
            "stable": v.stable,
            "exhausted": any(r.exhausted for r in runs),
            "counters": {
                "lyapunov.boxes": sum(r.nodes for r in runs),
                "lyapunov.verified_boxes": sum(r.verified_boxes for r in runs),
                "lyapunov.stalled_boxes": sum(r.stalled_boxes for r in runs),
            },
        }

    return run


def _chain_op(fixture, degree, exact):
    problem = bernpop.problems.load_problem(bernpop.problems.load_fixture(fixture), exact)

    def run():
        q, _ = bernpop.poly.to_unit_box(problem.objective, problem.box)
        bf = bernpop.bernstein.to_bernstein(q, degree)
        u = bernpop.bernstein.upper_bounds(degree, exact=exact)
        cuts = bernpop.relax.build_cut_matrix(degree, exact)
        outs = [
            bernpop.relax.bound_at_level(bf, level, u=u, cuts=cuts, exact=exact)
            for level in CHAIN_LEVELS
        ]
        record = dict(zip(("p0", "first", "p1", "p2"), (o.bound for o in outs)))
        record["degree"] = degree
        record["rows"] = cuts.row_count
        record["counters"] = {
            "relax.chains": 1,
            "relax.chain_cut_rounds": outs[-1].iterations,
            "relax.chain_rows_activated": len(outs[-1].activated_rows),
        }
        return record

    return run


def setup(name: str) -> list:
    """Build the workload's problems; returns (label, kind, fixture, run) tuples."""
    ops = []
    for kind, fixture, level, epsilon, exact in WORKLOADS[name]:
        arith = "exact" if exact else "float"
        if kind == "bnb":
            run = _bnb_op(fixture, level, epsilon, exact)
        elif kind == "lyapunov":
            run = _lyapunov_op(fixture, level, exact)
        else:
            run = _chain_op(fixture, level, exact)
        tag = "x".join(map(str, level)) if kind == "chain" else f"L{level}"
        ops.append((f"{kind}:{fixture}:{tag}:{arith}", kind, fixture, run))
    return ops


def float_level2(fixture: str, degree) -> float:
    """Float level-2 bound of a fixture at a degree, the twin of an exact chain."""
    problem = bernpop.problems.load_problem(bernpop.problems.load_fixture(fixture))
    q, _ = bernpop.poly.to_unit_box(problem.objective, problem.box)
    bf = bernpop.bernstein.to_bernstein(q, degree)
    return float(bernpop.relax.bound_at_level(bf, "2").bound)
