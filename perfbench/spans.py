"""Span recording around the calls one bernpop module makes into another.

Each wrapped call records (name, parent, start, end) in memory; a span's
self time is its duration minus that of its child spans.  The counters
bernpop already returns (``LPSolution.iterations``,
``RelaxationOutcome.iterations`` and ``activated_rows``) are read from
the wrapped return values.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import bernpop.bnb
import bernpop.bernstein
import bernpop.lyapunov
import bernpop.poly
import bernpop.relax
import bernpop.simplex

# (namespace, attribute, span name): each binding a caller looks up at call
# time, so both the defining module and the importing modules are patched
TARGETS = (
    (bernpop.poly, "to_unit_box", "poly.to_unit_box"),
    (bernpop.bnb, "to_unit_box", "poly.to_unit_box"),
    (bernpop.lyapunov, "to_unit_box", "poly.to_unit_box"),
    (bernpop.bnb, "restrict_facet", "poly.restrict_facet"),
    (bernpop.bernstein, "to_bernstein", "bernstein.to_bernstein"),
    (bernpop.bnb, "to_bernstein", "bernstein.to_bernstein"),
    (bernpop.lyapunov, "to_bernstein", "bernstein.to_bernstein"),
    (bernpop.relax, "bound_at_level", "relax.bound_at_level"),
    (bernpop.bnb, "bound_at_level", "relax.bound_at_level"),
    (bernpop.lyapunov, "bound_at_level", "relax.bound_at_level"),
    (bernpop.relax, "build_cut_matrix", "relax.build_cut_matrix"),
    (bernpop.bnb, "build_cut_matrix", "relax.build_cut_matrix"),
    (bernpop.relax.CutMatrix, "scan_violations", "relax.scan_violations"),
    (bernpop.simplex, "solve", "simplex.solve"),
    (bernpop.bnb, "branch_and_bound", "bnb.branch_and_bound"),
    (bernpop.bnb, "_solve_problem", "bnb.worklist"),
    (bernpop.bnb, "_monotonicity_signs", "bnb.monotonicity"),
    (bernpop.bnb, "sample_upper_bound", "bnb.sample_upper_bound"),
    (bernpop.lyapunov, "verify_lyapunov", "lyapunov.verify_lyapunov"),
    (bernpop.lyapunov, "certify_nonnegative", "lyapunov.certify_nonnegative"),
)

# self-time buckets that partition a traced round: every span name falls
# in exactly one, and what no span covers is the unattributed remainder
SELF_BUCKETS = {
    "poly.to_unit_box.s": ("poly.to_unit_box",),
    "poly.restrict_facet.s": ("poly.restrict_facet",),
    "bernstein.to_bernstein.s": ("bernstein.to_bernstein",),
    "relax.bound_at_level.s": ("relax.bound_at_level",),
    "relax.build_cut_matrix.s": ("relax.build_cut_matrix",),
    "relax.scan_violations.s": ("relax.scan_violations",),
    "simplex.solve.s": ("simplex.solve",),
    "bnb.self.s": ("bnb.branch_and_bound", "bnb.worklist", "bnb.monotonicity", "bnb.sample_upper_bound"),
    "lyapunov.self.s": ("lyapunov.verify_lyapunov", "lyapunov.certify_nonnegative"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end, child time, own index]
        self._stack: list = []
        self.counts: dict = defaultdict(int)
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1][5] if stack else -1, clock(), 0.0, 0.0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][4] += end - rec[2]
            if name == "simplex.solve":
                counts["simplex.pivots"] += result.iterations
            elif name == "relax.bound_at_level" and result.iterations:
                counts["relax.cut_rounds"] += result.iterations
                counts["relax.rows_activated"] += len(result.activated_rows)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Calls, self time and inclusive time per span name."""
        out: dict = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0})
        for name, _, start, end, child, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child
        return out


def dump(tracers, path) -> None:
    """Write the spans of each traced round; parents index into the same round."""
    rounds = [[[name, parent, start, end] for name, parent, start, end, _, _ in t.spans] for t in tracers]
    path.write_text(json.dumps({"fields": ["name", "parent", "start", "end"], "rounds": rounds}))
