"""Branch-and-bound global minimization over boxes.

Each box carries one representation: the Bernstein coefficient tensor of
the objective on it (and one per polynomial constraint).  Only the root
of a (sub)problem is converted from the monomial basis; children get their
tensors by a de Casteljau split of the parent along the bisected axis,
and edge subproblems by a face slice.  A popped box is bounded at the
configured relaxation level and then resolved by one of: infeasibility
(some constraint tensor is positive, or the box's LP has no feasible
point), exactness (vertex condition or placeholder recovery), the
incumbent cutoff test, the monotonicity test (which spawns a reduced
"edge" subproblem solved recursively), or bisection.

The worklist is best-first on the parent bound; statistics for the main
run and for the recursive edge subproblems are tracked separately.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .bernstein import BernsteinForm, min_coefficient, subdivide, to_bernstein, upper_bounds
from .poly import AffineMap, Box, Polynomial, restrict_facet, to_unit_box
from .relax import LEVEL_0, LEVEL_2, LEVELS, bound_at_level, build_cut_matrix

SPLIT_LONGEST = "longest_edge"
SPLIT_ZERO = "zero_centered"


@dataclass
class BnbConfig:
    level: str = LEVEL_0
    epsilon: float = 1e-6
    max_boxes: int = 100_000
    min_box_width: float = 1e-12
    split: str = SPLIT_LONGEST
    exact: bool = False

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_boxes < 1:
            raise ValueError("max_boxes must be at least 1")
        if self.split not in (SPLIT_LONGEST, SPLIT_ZERO):
            raise ValueError(f"unknown split strategy {self.split!r}")


@dataclass
class BnbStats:
    subdivisions: int = 0
    cutoff_count: int = 0
    mono_count: int = 0
    edge_subdivisions: int = 0
    edge_cutoffs: int = 0
    infeasible_count: int = 0
    lp_solves: int = 0
    lp_pivots: int = 0
    lp_fallbacks: int = 0
    elapsed: float = 0.0
    edge_elapsed: float = 0.0


@dataclass
class BnbResult:
    lower_bound: object
    upper_bound: object
    witness: Optional[tuple]
    stats: BnbStats
    converged: bool


def cutoff_test(lower: object, incumbent: object, epsilon) -> bool:
    """Prune a box whose bound cannot improve the incumbent by more than
    the relative tolerance: lower >= incumbent - eps * max(1, |incumbent|)."""
    if incumbent is None:
        return False
    if isinstance(incumbent, float) and math.isinf(incumbent):
        return False
    slack = epsilon * max(1, abs(incumbent))
    return lower >= incumbent - slack


def split_node(box: Box, tensors: tuple, strategy: str) -> tuple[tuple, tuple]:
    """Bisect the widest axis of ``box`` and split each of its coefficient
    tensors alongside; returns (left box, left tensors), (right box, right
    tensors).  The zero-centered strategy splits at the origin instead of
    the midpoint whenever it lies strictly inside that side."""
    axis = box.widest_axis()
    lo, hi = box.lower[axis], box.upper[axis]
    at = lo + (hi - lo) / 2
    exact = isinstance(at, Fraction)
    t = Fraction(1, 2) if exact else 0.5
    if strategy == SPLIT_ZERO and lo < 0 < hi:
        at = Fraction(0) if exact else 0.0
        t = (at - lo) / (hi - lo)
    left, right = box.split(axis, at)
    halves = [subdivide(x, axis, t) for x in tensors]
    return (left, tuple(h[0] for h in halves)), (right, tuple(h[1] for h in halves))


def box_tensor(p: Polynomial, box: Box, degree=None, exact: bool = False) -> np.ndarray:
    """Coefficient tensor of ``p`` on ``box``, converted from the monomial
    basis, in Fractions when ``exact`` and in float64 otherwise."""
    q, _ = to_unit_box(p, box)
    return to_bernstein(q, degree, exact).tensor


def _monotonicity_signs(tensor: np.ndarray) -> tuple[str, ...]:
    """Per-axis derivative sign read off the coefficient tensor.

    The forward differences b_{I+e_r} - b_I are, up to the positive factor
    delta_r / width_r, the Bernstein coefficients of dp/dx_r on the box, so
    all positive gives '+', all negative gives '-', anything else 'mixed'.
    An axis along which the tensor is constant gives '+': the objective
    does not depend on it, and fixing its lower bound is lossless.
    """
    signs = []
    for r in range(tensor.ndim):
        diff = np.diff(tensor, axis=r)
        if not diff.any() or (diff > 0).all():
            signs.append("+")
        elif (diff < 0).all():
            signs.append("-")
        else:
            signs.append("mixed")
    return tuple(signs)


def _face(tensor: np.ndarray, signs: Sequence[str]) -> np.ndarray:
    """Coefficient tensor of the face that ``edge_subproblem`` keeps: index
    0 on '+' axes, delta_r on '-' axes, the whole range on mixed ones."""
    return tensor[tuple({"+": 0, "-": -1}.get(s, slice(None)) for s in signs)]


def edge_subproblem(
    p: Polynomial, box: Box, signs: Sequence[str]
) -> tuple[Polynomial, Optional[Box], list[tuple[int, object]]]:
    """Fix every non-mixed axis at its active bound ('+' -> lower,
    '-' -> upper) and drop those variables.  Returns the reduced
    polynomial, the reduced box (None when no axis remains), and the
    (axis, value) substitutions performed, in original axis order."""
    fixed = []
    for axis, s in enumerate(signs):
        if s == "+":
            fixed.append((axis, box.lower[axis]))
        elif s == "-":
            fixed.append((axis, box.upper[axis]))
    if not fixed:
        raise ValueError("no monotone axis to substitute")
    reduced = p
    reduced_box = box
    for axis, value in reversed(fixed):
        reduced = restrict_facet(reduced, axis, value)
        reduced_box = reduced_box.drop_axis(axis) if reduced_box.dimension > 1 else None
    return reduced, reduced_box, fixed


def sample_upper_bound(box: Box, bf: BernsteinForm, mapping: AffineMap) -> list[tuple]:
    """Candidate points for the incumbent, in the order to offer them: the
    box center, then the grid point of the argmin Bernstein coefficient."""
    _, idx = min_coefficient(bf)
    exact = isinstance(box.lower[0], Fraction)
    grid = tuple((Fraction(i, d) if exact else i / d) if d else 0 for i, d in zip(idx, bf.degree))
    return [box.center(), mapping(grid)]


class _RunState:
    """Incumbent and node budget shared across the recursion."""

    def __init__(self, objective, constraints, max_boxes):
        self.objective = objective
        self.constraints = constraints
        self.max_boxes = max_boxes
        self.nodes = 0
        self.exhausted = False
        self.incumbent = None
        self.witness = None

    def charge(self) -> bool:
        if self.nodes >= self.max_boxes:
            self.exhausted = True
            return False
        self.nodes += 1
        return True

    def offer(self, point: tuple) -> None:
        """Take a candidate point as the incumbent if it satisfies every
        constraint and the top-level objective is strictly lower there."""
        if any(g.eval(point) > 0 for g in self.constraints):
            return
        val = self.objective.eval(point)
        if self.incumbent is None or val < self.incumbent:
            self.incumbent = val
            self.witness = tuple(point)


def branch_and_bound(
    p: Polynomial,
    constraints: Sequence[Polynomial],
    box: Box,
    cfg: BnbConfig,
    degree=None,
) -> BnbResult:
    """Globally minimize ``p`` over ``box`` subject to g_i(x) <= 0.

    The relaxation degree is ``degree`` (default: the objective's), raised
    where a constraint needs more.  A problem whose every box is pruned as
    infeasible ends with no bounds and ``converged`` false.
    """
    if box.dimension != p.dimension:
        raise ValueError("box dimension does not match objective")
    for g in constraints:
        if g.dimension != p.dimension:
            raise ValueError("constraint dimension does not match objective")
    if cfg.exact:  # floats convert exactly; splits and sample points take the box's field
        box = Box(tuple(map(Fraction, box.lower)), tuple(map(Fraction, box.upper)))
    stats = BnbStats()
    state = _RunState(p, tuple(constraints), cfg.max_boxes)
    start = time.perf_counter()
    if p.dimension == 0:
        lower = p.eval(())
        state.offer(())
    else:
        delta = tuple(degree) if degree is not None else p.degree
        for g in constraints:
            delta = tuple(max(a, b) for a, b in zip(delta, g.degree))
        tensors = tuple(box_tensor(f, box, delta, cfg.exact) for f in (p, *constraints))
        lower = _solve_problem(
            p, tuple(constraints), box, tensors, cfg, state, lift=lambda pt: pt,
            stats=stats, depth=0,
        )
    stats.elapsed = time.perf_counter() - start - stats.edge_elapsed
    upper = state.incumbent
    converged = (
        not state.exhausted
        and upper is not None
        and lower is not None
        and not (isinstance(lower, float) and math.isinf(lower))
        and upper - lower <= cfg.epsilon * max(1, abs(upper))
    )
    return BnbResult(
        lower_bound=lower,
        upper_bound=upper,
        witness=state.witness,
        stats=stats,
        converged=converged,
    )


def _solve_problem(p, constraints, box, tensors, cfg, state, lift, stats, depth):
    """Worklist loop for one (sub)problem; returns its lower bound.

    ``tensors`` holds the coefficient tensors of the objective and of each
    constraint on ``box``, all of one degree; every box in the worklist
    carries its own tuple of them.
    """
    delta = tuple(s - 1 for s in tensors[0].shape)
    exact = cfg.exact
    zero = Fraction(0) if exact else 0.0
    u = upper_bounds(delta, exact=exact) if cfg.level != LEVEL_0 else None
    cuts = build_cut_matrix(delta, exact) if cfg.level == LEVEL_2 else None

    counter = itertools.count()
    heap: list = [(-math.inf, next(counter), box, tensors)]
    contrib = None

    def add_contrib(value):
        nonlocal contrib
        if contrib is None or value < contrib:
            contrib = value

    while heap:
        if not state.charge():
            while heap:
                parent_bound = heapq.heappop(heap)[0]
                add_contrib(parent_bound)
            break
        _, _, cur, (t, *g_tensors) = heapq.heappop(heap)
        if depth == 0:
            stats.subdivisions += 1
        else:
            stats.edge_subdivisions += 1

        if any(g.min() > 0 for g in g_tensors):
            # some constraint is positive on the whole box: nothing feasible here
            stats.infeasible_count += 1
            continue
        amap = AffineMap.from_box(cur)
        bf = BernsteinForm(t)
        extra_rows = [(g.ravel().tolist(), zero) for g in g_tensors]
        outcome = bound_at_level(
            bf, cfg.level, u=u, cuts=cuts, extra_rows=extra_rows,
            mapping=amap, exact=exact,
        )
        stats.lp_solves += outcome.lp_solves
        stats.lp_pivots += outcome.pivots
        stats.lp_fallbacks += outcome.lp_fallbacks
        if outcome.infeasible:
            # the box's LP has no feasible point, confirmed in Fractions
            stats.infeasible_count += 1
            continue
        bound = outcome.bound

        for pt in sample_upper_bound(cur, bf, amap):
            state.offer(lift(pt))
        if outcome.exact and not constraints:
            state.offer(lift(outcome.witness))
            add_contrib(bound)
            continue
        if cutoff_test(bound, state.incumbent, cfg.epsilon):
            if depth == 0:
                stats.cutoff_count += 1
            else:
                stats.edge_cutoffs += 1
            add_contrib(bound)
            continue
        if not constraints:
            signs = _monotonicity_signs(t)
            if any(s != "mixed" for s in signs):
                stats.mono_count += 1
                reduced, reduced_box, fixed = edge_subproblem(p, cur, signs)
                sub_lift = _make_lift(lift, fixed)
                if reduced_box is None:
                    val = reduced.eval(())
                    state.offer(sub_lift(()))
                    add_contrib(val)
                else:
                    t0 = time.perf_counter()
                    sub_lower = _solve_problem(
                        reduced, (), reduced_box, (_face(t, signs),), cfg, state,
                        sub_lift, stats, depth + 1,
                    )
                    if depth == 0:  # nested recursion is inside this window
                        stats.edge_elapsed += time.perf_counter() - t0
                    add_contrib(sub_lower)
                continue
        if cur.width(cur.widest_axis()) <= cfg.min_box_width:
            add_contrib(bound)
            continue
        for child, child_tensors in split_node(cur, (t, *g_tensors), cfg.split):
            heapq.heappush(heap, (_key(bound), next(counter), child, child_tensors))

    return contrib


def _key(bound) -> float:
    return float(bound)


def _make_lift(outer: Callable, fixed: list) -> Callable:
    def lifted(pt: tuple) -> tuple:
        full = list(pt)
        for axis, value in fixed:  # fixed is in ascending axis order
            full.insert(axis, value)
        return outer(tuple(full))

    return lifted


# ---------------------------------------------------------------------------
# run report in the benchmark-table column layout


def report_row(label: str, level: str, result: BnbResult) -> dict:
    s = result.stats
    return {
        "label": label,
        "level": level,
        "sub": s.subdivisions,
        "time": round(s.elapsed, 3),
        "cutoff": s.cutoff_count,
        "mono": s.mono_count,
        "sub_edge": s.edge_subdivisions,
        "cutoff_edge": s.edge_cutoffs,
        "time_edge": round(s.edge_elapsed, 3),
        "opt": None if result.upper_bound is None else float(result.upper_bound),
        "lower": None if result.lower_bound is None else float(result.lower_bound),
        "converged": result.converged,
    }


def format_report(rows: Sequence[dict]) -> str:
    headers = ("ID", "Ineq", "Sub", "Time", "Cutoff", "Mono", "Sub*", "Cutoff*", "Time*", "Opt")
    table = [headers]
    for r in rows:
        table.append(
            (
                str(r["label"]), str(r["level"]), str(r["sub"]), f"{r['time']:.2f}",
                str(r["cutoff"]), str(r["mono"]), str(r["sub_edge"]),
                str(r["cutoff_edge"]), f"{r['time_edge']:.2f}",
                "-" if r["opt"] is None else f"{r['opt']:.6g}",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)
