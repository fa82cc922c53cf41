"""Branch-and-bound global minimization over boxes.

A (sub)problem is its box and, per box, one representation: the Bernstein
coefficient tensor of the objective on it (and one per polynomial
constraint).  Only the root is converted from the monomial basis
(``relaxation_tensors``); children get their tensors by a de Casteljau
split of the parent along the bisected axis, and edge subproblems by a
face slice.  A popped box first offers its sample points to the
incumbent (its centre and its smallest coefficient's grid point), and is
then bounded at the configured relaxation level only as far as the
incumbent cutoff needs: the bound stops at its first value that reaches
the cutoff (see ``relax.bound_at_level``'s ``stop_at``).  A bound that
ran to the end with an LP solution z also offers z's nominal point.  The
box is then resolved by one of: infeasibility (some constraint tensor is
positive, or the box's LP has no feasible point), the incumbent cutoff
test (which closes every box whose bound one of the offered points
attains, since the incumbent is then at most that bound), the
monotonicity test (which spawns a reduced "edge" subproblem solved
recursively), or bisection.

The worklist is best-first on the parent bound; each entry carries that
bound in the run's field, so an exhausted budget reports a valid lower
bound.  Statistics for the main run and for the recursive edge
subproblems are tracked separately.
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

from .bernstein import (
    FLOAT, BernsteinForm, Field, axis_view, field, field_of, integer_image, subdivide,
    to_bernstein, upper_bounds,
)
from .poly import Box, Polynomial, to_unit_box
from .poly import restrict_facet  # noqa: F401  (unused; perfbench/spans.py traces this binding)
from .relax import (
    LEVEL_0, LEVEL_2, LEVELS, bound_at_level, build_cut_matrix, constraint_rows, grid_point,
    nominal_point,
)

SPLIT_LONGEST = "longest_edge"
SPLIT_ZERO = "zero_centered"

# a box whose widest side is no wider closes with its bound, unsplit
MIN_BOX_WIDTH = 1e-12


@dataclass
class BnbConfig:
    level: str = LEVEL_0
    epsilon: float = 1e-6
    max_boxes: int = 100_000
    exact: bool = False

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_boxes < 1:
            raise ValueError("max_boxes must be at least 1")


@dataclass
class BnbStats:
    subdivisions: int = 0
    cutoff_count: int = 0
    mono_count: int = 0
    edge_subdivisions: int = 0
    edge_cutoffs: int = 0
    infeasible_count: int = 0
    min_width_count: int = 0  # closed at the minimum box width (at either depth)
    budget_count: int = 0  # left in a worklist when the node budget ran out (at either depth)
    lp_solves: int = 0
    lp_pivots: int = 0
    lp_fallbacks: int = 0
    early_stops: int = 0  # bounds stopped once they reached the cutoff
    cut_rounds: int = 0  # cut-loop rounds (RelaxationOutcome.iterations)
    rows_activated: int = 0  # cut rows the rounds appended
    elapsed: float = 0.0
    edge_elapsed: float = 0.0


@dataclass
class BnbResult:
    lower_bound: object
    upper_bound: object
    witness: Optional[tuple]
    stats: BnbStats
    converged: bool


def cutoff_threshold(incumbent: object, epsilon):
    """The bound at which a box can no longer improve the incumbent by more
    than the relative tolerance, incumbent - eps * max(1, |incumbent|), in
    the field of the incumbent and ``epsilon``; None while there is no
    finite incumbent."""
    if incumbent is None:
        return None
    if isinstance(incumbent, float) and math.isinf(incumbent):
        return None
    return incumbent - epsilon * max(1, abs(incumbent))


def cutoff_test(lower: object, incumbent: object, epsilon) -> bool:
    """Prune a box whose bound cannot improve the incumbent by more than
    the relative tolerance: lower >= incumbent - eps * max(1, |incumbent|)."""
    threshold = cutoff_threshold(incumbent, epsilon)
    return threshold is not None and lower >= threshold


def split_node(box: Box, tensors: tuple, strategy: str) -> tuple[tuple, tuple]:
    """Bisect the widest axis of ``box`` and split each of its coefficient
    tensors alongside; returns (left box, left tensors), (right box, right
    tensors).  The zero-centered strategy splits at the origin instead of
    the midpoint whenever it lies strictly inside that side.  The box's
    coordinates are in the tensors' field (float with no tensors)."""
    F = field_of(tensors[0]) if tensors else FLOAT
    axis = box.widest_axis()
    lo, hi = box.lower[axis], box.upper[axis]
    at, t = lo + (hi - lo) / 2, F.half
    if strategy == SPLIT_ZERO and lo < 0 < hi:
        at = F.zero
        t = (at - lo) / (hi - lo)
    left, right = box.split(axis, at)
    halves = [subdivide(x, axis, t) for x in tensors]
    return (left, tuple(h[0] for h in halves)), (right, tuple(h[1] for h in halves))


def relaxation_tensors(p: Polynomial, constraints: Sequence, box: Box, degree=None, exact=False):
    """The coefficient tensors of ``p`` and of each constraint on ``box``
    (Fractions when ``exact``), at the relaxation degree: ``degree``
    (default: the objective's), raised where a constraint needs more.  A
    float tensor must be finite: where binary64 overflows on the box, this
    is a ValueError that points to exact arithmetic."""
    delta = tuple(degree) if degree is not None else p.degree
    for g in constraints:
        delta = tuple(max(a, b) for a, b in zip(delta, g.degree))
    F = field(exact)
    with np.errstate(over="ignore", invalid="ignore"):  # the tensors are checked below
        try:
            units = (to_unit_box(f, box)[0] for f in (p, *constraints))
            tensors = tuple(to_bernstein(q, delta, F.exact).tensor for q in units)
        except OverflowError:  # a float power or conversion beyond binary64
            tensors = None
    if tensors is None or not all(map(F.finite, tensors)):
        raise ValueError("the coefficients on the box overflow binary64; run with --arith rational")
    return tensors


def _monotonicity_signs(bf: BernsteinForm) -> tuple[str, ...]:
    """Per-axis derivative sign read off the coefficient tensor.

    The forward differences b_{I+e_r} - b_I are, up to the positive factor
    delta_r / width_r, the Bernstein coefficients of dp/dx_r on the box, so
    all positive gives '+', all negative gives '-', anything else 'mixed'.
    An axis along which the tensor is constant gives '+': the objective
    does not depend on it, and fixing its lower bound is lossless.

    The differences run on the form's image (an exact tensor's signs are
    its numerators'), and only on axes that pass a screen by the first
    smallest and first largest coefficients: a '+' axis has them at
    indices 0 and delta_r, a '-' axis at delta_r and 0, and a constant
    one both at 0.  Any other axis is 'mixed' without a difference.
    """
    values = bf.image[0]
    low = bf.minimum[1]
    high = np.unravel_index(int(values.argmax()), values.shape)
    signs = []
    for r, d in enumerate(bf.degree):
        if (low[r], high[r]) not in ((0, 0), (0, d), (d, 0)):
            signs.append("mixed")
            continue
        rows = axis_view(values, r)
        diff = rows[:, 1:] - rows[:, :-1]
        if not diff.any() or (diff > 0).all():
            signs.append("+")
        elif (diff < 0).all():
            signs.append("-")
        else:
            signs.append("mixed")
    return tuple(signs)


def _face(tensor: np.ndarray, signs: Sequence[str]) -> np.ndarray:
    """Coefficient tensor of the face that ``edge_subproblem`` keeps: index
    0 on '+' axes, delta_r on '-' axes, the whole range on mixed ones.  A
    face with no mixed axis is a vertex, a 0-d tensor whose one
    coefficient is the polynomial's value there."""
    return tensor[(*({"+": 0, "-": -1}.get(s, slice(None)) for s in signs), ...)]


def edge_subproblem(box: Box, signs: Sequence[str]) -> tuple[Optional[Box], list[tuple]]:
    """Fix every non-mixed axis at its active bound ('+' -> lower,
    '-' -> upper) and drop those variables.  Returns the reduced box (None
    when no axis remains) and the (axis, value) substitutions performed,
    in original axis order; the face tensor (``_face``) is the reduced
    problem's objective."""
    free = [r for r, s in enumerate(signs) if s == "mixed"]
    active = {"+": box.lower, "-": box.upper}
    fixed = [(r, active[s][r]) for r, s in enumerate(signs) if s in active]
    if not fixed:
        raise ValueError("no monotone axis to substitute")
    if not free:
        return None, fixed
    return Box(tuple(box.lower[r] for r in free), tuple(box.upper[r] for r in free)), fixed


def sample_upper_bound(box: Box, bf: BernsteinForm) -> list[tuple]:
    """Candidate points for the incumbent, in the order to offer them: the
    box center, then the grid point of the argmin Bernstein coefficient."""
    return [box.center(), box.point(grid_point(bf))]


def _evaluator(p: Polynomial, F: Field) -> Callable:
    """p's value at a point: ``p.eval``, or in exact mode the same monomial
    sum in integers at Fraction points.  With x_l = A_l / B over the
    point's common denominator and c_I = C_I / E over the coefficients',
    p(x) = sum_I C_I A^I B^(T - |I|) / (E B^T), T the largest total
    degree, built as one Fraction (also for a constant or zero p)."""
    if not F.exact:
        return p.eval
    coeffs, scale = integer_image(list(p.terms.values()))
    top = max(map(sum, p.terms), default=0)
    terms = [(c, idx, top - sum(idx)) for c, idx in zip(coeffs.tolist(), p.terms)]

    def evaluate(point: Sequence) -> Fraction:
        nums, den = integer_image(point)
        nums = nums.tolist()
        total = sum(c * den**rest * math.prod(map(pow, nums, idx)) for c, idx, rest in terms)
        return Fraction(total, scale * den**top)

    return evaluate


class _RunState:
    """Incumbent, node budget and cutoff tolerance (in the run's field)
    shared across the recursion."""

    def __init__(self, objective, constraints, cfg: BnbConfig, F: Field = FLOAT):
        self.objective = _evaluator(objective, F)
        self.constraints = tuple(_evaluator(g, F) for g in constraints)
        self.max_boxes = cfg.max_boxes
        self.epsilon = F.of(cfg.epsilon)
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
        if any(g(point) > 0 for g in self.constraints):
            return
        val = self.objective(point)
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

    The run computes in one field, that of ``cfg.exact``: the objective,
    the constraints and the box are converted into it first (floats
    convert to Fractions exactly).  The relaxation degree is ``degree``
    (default: the objective's), raised where a constraint needs more.  A
    problem whose every box is pruned as infeasible ends with no bounds and
    ``converged`` false.
    """
    if box.dimension != p.dimension:
        raise ValueError("box dimension does not match objective")
    for g in constraints:
        if g.dimension != p.dimension:
            raise ValueError("constraint dimension does not match objective")
    F = field(cfg.exact)
    p, constraints = p.convert(F.of), tuple(g.convert(F.of) for g in constraints)
    box = Box(tuple(map(F.of, box.lower)), tuple(map(F.of, box.upper)))
    stats = BnbStats()
    state = _RunState(p, constraints, cfg, F)
    start = time.perf_counter()
    if p.dimension == 0:
        lower = p.eval(())
        state.offer(())
    else:
        tensors = relaxation_tensors(p, constraints, box, degree, F.exact)
        lower = _solve_problem(box, tensors, cfg, state, lift=lambda pt: pt, stats=stats, depth=0)
    stats.elapsed = time.perf_counter() - start - stats.edge_elapsed
    upper = state.incumbent
    converged = (
        not state.exhausted and lower is not None and cutoff_test(lower, upper, state.epsilon)
    )
    return BnbResult(
        lower_bound=lower,
        upper_bound=upper,
        witness=state.witness,
        stats=stats,
        converged=converged,
    )


def _solve_problem(box, tensors, cfg, state, lift, stats, depth):
    """Worklist loop for one (sub)problem; returns its lower bound.

    ``tensors`` holds the coefficient tensors of the objective and of each
    constraint on ``box``, all of one degree; every box in the worklist
    carries its own tuple of them, and they are all the loop reads of the
    problem.  ``lift`` maps a point of ``box`` to the top-level problem's
    coordinates.  Heap entries are (float key, tie counter, bound in the
    run's field, box, tensors); the root's bound is its smallest
    coefficient, a valid bound on the box.
    """
    F, delta = field_of(tensors[0]), tuple(s - 1 for s in tensors[0].shape)
    u = None if cfg.level == LEVEL_0 else upper_bounds(delta, exact=cfg.exact)
    cuts = None if cfg.level != LEVEL_2 else build_cut_matrix(delta, cfg.exact)

    counter = itertools.count()
    root_bound = BernsteinForm(tensors[0]).minimum[0]
    heap: list = [(_heap_key(root_bound), next(counter), root_bound, box, tensors)]
    contrib = None

    def add_contrib(value):
        nonlocal contrib
        if contrib is None or value < contrib:
            contrib = value

    while heap:
        if not state.charge():
            stats.budget_count += len(heap)
            while heap:
                add_contrib(heapq.heappop(heap)[2])
            break
        _, _, _, cur, (t, *g_tensors) = heapq.heappop(heap)
        if depth == 0:
            stats.subdivisions += 1
        else:
            stats.edge_subdivisions += 1

        if any(g.min() > 0 for g in g_tensors):
            # some constraint is positive on the whole box: nothing feasible here
            stats.infeasible_count += 1
            continue
        bf = BernsteinForm(t)
        # sample first, so that the bound need only reach the cutoff
        for pt in sample_upper_bound(cur, bf):
            state.offer(lift(pt))
        outcome = bound_at_level(
            bf, cfg.level, u=u, cuts=cuts, extra_rows=constraint_rows(g_tensors),
            stop_at=cutoff_threshold(state.incumbent, state.epsilon),
        )
        stats.lp_solves += outcome.lp_solves
        stats.lp_pivots += outcome.pivots
        stats.lp_fallbacks += outcome.lp_fallbacks
        stats.early_stops += outcome.stopped
        stats.cut_rounds += outcome.iterations
        stats.rows_activated += len(outcome.activated_rows)
        if outcome.infeasible:
            # the box's LP has no feasible point, confirmed in Fractions
            stats.infeasible_count += 1
            continue
        bound = outcome.bound
        if outcome.z is not None and not outcome.stopped:
            state.offer(lift(cur.point(nominal_point(outcome.z, delta, F))))

        if cutoff_test(bound, state.incumbent, state.epsilon):
            if depth == 0:
                stats.cutoff_count += 1
            else:
                stats.edge_cutoffs += 1
            add_contrib(bound)
            continue
        if not g_tensors:
            signs = _monotonicity_signs(bf)
            if any(s != "mixed" for s in signs):
                stats.mono_count += 1
                reduced_box, fixed = edge_subproblem(cur, signs)
                sub_lift = _make_lift(lift, fixed)
                if reduced_box is None:  # a vertex: its one coefficient is the value there
                    state.offer(sub_lift(()))
                    add_contrib(_face(t, signs).item())
                else:
                    t0 = time.perf_counter()
                    sub_lower = _solve_problem(
                        reduced_box, (_face(t, signs),), cfg, state, sub_lift, stats, depth + 1,
                    )
                    if depth == 0:  # nested recursion is inside this window
                        stats.edge_elapsed += time.perf_counter() - t0
                    add_contrib(sub_lower)
                continue
        if cur.width(cur.widest_axis()) <= MIN_BOX_WIDTH:
            stats.min_width_count += 1
            add_contrib(bound)
            continue
        key = _heap_key(bound)
        for child, child_tensors in split_node(cur, (t, *g_tensors), SPLIT_LONGEST):
            heapq.heappush(heap, (key, next(counter), bound, child, child_tensors))

    return contrib


def _heap_key(bound) -> float:
    """A bound's float heap key, an infinity for an exact one beyond binary64."""
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf


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
