"""Branch-and-bound global minimization over boxes.

A (sub)problem is its box and, per box, one representation: the Bernstein
form of the objective on it (and one per polynomial constraint).  Only
the root is converted from the monomial basis (``relaxation_tensors``);
children get their forms by a de Casteljau split of the parent along the
bisected axis, and edge subproblems by a face slice.  A popped box first
offers its sample points to the incumbent (its centre and its smallest
coefficient's grid point), and is then bounded at the configured
relaxation level only as far as the incumbent cutoff needs: the bound
stops at its first value that reaches the cutoff (see
``relax.bound_at_level``'s ``stop_at``).  A bound that ran to the end
with an LP solution z also offers z's nominal point.  The box is then
resolved by one of: infeasibility (some constraint's coefficients are
all positive, or the box's LP has no feasible point), the incumbent
cutoff test (which closes every box whose bound one of the offered
points attains, since the incumbent is then at most that bound), the
monotonicity test, or bisection.  A box that is monotone along some
axes closes by solving the face it is monotone toward, an "edge"
subproblem solved recursively: the same kind of box, pinned to zero
width on those axes, with its form sliced to degree 0 there.

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
    LEVEL_0, LEVEL_1, LEVEL_2, LEVELS, bound_at_level, build_cut_matrix, constraint_rows,
    grid_point, nominal_point,
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


def split_node(box: Box, forms: tuple, strategy: str) -> tuple[tuple, tuple]:
    """Bisect the widest axis of ``box`` and split each of its Bernstein
    forms alongside; returns (left box, left forms), (right box, right
    forms).  The zero-centered strategy splits at the origin instead of
    the midpoint whenever it lies strictly inside that side.  The box's
    coordinates are in the forms' field (float with no forms)."""
    F = field_of(forms[0].numer) if forms else FLOAT
    axis = box.widest_axis()
    lo, hi = box.lower[axis], box.upper[axis]
    at, t = lo + (hi - lo) / 2, F.half
    if strategy == SPLIT_ZERO and lo < 0 < hi:
        at = F.zero
        t = (at - lo) / (hi - lo)
    left, right = box.split(axis, at)
    halves = [subdivide(bf, axis, t) for bf in forms]
    return (left, tuple(h[0] for h in halves)), (right, tuple(h[1] for h in halves))


def relaxation_tensors(p: Polynomial, constraints: Sequence, box: Box, degree=None, exact=False):
    """The Bernstein forms of ``p`` and of each constraint on ``box``
    (exact when ``exact``), at the relaxation degree: ``degree``
    (default: the objective's), raised where a constraint needs more.  A
    float form must be finite: where binary64 overflows on the box, this
    is a ValueError that points to exact arithmetic."""
    delta = tuple(map(max, zip(degree or p.degree, *(g.degree for g in constraints))))
    F = field(exact)
    with np.errstate(over="ignore", invalid="ignore"):  # the forms are checked below
        try:
            units = (to_unit_box(f, box)[0] for f in (p, *constraints))
            forms = tuple(to_bernstein(q, delta, F.exact) for q in units)
        except OverflowError:  # a float power or conversion beyond binary64
            forms = None
    if forms is None or not all(F.finite(bf.numer) for bf in forms):
        raise ValueError("the coefficients on the box overflow binary64; run with --arith rational")
    return forms


def _monotonicity_signs(bf: BernsteinForm) -> tuple[str, ...]:
    """Per-axis derivative sign read off the form's coefficients.

    The forward differences b_{I+e_r} - b_I are, up to the positive factor
    delta_r / width_r, the Bernstein coefficients of dp/dx_r on the box, so
    all positive gives '+', all negative gives '-', anything else 'mixed'.
    An axis along which the tensor is constant gives '+': the objective
    does not depend on it, and fixing its lower bound is lossless.

    The differences run on ``numer``, whose signs are theirs since ``den``
    > 0, and only on axes that pass a screen by the first smallest and
    first largest coefficients: a '+' axis has them at indices 0 and
    delta_r, a '-' axis at delta_r and 0, and a constant one both at 0.
    Any other axis is 'mixed' without a difference.
    """
    values = bf.numer
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


def _face(box: Box, bf: BernsteinForm, signs: Sequence[str]) -> tuple[Box, BernsteinForm]:
    """The face of ``box`` that the edge subproblem solves, and its form:
    every non-mixed axis pinned at its active bound ('+' -> lower, '-' ->
    upper), a side of zero width, and the form sliced there to its first
    ('+') or last ('-') coefficients, degree 0 on that axis.  A pinned
    axis reads '+' and stays pinned.  A face with no mixed axis is the
    vertex ``face.lower``, and its form's one coefficient is the
    polynomial's value there."""
    lower = tuple(hi if s == "-" else lo for lo, hi, s in zip(box.lower, box.upper, signs))
    upper = tuple(lo if s == "+" else hi for lo, hi, s in zip(box.lower, box.upper, signs))
    index = tuple({"+": slice(None, 1), "-": slice(-1, None)}.get(s, slice(None)) for s in signs)
    return Box._derived(lower, upper), BernsteinForm(bf.numer[index], bf.den)


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
    shared across the recursion.  ``threshold`` is the incumbent's
    ``cutoff_threshold``, set with each new incumbent."""

    def __init__(self, objective, constraints, cfg: BnbConfig, F: Field = FLOAT):
        self.objective = _evaluator(objective, F)
        self.constraints = tuple(_evaluator(g, F) for g in constraints)
        self.max_boxes = cfg.max_boxes
        self.epsilon = F.of(cfg.epsilon)
        self.nodes = 0
        self.exhausted = False
        self.incumbent = None
        self.witness = None
        self.threshold = None

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
            self.threshold = cutoff_threshold(val, self.epsilon)


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
    forms = relaxation_tensors(p, constraints, box, degree, F.exact)
    lower = _solve_problem(box, forms, cfg, state, stats, depth=0)
    stats.elapsed = time.perf_counter() - start - stats.edge_elapsed
    threshold = state.threshold
    converged = (
        not state.exhausted and lower is not None and threshold is not None and lower >= threshold
    )
    return BnbResult(
        lower_bound=lower,
        upper_bound=state.incumbent,
        witness=state.witness,
        stats=stats,
        converged=converged,
    )


def _solve_problem(box, forms, cfg, state, stats, depth):
    """Worklist loop for one (sub)problem; returns its lower bound.

    ``forms`` holds the Bernstein forms of the objective and of each
    constraint on ``box``, all of one degree; every box in the worklist
    carries its own tuple of them, and they are all the loop reads of the
    problem.  An edge subproblem's ``box`` is a face of its parent's
    (``_face``), in the problem's own coordinates, so its points are the
    problem's.  Heap entries are (float key, tie counter, bound in the
    run's field, box, forms); the root's bound is its smallest
    coefficient, a valid bound on the box.
    """
    F, delta = field_of(forms[0].numer), forms[0].degree
    u = None if cfg.level == LEVEL_0 else upper_bounds(delta, exact=F.exact)
    cuts = None if cfg.level != LEVEL_2 else build_cut_matrix(delta, F.exact)
    lp_level = cfg.level in (LEVEL_1, LEVEL_2)

    counter = itertools.count()
    root_bound = forms[0].minimum[0]
    heap: list = [(_heap_key(root_bound), next(counter), root_bound, box, forms)]
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
        _, _, _, cur, (bf, *g_forms) = heapq.heappop(heap)
        if depth == 0:
            stats.subdivisions += 1
        else:
            stats.edge_subdivisions += 1

        if any(g.numer.min() > 0 for g in g_forms):
            # some constraint is positive on the whole box: nothing feasible here
            stats.infeasible_count += 1
            continue
        # sample first, so that the bound need only reach the cutoff
        for pt in sample_upper_bound(cur, bf):
            state.offer(pt)
        outcome = bound_at_level(
            bf, cfg.level, u=u, cuts=cuts,
            extra_rows=constraint_rows(g_forms) if lp_level else None,  # 0 and first read no rows
            stop_at=state.threshold,
        )
        stats.lp_solves += outcome.lp_solves
        stats.lp_pivots += outcome.pivots
        stats.lp_fallbacks += outcome.lp_fallbacks
        stats.early_stops += outcome.stopped
        stats.cut_rounds += outcome.iterations
        stats.rows_activated += len(outcome.activated_rows)
        bound = outcome.bound
        if bound is None:  # the box's LP has no feasible point
            stats.infeasible_count += 1
            continue
        if outcome.z is not None and not outcome.stopped:
            state.offer(cur.point(nominal_point(outcome.z, delta, F)))

        if state.threshold is not None and bound >= state.threshold:
            if depth == 0:
                stats.cutoff_count += 1
            else:
                stats.edge_cutoffs += 1
            add_contrib(bound)
            continue
        if not g_forms:
            signs = _monotonicity_signs(bf)
            # a pinned axis reads '+': only a side of positive width counts
            if any(s != "mixed" and cur.width(r) for r, s in enumerate(signs)):
                stats.mono_count += 1
                face, face_form = _face(cur, bf, signs)
                if "mixed" not in signs:  # a vertex: its one coefficient is the value there
                    state.offer(face.lower)
                    add_contrib(face_form.tensor.item())
                else:
                    t0 = time.perf_counter()
                    sub_lower = _solve_problem(face, (face_form,), cfg, state, stats, depth + 1)
                    if depth == 0:  # nested recursion is inside this window
                        stats.edge_elapsed += time.perf_counter() - t0
                    add_contrib(sub_lower)
                continue
        if cur.width(cur.widest_axis()) <= MIN_BOX_WIDTH:
            stats.min_width_count += 1
            add_contrib(bound)
            continue
        key = _heap_key(bound)
        for child, child_forms in split_node(cur, (bf, *g_forms), SPLIT_LONGEST):
            heapq.heappush(heap, (key, next(counter), bound, child, child_forms))

    return contrib


def _heap_key(bound) -> float:
    """A bound's float heap key, an infinity for an exact one beyond binary64."""
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf
