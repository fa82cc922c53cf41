"""Branch-and-bound global minimization over boxes.

A box has one representation: its corners and the Bernstein form of the
objective on it (and one per polynomial constraint).  Only the root is
converted from the monomial basis (``relaxation_tensors``); children get
their forms by a de Casteljau split of the parent along the bisected
axis, contracted boxes by one grid-interval matrix product along each
cut axis, and faces by a face slice.

Every box is screened when it is made and bounded when it is popped,
so that an LP runs only where the cheaper Bernstein tests cannot decide
a box.  The screen (``_screen``) takes the root, and then the children
of each round's splits, with the faces the previous screen made, as one
stack.  A box with a constraint whose coefficients are all positive is
infeasible and closes.  The others offer their sample points to the
incumbent (each box's centre, its smallest coefficient's grid point
and, with constraints, the vertex where the largest constraint
coefficient is smallest), all in one array evaluation.  After the
stack's offers, a box whose smallest coefficient reaches the cutoff
closes, contraction closes those it leaves empty and cuts others, and
the monotonicity test replaces a box by the face it is monotone toward.
What is left is pushed, keyed by its parent's bound.

The worklist is best-first on that bound, and each round pops a batch
of up to ``BATCH`` best boxes, as many as the node budget allows.  Each
popped box is bounded at the configured relaxation level, on its
contracted form, only as far as the incumbent cutoff needs: the bound
stops at its first value that reaches the cutoff (see
``relax.bound_at_level``'s ``stop_at``).  A bound that ran to the end
with an LP solution z also offers z's nominal point.  Every popped box
then closes for one reason or splits: its LP has no feasible point, or
the cutoff test against the incumbent after all of the batch's offers
closes it, or it is at the minimum width, or it is bisected, the
batch's splits one stacked de Casteljau call per axis.

Contraction (``contraction.contract``) runs on the boxes the screen's
cutoff test leaves open, in ``contraction.SWEEPS`` sweeps: by the
convex-hull property, p - threshold and each constraint can be <= 0
only on an interval of each side, read off the smallest coefficient at
each index along it.  A box shrinks to the intersection, rounded
outward to the grid 1/``contraction.GRID``, when that keeps less than
``contraction.RATIO`` of a side, and closes when it is empty.  Every
part cut away has p above the threshold or is infeasible, so it
contributes the threshold of that moment to the lower bound.

A box that is monotone along some axes is replaced by the face it is
monotone toward (``_face``), pinned to zero width on those axes, its
form constant along them so that it keeps the stack's shape; a vertex
offers its point and closes at once.  A side of zero width is never
split, tested for monotonicity or contracted, so a face, and a face of
a face, is an ordinary box of the one worklist.  ``Box`` is the input
type only: every box is held as its corner tuples (lower, upper), and
its forms as numerator arrays.

Each heap entry, and each face waiting for its screen, carries its
parent's bound in the run's field, so an exhausted budget reports a
valid lower bound.  The statistics count the boxes with a side of zero
width (faces) apart from the others.
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

from . import contraction
from .bernstein import (
    FLOAT, BernsteinForm, Field, axis_view, field, field_of, integer_image, subdivide,
    to_bernstein, upper_bounds,
)
from .poly import Box, Polynomial, to_unit_box
from .poly import restrict_facet  # noqa: F401  (unused; perfbench/spans.py traces this binding)
from .relax import (
    LEVEL_0, LEVEL_1, LEVEL_2, LEVELS, bound_at_level, build_cut_matrix, constraint_rows,
    nominal_point, sample_upper_bound,
)

SPLIT_LONGEST = "longest_edge"
SPLIT_ZERO = "zero_centered"

# a box whose widest side is no wider closes with its bound, unsplit
MIN_BOX_WIDTH = 1e-12

# the most worklist entries one round pops and processes as one stack
BATCH = 32


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
    subdivisions: int = 0  # popped boxes with no side of zero width, each bounded once
    cutoff_count: int = 0  # of those, closed by the cutoff: screened (smallest coefficient) or popped (bound)
    mono_count: int = 0  # replaced by a face at the screen
    edge_subdivisions: int = 0  # popped faces (boxes with a side of zero width), each bounded once
    edge_cutoffs: int = 0  # faces closed by the cutoff, screened or popped
    infeasible_count: int = 0  # a constraint positive at the screen, or no LP point
    min_width_count: int = 0  # closed at the minimum box width
    budget_count: int = 0  # left on the worklist or waiting for a screen when the node budget ran out
    lp_solves: int = 0
    lp_pivots: int = 0
    lp_fallbacks: int = 0
    early_stops: int = 0  # bounds stopped once they reached the cutoff
    contracted: int = 0  # boxes cut to a part of some side by contraction
    contraction_closures: int = 0  # boxes contraction left empty
    cut_rounds: int = 0  # cut-loop rounds (RelaxationOutcome.iterations)
    rows_activated: int = 0  # cut rows the rounds appended
    elapsed: float = 0.0


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
    finite incumbent.  A float threshold is the least float at or above
    the rational value, so that the gap to the incumbent never exceeds
    the tolerance and is as near to it as binary64 allows; a Fraction one
    is the value itself."""
    if incumbent is None:
        return None
    if isinstance(incumbent, float) and math.isinf(incumbent):
        return None
    value = incumbent - epsilon * max(1, abs(incumbent))
    # the rational value n / d (d > 0), from the exact ratios of the operands
    (a, b), (c, e) = incumbent.as_integer_ratio(), epsilon.as_integer_ratio()
    m, k = (abs(a), b) if abs(a) > b else (1, 1)  # max(1, |incumbent|) = m / k
    n, d = a * e * k - c * m * b, b * e * k

    def excess(v) -> int:  # of the sign of v - n / d
        p, q = v.as_integer_ratio()
        return p * d - n * q

    # each loop steps one float; a Fraction value is n / d and never steps
    while excess(value) < 0:
        value = math.nextafter(value, math.inf)
    while excess(value) > 0 and excess(math.nextafter(value, -math.inf)) >= 0:
        value = math.nextafter(value, -math.inf)
    return value


def split_boxes(boxes: Sequence[tuple], numer: np.ndarray, strategy: str) -> list[tuple]:
    """Bisect the widest side of each box (the first of equally wide ones)
    and split its forms alongside.  ``boxes`` holds K (lower, upper)
    corner tuples in the forms' field, and ``numer`` (K, m, *shape) the
    numerators of each box's m forms.  The zero-centered strategy splits
    at the origin instead of the midpoint whenever it lies strictly inside
    that side.  Boxes that split on one axis share one stacked
    ``subdivide`` call, each at its own t.  Returns each box's lower
    child, then its upper one, as (lower, upper, numerators (m, *shape),
    the factor by which their denominators grow); each child's numerators
    are copied out of the stacked split, so that no child keeps its
    batch's arrays alive."""
    F = field_of(numer)
    halves, groups = [], {}
    for i, (lower, upper) in enumerate(boxes):
        widths = [hi - lo for lo, hi in zip(lower, upper)]
        axis = widths.index(max(widths))
        lo, hi = lower[axis], upper[axis]
        at, t = lo + (hi - lo) / 2, F.half
        if strategy == SPLIT_ZERO and lo < 0 < hi:
            at = F.zero
            t = (at - lo) / (hi - lo)
        if not lo < at < hi:
            raise ValueError("split point outside the open interval")
        below = (lower, upper[:axis] + (at,) + upper[axis + 1 :])
        above = (lower[:axis] + (at,) + lower[axis + 1 :], upper)
        halves.append((below, above))
        groups.setdefault(axis, []).append((i, t))
    children = [None] * (2 * len(boxes))
    for axis, members in groups.items():
        # (G, m, *shape), a member a box with its m forms; one group is the whole batch
        rows, ts = zip(*members)
        stack = numer if len(groups) == 1 else numer[list(rows)]
        left, right, factors = subdivide(stack, axis + 1, np.array(ts, dtype=F.dtype))
        factors = np.broadcast_to(factors, len(rows)).tolist()
        for g, (i, factor) in enumerate(zip(rows, factors)):
            below, above = halves[i]
            children[2 * i] = below + (left[g].copy(), factor)
            children[2 * i + 1] = above + (right[g].copy(), factor)
    return children


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


def _monotonicity_signs(numer: np.ndarray) -> np.ndarray:
    """Per-axis derivative signs of a stack of forms, read off their
    numerators (K, *shape): a (K, n) array of '+', '-' or 'mixed'.

    The forward differences b_{I+e_r} - b_I are, up to the positive factor
    delta_r / width_r, the Bernstein coefficients of dp/dx_r on the box, so
    all positive gives '+', all negative gives '-', anything else 'mixed'.
    An axis along which the tensor is constant gives '+': the objective
    does not depend on it, and fixing its lower bound is lossless.

    The differences run on the numerators, whose signs are the
    coefficients' since ``den`` > 0, and only for the members and axes
    that pass a screen by the first smallest and first largest
    coefficients: a '+' axis has them at indices 0 and delta_r, a '-' axis
    at delta_r and 0, and a constant one both at 0.  Any other axis is
    'mixed' without a difference.
    """
    count, shape = len(numer), numer.shape[1:]
    flat = numer.reshape(count, -1)
    low = np.unravel_index(flat.argmin(axis=1), shape)
    high = np.unravel_index(flat.argmax(axis=1), shape)
    signs = np.full((count, len(shape)), "mixed")
    for r, d in enumerate(s - 1 for s in shape):
        lo, hi = low[r], high[r]
        screened = np.flatnonzero(((lo == 0) & ((hi == 0) | (hi == d))) | ((lo == d) & (hi == 0)))
        if not screened.size:
            continue
        rows = axis_view(numer[screened], r + 1)
        diff = (rows[:, 1:] - rows[:, :-1]).reshape(len(screened), -1)
        rising = (diff == 0).all(axis=1) | (diff > 0).all(axis=1)
        signs[screened[rising], r] = "+"
        signs[screened[~rising & (diff < 0).all(axis=1)], r] = "-"
    return signs


def _face(lower: tuple, upper: tuple, numer: np.ndarray, signs: Sequence[str]) -> tuple:
    """The face of the box (``lower``, ``upper``) that a monotone box is
    replaced by, and its form's numerators ``numer`` sliced there: every
    non-mixed axis pinned at its active bound ('+' -> lower, '-' ->
    upper), a side of zero width, and the numerators cut to their first
    ('+') or last ('-') entries, degree 0 on that axis.  A pinned axis
    reads '+' and stays pinned.  Returns (lower, upper, numerators); a
    face with no mixed axis is the vertex at its lower corner, and its
    one coefficient is the polynomial's value there."""
    face_lower = tuple(hi if s == "-" else lo for lo, hi, s in zip(lower, upper, signs))
    face_upper = tuple(lo if s == "+" else hi for lo, hi, s in zip(lower, upper, signs))
    index = tuple({"+": slice(None, 1), "-": slice(-1, None)}.get(s, slice(None)) for s in signs)
    return face_lower, face_upper, numer[index]


def _evaluator(p: Polynomial, F: Field) -> tuple[Callable, Callable]:
    """p's value at a point, and its values at the rows of a point array
    (an array in the field).

    In float these are ``p.eval`` and ``p.eval_rows``, which agree to the
    bit.  In exact mode a point's value is the same monomial sum in
    integers at Fraction points: with x_l = A_l / B over the point's
    common denominator and c_I = C_I / E over the coefficients', p(x) =
    sum_I C_I A^I B^(T - |I|) / (E B^T), T the largest total degree,
    built as one Fraction (also for a constant or zero p).  The rows'
    values are the same sums over one common denominator B of all the
    rows, each monomial taken at every row at once."""
    if not F.exact:
        return p.eval, p.eval_rows
    coeffs, scale = integer_image(list(p.terms.values()))
    top = max(map(sum, p.terms), default=0)
    terms = [(c, idx, top - sum(idx)) for c, idx in zip(coeffs.tolist(), p.terms)]

    def evaluate(point: Sequence) -> Fraction:
        nums, den = integer_image(point)
        nums = nums.tolist()
        total = sum(c * den**rest * math.prod(map(pow, nums, idx)) for c, idx, rest in terms)
        return Fraction(total, scale * den**top)

    def evaluate_rows(points: np.ndarray) -> np.ndarray:
        nums, den = integer_image(points)
        powers = {}  # (l, e): A_l^e at every row
        total = np.zeros(len(points), dtype=object)
        for c, idx, rest in terms:
            term = c * den**rest
            for axis, e in enumerate(idx):
                if e:
                    if (axis, e) not in powers:
                        powers[axis, e] = nums[:, axis] ** e
                    term = term * powers[axis, e]
            total += term
        return F.over(total, scale * den**top)

    return evaluate, evaluate_rows


class _RunState:
    """Incumbent, node budget and cutoff tolerance of a run (in its
    field).  ``threshold`` is the incumbent's
    ``cutoff_threshold``, set with each new incumbent."""

    def __init__(self, objective, constraints, cfg: BnbConfig, F: Field = FLOAT):
        self.objective, self.objective_rows = _evaluator(objective, F)
        pairs = [_evaluator(g, F) for g in constraints]
        self.constraints = tuple(one for one, _ in pairs)
        self.constraints_rows = tuple(rows for _, rows in pairs)
        self.max_boxes = cfg.max_boxes
        self.epsilon = F.of(cfg.epsilon)
        self.nodes = 0
        self.exhausted = False
        self.incumbent = None
        self.witness = None
        self.threshold = None

    def charge(self, wanted: int) -> int:
        """Charge up to ``wanted`` nodes to the budget; returns how many it
        could, and marks the run exhausted when that is none."""
        granted = min(wanted, self.max_boxes - self.nodes)
        self.nodes += granted
        self.exhausted = self.exhausted or not granted
        return granted

    def offer(self, point: tuple) -> None:
        """Take a candidate point as the incumbent if it satisfies every
        constraint and the top-level objective is strictly lower there."""
        if any(g(point) > 0 for g in self.constraints):
            return
        self._take(point, self.objective(point))

    def offer_rows(self, points: np.ndarray) -> None:
        """``offer`` each row of ``points`` in turn, with every function
        evaluated at all the rows at once."""
        blocked = np.zeros(len(points), dtype=bool)
        for g in self.constraints_rows:
            blocked |= g(points) > 0
        feasible = points[~blocked]
        for point, value in zip(feasible.tolist(), self.objective_rows(feasible).tolist()):
            self._take(point, value)

    def _take(self, point, value) -> None:
        if self.incumbent is None or value < self.incumbent:
            self.incumbent = value
            self.witness = tuple(point)
            self.threshold = cutoff_threshold(value, self.epsilon)


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
    lower = _solve_problem(box.lower, box.upper, forms, cfg, state, stats)
    stats.elapsed = time.perf_counter() - start
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


def _solve_problem(lower, upper, forms, cfg, state, stats):
    """The worklist loop of a run; returns its lower bound.

    ``forms`` holds the Bernstein forms of the objective and of each
    constraint on the box with corners ``lower`` and ``upper``, all of one
    degree; every box carries its own block of their numerators (one array,
    objective first) and their denominators, and they are all the loop
    reads of the problem.  A box is (bound, lower corner, upper corner,
    numerators (m, *shape), denominators), the bound that of its parent,
    the root's its smallest coefficient; a heap entry is a box behind its
    float key and a tie counter.

    Every box is screened as it is made (``_screen``): the root, then each
    round's children and the faces the previous screen made, as one stack;
    faces are screened on their own when the heap is empty or a round
    splits nothing.  Each round pops up to ``BATCH`` best entries, as many
    as the node budget allows, bounds each one (``_bound_batch``), closes
    it by the cutoff against the incumbent after all of them or at the
    minimum width, and splits the rest.  The level's caps and cut matrix
    are built at the first pop, so a problem whose root closes at its
    screen builds neither.
    """
    F, delta = field_of(forms[0].numer), forms[0].degree
    counter = itertools.count()
    heap: list = []
    tables = None  # (caps, cut matrix) of the level
    contrib = None

    def add_contrib(value):
        nonlocal contrib
        if value is not None and (contrib is None or value < contrib):
            contrib = value

    def screen(boxes) -> list:
        if not boxes:
            return []
        entries, faces, value = _screen(boxes, state, stats)
        add_contrib(value)
        for entry in entries:
            heapq.heappush(heap, (_heap_key(entry[0]), next(counter)) + entry)
        return faces

    root = (forms[0].minimum, lower, upper, np.stack([bf.numer for bf in forms]), tuple(bf.den for bf in forms))
    faces = screen([root])
    while heap or faces:
        if not heap:  # faces wait for a round's children, or for the heap to empty
            faces = screen(faces)
            continue
        count = state.charge(min(BATCH, len(heap)))
        if not count:  # the boxes left, and the faces still waiting for their screen
            stats.budget_count += len(heap) + len(faces)
            for bound in [entry[2] for entry in heap] + [face[0] for face in faces]:
                add_contrib(bound)
            break
        batch = [heapq.heappop(heap)[2:] for _ in range(count)]
        # a box with a side of zero width is a face (the root has none)
        on_face = [any(lo == hi for lo, hi in zip(lower, upper)) for _, lower, upper, _, _ in batch]
        stats.edge_subdivisions += sum(on_face)
        stats.subdivisions += count - sum(on_face)
        if tables is None:
            u = None if cfg.level == LEVEL_0 else upper_bounds(delta, exact=F.exact)
            tables = (u, None if cfg.level != LEVEL_2 else build_cut_matrix(delta, F.exact))
        numer = np.stack([box[3] for box in batch])
        bounded = _bound_batch(batch, numer, cfg.level, *tables, state, stats)

        # the cutoff test reads the incumbent after the whole batch's offers
        threshold, split = state.threshold, []
        for i, bound in bounded:
            _, lower, upper, _, _ = batch[i]
            if threshold is not None and bound >= threshold:
                stats.edge_cutoffs += on_face[i]
                stats.cutoff_count += not on_face[i]
                add_contrib(bound)
            elif max(hi - lo for lo, hi in zip(lower, upper)) <= MIN_BOX_WIDTH:
                stats.min_width_count += 1
                add_contrib(bound)
            else:
                split.append((i, bound))
        rows = [i for i, _ in split]
        children = split_boxes([batch[i][1:3] for i in rows], numer[rows], SPLIT_LONGEST)
        parents = [split[k // 2] for k in range(len(children))]  # (index, bound) of each child's
        children = [
            (bound, lower, upper, block, tuple(d * factor for d in batch[i][4]))
            for (i, bound), (lower, upper, block, factor) in zip(parents, children)
        ]
        faces = screen(children + faces)

    return contrib


def _screen(boxes, state, stats) -> tuple[list, list, object]:
    """Screen a stack of boxes as they are made, each (bound, lower,
    upper, numerators (m, *shape), denominators), the bound its parent's.
    In turn, a box closes when some constraint is positive on all of it;
    the stack offers its sample points, with constraints also
    ``_constraint_vertex``; a box closes whose smallest coefficient
    reaches the cutoff; contraction cuts the others and closes those it
    empties (every part cut away contributes the threshold); and without
    constraints, a box monotone along a side of positive width is
    replaced by its face, or closes by a vertex's one coefficient.
    Returns the boxes left open, each with its own numerators, the faces
    made, each with its box's bound and its form broadcast along the
    pinned axes to the stack's shape, and the smallest value the closed
    boxes contribute to the lower bound (None when none does)."""
    F, closed = field_of(boxes[0][3]), []
    bounds, lowers, uppers, numer, dens = zip(*boxes)
    corners = np.array(list(zip(lowers, uppers)), dtype=F.dtype)
    numer, dens = np.stack(numer), np.array(dens, dtype=object)

    def keep(rows):
        nonlocal corners, numer, dens, bounds
        corners, numer, dens, bounds = corners[rows], numer[rows], dens[rows], [bounds[i] for i in rows]

    if numer.shape[1] > 1:
        # some constraint is positive on the whole box: nothing feasible there
        positive = numer[:, 1:].reshape(len(numer), numer.shape[1] - 1, -1).min(axis=2) > 0
        rows = np.flatnonzero(~positive.any(axis=1))
        stats.infeasible_count += len(numer) - len(rows)
        keep(rows)
        if not len(rows):
            return [], [], None
    points = sample_upper_bound(corners, numer[:, 0])
    if numer.shape[1] > 1:
        n = points.shape[1]
        per_box = (points.reshape(len(numer), -1, n), _constraint_vertex(corners, numer, dens)[:, None])
        points = np.concatenate(per_box, axis=1).reshape(-1, n)
    state.offer_rows(points)

    threshold = state.threshold
    if threshold is not None:
        minima = F.over(numer[:, 0].reshape(len(numer), -1).min(axis=1), dens[:, 0]).tolist()
        reached = np.array([value >= threshold for value in minima], dtype=bool)
        if reached.any():
            on_face = (corners[:, 0] == corners[:, 1]).any(axis=1)
            stats.edge_cutoffs += int((reached & on_face).sum())
            stats.cutoff_count += int((reached & ~on_face).sum())
            closed.append(min(value for value, up in zip(minima, reached) if up))
            keep(np.flatnonzero(~reached))
            if not bounds:
                return [], [], closed[0]
    kept, cut = contraction.contract(corners, numer, dens, threshold)
    stats.contracted += int((cut & kept).sum())
    stats.contraction_closures += int((~kept).sum())
    if threshold is not None and cut.any():
        # every part cut away has p > threshold there or is infeasible
        closed.append(threshold)

    rows = np.flatnonzero(kept)
    monotone = [False] * len(rows)
    if numer.shape[1] == 1 and len(rows):  # the monotonicity test is for problems without constraints
        signs = _monotonicity_signs(numer[rows, 0])
        # a pinned axis reads '+': only a side of positive width counts
        widths = corners[rows, 1] - corners[rows, 0]
        monotone = ((signs != "mixed") & (widths > 0)).any(axis=1).tolist()
    entries, faces = [], []
    for k, i in enumerate(rows.tolist()):
        lower, upper = map(tuple, corners[i].tolist())
        box_dens = tuple(dens[i].tolist())
        if not monotone[k]:
            entries.append((bounds[i], lower, upper, numer[i].copy(), box_dens))
            continue
        stats.mono_count += 1
        face_lower, face_upper, face_numer = _face(lower, upper, numer[i, 0], signs[k])
        if "mixed" in signs[k]:
            # constant along the pinned axes: the face polynomial's form at the stack's degree
            face_numer = np.broadcast_to(face_numer, numer.shape[1:])
            faces.append((bounds[i], face_lower, face_upper, face_numer, box_dens))
        else:  # a vertex: its one coefficient is the value there
            state.offer(face_lower)
            closed.append(BernsteinForm(face_numer, dens[i, 0]).minimum)
    return entries, faces, min(closed, default=None)


def _constraint_vertex(corners: np.ndarray, numer: np.ndarray, dens: Sequence) -> np.ndarray:
    """Per box of a stack (corners (K, 2, n)), the vertex where the
    largest constraint coefficient is smallest, and among those the first
    where the objective's is smallest, as a (K, n) array of the corners'
    own coordinates.  A vertex's coefficients are the forms' values
    there, so it is feasible when that largest one is <= 0.  The
    constraints are compared on one scale a box: each one's numerators
    times the product of the other constraints' denominators (``dens``
    holds each box's denominators, objective first)."""
    count, forms, n = numer.shape[0], numer.shape[1], numer.ndim - 2
    for r in range(n):  # keep the first and the last index on each axis
        numer = numer.take([0, -1], axis=2 + r)
    scales = [[math.prod(row[1:]) // den for den in row[1:]] for row in map(list, dens)]
    scales = np.array(scales, dtype=numer.dtype).reshape((count, forms - 1) + (1,) * n)
    largest = (numer[:, 1:] * scales).max(axis=1).reshape(count, -1)
    objective = numer[:, 0].reshape(count, -1)
    ties = largest == largest.min(axis=1, keepdims=True)
    # the smallest objective among the ties: the others read the largest, which no tie exceeds
    best = np.where(ties, objective, objective.max(axis=1, keepdims=True)).min(axis=1, keepdims=True)
    pos = (ties & (objective == best)).argmax(axis=1)
    high = np.stack(np.unravel_index(pos, (2,) * n), axis=1) == 1
    return np.where(high, corners[:, 1], corners[:, 0])


def _bound_batch(batch, numer, level, u, cuts, state, stats) -> list[tuple]:
    """Bound each popped box of a batch, (parent bound, lower, upper,
    numerators, denominators) with its numerators stacked in ``numer``,
    at ``level``, in order, only as far as the cutoff needs (``stop_at``),
    and count its LP work; a bound that ran to the end with an LP
    solution offers its nominal point at once.  Returns (index, bound) for
    each box whose LP has a feasible point; the others count as
    infeasible."""
    F, delta = field_of(numer), tuple(s - 1 for s in numer.shape[2:])
    bounded = []
    for i, ((_, lower, upper, _, dens), block) in enumerate(zip(batch, numer)):
        forms = tuple(map(BernsteinForm, block, dens))
        outcome = bound_at_level(
            forms[0], level, u=u, cuts=cuts,
            # levels 0 and first read no rows
            extra_rows=constraint_rows(forms[1:]) if level in (LEVEL_1, LEVEL_2) else None,
            stop_at=state.threshold,
        )
        stats.lp_solves += outcome.lp_solves
        stats.lp_pivots += outcome.pivots
        stats.lp_fallbacks += outcome.lp_fallbacks
        stats.early_stops += outcome.stopped
        stats.cut_rounds += outcome.iterations
        stats.rows_activated += len(outcome.activated_rows)
        if outcome.bound is None:  # the box's LP has no feasible point
            stats.infeasible_count += 1
            continue
        if outcome.z is not None and not outcome.stopped:
            z = nominal_point(outcome.z, delta, F)
            state.offer(tuple(lo + (hi - lo) * zi for lo, hi, zi in zip(lower, upper, z)))
        bounded.append((i, outcome.bound))
    return bounded


def _heap_key(bound) -> float:
    """A bound's float heap key, an infinity for an exact one beyond binary64."""
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf
