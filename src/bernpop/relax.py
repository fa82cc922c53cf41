"""LP relaxations of box-constrained polynomial minimization.

Three strengths are provided on the unit box, all driven by the Bernstein
coefficients b of the objective:

* level 0: the smallest coefficient (no LP at all);
* level 1: the separable LP with basis upper bounds, solved in closed form
  as a fractional knapsack (plus a sort-and-scan dual bound, "first-LP",
  that avoids even the greedy);
* level 2: level 1 plus the degree-elevation inequalities between lower
  and top degree placeholders, added on demand as cutting planes.

Side constraints g(x) <= 0 reach the LP as rows b(g) . z <= 0, one per
constraint, read off the constraint's own Bernstein form at the
relaxation degree (linear constraints are degree-1 polynomials).  Levels
1 and 2 share one cut loop, and ``bound_at_level`` is the one entry point
to every level.  Every LP is a ``simplex.CutLP``, built only once there
is a row to append: with none, the greedy fill is the optimum.  Rows
travel as one block (a, b), a coefficient matrix and its right-hand
sides in the form's field, from the cut matrix or the constraints
straight into ``CutLP.append_rows``.

A caller that only needs the bound to reach a target (the branch-and-bound
cutoff) passes it as ``stop_at``: the smallest coefficient, the greedy
fill and each LP iterate are tried in turn, cheapest first, and the first
that reaches the target is returned, marked ``stopped``.

A relaxation certifies nothing beyond its bound.  Each level proposes a
point (the grid point of the smallest coefficient at level 0, from
``sample_upper_bound``, the ``nominal_point`` of the LP's z above it);
branch-and-bound offers it to the incumbent, so the cutoff closes a box
its own point attains, and ``witness`` reports a proposed point or the
centre where the objective attains the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import simplex
from .bernstein import (
    BernsteinForm,
    Field,
    _beta_peak,
    bernstein_eval,
    field,
    field_of,
    integer_image,
    upper_bounds,
)
from .poly import Index

LEVEL_0 = "0"
LEVEL_FIRST = "first"
LEVEL_1 = "1"
LEVEL_2 = "2"
LEVELS = (LEVEL_0, LEVEL_FIRST, LEVEL_1, LEVEL_2)

_VIOLATION_TOL = 1e-9
_VALUE_TOL = 1e-9


@dataclass
class RelaxationOutcome:
    """A relaxation's bound, its placeholder vector z (levels 1 and 2) and
    the work it took.  The bound is None when the LP has no feasible point."""

    bound: object
    z: Optional[list] = None
    activated_rows: tuple = ()
    iterations: int = 0  # cut rounds
    lp_solves: int = 0
    pivots: int = 0
    lp_fallbacks: int = 0  # float solves redone from the start (see simplex.CutLP)
    stopped: bool = False  # returned early: the bound already reached ``stop_at``


# ---------------------------------------------------------------------------
# cut matrix: rows  b^(I,K) . z <= B_{I,K}(I/K)  for all I <= K < delta


class CutMatrix:
    """All degree-elevation inequalities for a fixed top degree.

    One row per pair (I, K) with I <= K <= delta and K != delta.  Row ids
    follow (|K|, K lex, I lex).  Lower-bound rows 0 <= b^(I,K) . z are
    omitted (the coefficients are nonnegative and z >= 0 already), and the
    per-K unit-partition equalities are implied by sum z = 1 because every
    elevation column sums to one.

    Row (I, K) is the Kronecker product over the axes of the univariate
    elevation rows e^(i_l, k_l), and its right-hand side the product of
    the peaks beta_{i_l,k_l}(i_l/k_l), so only per-axis factors are kept:
    for axis l, ``_elevation[l]`` stacks the rows beta_{i,k} = sum_j
    C(k,i) C(delta_l-k, j-i) / C(delta_l, j) beta_{j,delta_l} for k =
    0..delta_l (row (k, i) at position k(k+1)/2 + i), and ``_peaks[l]``
    the matching peaks, in the field ``F``.  ``_integer[l]`` holds the
    same rows as integers over m_l = lcm_j C(delta_l, j), the numerator
    of column j scaled by m_l / C(delta_l, j).  An exact row is the
    integer product over the axes divided by ``_scale``, the product of
    the m_l; an exact scan contracts the integer image of z against the
    integer rows and compares cross-multiplied with the right-hand sides'
    integer image ``_rhs_image``.  A position of the system is one
    per-axis position per axis, flattened row-major; ``_row_id`` maps it
    to its row id (-1 for K = delta) and ``_pos_of`` back.  Scans and row
    materialization are per-axis products; no row is expanded unless
    asked for.  The matrix is immutable and safe to share between solves.
    """

    def __init__(self, degree: Index, F: Field):
        self.degree = tuple(degree)
        self.field = F
        self._size = math.prod(d + 1 for d in self.degree)
        self._integer, self._elevation, self._peaks = [], [], []
        total = lex = np.zeros((), dtype=np.int64)  # |K| and K's rank per position
        self._rhs = np.ones(1, dtype=F.dtype)
        self._scale = 1
        for d in self.degree:
            numer = np.array(
                [[math.comb(k, i) * math.comb(d - k, j - i) if i <= j <= i + d - k else 0
                  for j in range(d + 1)] for k in range(d + 1) for i in range(k + 1)],
                dtype=object,
            )
            column = [math.comb(d, j) for j in range(d + 1)]
            m = math.lcm(*column)
            self._integer.append(numer * np.array([m // c for c in column], dtype=object))
            self._scale *= m
            self._elevation.append(
                np.frompyfunc(F.ratio, 2, 1)(numer, np.array(column, dtype=object)).astype(F.dtype)
            )
            peaks = np.array(
                [_beta_peak(i, k, F) for k in range(d + 1) for i in range(k + 1)],
                dtype=F.dtype,
            )
            self._peaks.append(peaks)
            self._rhs = np.multiply.outer(self._rhs, peaks).ravel()
            low = np.repeat(np.arange(d + 1), np.arange(1, d + 2))
            total = np.add.outer(total, low)
            lex = np.add.outer(lex * (d + 1), low)
        self._rhs_image = F.image(self._rhs)
        self._shape = tuple(len(r) for r in self._peaks)
        # within one K the row-major positions already run over I in lex order
        order = np.argsort((total * self._size + lex).ravel(), kind="stable")
        self.row_count = order.size - self._size  # K = delta sorts last
        self._pos_of = order[: self.row_count]
        self._row_id = np.full(order.size, -1, dtype=np.int64)
        self._row_id[self._pos_of] = np.arange(self.row_count)

    def rows(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Materialize rows as one block (a, b) in the field: a[i] the
        coefficients over J <= delta of row ids[i], and b[i] its rhs."""
        flat = self._pos_of[np.asarray(ids, dtype=np.int64)]
        per_axis = []
        for size in reversed(self._shape):
            flat, pos = np.divmod(flat, size)
            per_axis.insert(0, pos)
        coeffs = rhs = 1
        factors = self._integer if self.field.exact else self._elevation
        for l, (pos, d) in enumerate(zip(per_axis, self.degree)):
            shape = [-1] + [1] * len(self.degree)
            shape[l + 1] = d + 1
            coeffs = coeffs * factors[l][pos].reshape(shape)
            rhs = rhs * self._peaks[l][pos]
        coeffs = np.reshape(coeffs, (len(ids), self._size))
        if self.field.exact:
            nonzero = coeffs != 0
            numer, coeffs = coeffs[nonzero], np.full(coeffs.shape, self.field.zero, dtype=object)
            coeffs[nonzero] = np.frompyfunc(self.field.ratio, 2, 1)(numer, self._scale)
        return coeffs, rhs

    def scan_violations(self, z, tol, skip: set[int]) -> list[int]:
        """Ids of rows with b^(I,K) . z > rhs + tol, ascending.

        One matrix product per axis contracts that axis of z against its
        elevation rows and rotates it to the back; after the last axis
        the values lie in position order.  Exact scans run on integers:
        with z = N / D, rhs = R / E and tol = a / b, a row is violated iff
        (rows . N) E b > (R b + a E) D ``_scale``."""
        if self.field.exact:
            vals, den = integer_image(z)
            for integer, d in zip(self._integer, self.degree):
                vals = (integer @ vals.reshape(d + 1, -1)).T
            (rhs, rhs_den), tol = self._rhs_image, Fraction(tol)
            bound = (rhs * tol.denominator + tol.numerator * rhs_den) * (den * self._scale)
            over = vals.ravel() * (rhs_den * tol.denominator) > bound
        else:
            vals = self.field.array(z)
            for elevation, d in zip(self._elevation, self.degree):
                vals = (elevation @ vals.reshape(d + 1, -1)).T
            over = vals.ravel() > self._rhs + tol
        ids = self._row_id[np.nonzero(over)[0]]
        return [i for i in np.sort(ids[ids >= 0]).tolist() if i not in skip]


def build_cut_matrix(degree: Index, exact: bool = False) -> CutMatrix:
    """Construct the full inequality system for ``degree`` (objective-free)."""
    return CutMatrix(degree, field(exact))


def constraint_rows(forms: Sequence[BernsteinForm]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The LP rows b(g) . z <= 0 of side constraints g(x) <= 0, from their
    Bernstein forms at the relaxation degree, as one block (a, b); None
    when there is no constraint."""
    if not forms:
        return None
    F = field_of(forms[0].numer)
    return np.stack([g.tensor.ravel() for g in forms]), np.full(len(forms), F.zero, dtype=F.dtype)


# ---------------------------------------------------------------------------
# proposed points and the relaxation levels


def nominal_point(z: Sequence, degree: Index, F: Field) -> tuple:
    """x~ with x~_j = sum_I (i_j/delta_j) z_I, clipped to [0, 1] (the
    coordinate polynomials' Bernstein coefficients are exactly i_j/delta_j);
    degree-0 axes give 0.  Each sum runs over the positions in row-major
    order from 0, as one accumulation of the weighted tensor, so float
    sums round as the plain loop does."""
    z = np.reshape(np.asarray(z, dtype=F.dtype), [d + 1 for d in degree])
    point = []
    for j, d in enumerate(degree):
        acc = F.zero
        if d:
            shape = [1] * len(degree)
            shape[j] = d + 1
            weights = np.array([F.ratio(i, d) for i in range(d + 1)], dtype=F.dtype)
            terms = np.concatenate(([F.zero], (weights.reshape(shape) * z).ravel()))
            acc = np.add.accumulate(terms, dtype=F.dtype).item(terms.size - 1)
        point.append(min(max(acc, 0), 1))
    return tuple(point)


def sample_upper_bound(corners: np.ndarray, numer: np.ndarray) -> np.ndarray:
    """Candidate points for an upper bound from a stack of boxes (corners
    (K, 2, n) in the field) and their objective numerators (K, *shape),
    in the order to offer them: each box's centre, then the grid point
    I/delta of its first smallest coefficient (degree-0 axes give 0), as
    a (2K, n) array.  The centre is lo + (hi - lo) / 2 and the grid point
    lo + (hi - lo) * (I/delta), ``Box.point``'s arithmetic, done on the
    images of the corners and of 1/2 and I/delta (``Field.image``): in
    float that is the same sum, and in exact mode each point's entry is
    one Fraction of ints."""
    F, count, shape = field_of(corners), len(corners), numer.shape[1:]
    image, den = F.image(corners)
    lower, width = image[:, 0], image[:, 1] - image[:, 0]
    pos = numer.reshape(count, -1).argmin(axis=1)
    grid = np.empty((count, len(shape)), dtype=F.dtype)
    scales = np.ones(len(shape), dtype=object)  # of the grid column of each axis
    for r in reversed(range(len(shape))):  # row-major: the last axis varies fastest
        pos, index = np.divmod(pos, shape[r])
        steps, scales[r] = _grid_steps(F, shape[r] - 1)
        grid[:, r] = steps[index]
    halves, two = _grid_steps(F, 2)
    centres = F.over(lower * two + width * halves[1], den * two)
    points = F.over(lower * scales.astype(F.dtype) + width * grid, den * scales)
    return np.stack([centres, points], axis=1).reshape(2 * count, len(shape))


@functools.lru_cache(maxsize=None)
def _grid_steps(F: Field, d: int) -> tuple[np.ndarray, object]:
    """The image of the grid points i/d, i = 0, ..., d, in the field
    (of the one point 0 for d = 0)."""
    steps, scale = F.image([F.ratio(i, d) for i in range(d + 1)] if d else [0])
    steps.flags.writeable = False  # shared by every call
    return steps, scale


def witness(bf: BernsteinForm, outcome: RelaxationOutcome) -> Optional[tuple]:
    """A unit-box point where the form attains ``outcome.bound``, or None.
    The level's proposed point (the nominal point of z, or with no z the
    smallest coefficient's grid point) is tried first, then the centre,
    both from ``sample_upper_bound`` on the unit box; a value counts when
    it equals the bound, exactly in rational mode and to a relative
    tolerance in float."""
    F = field_of(bf.numer)
    bound = F.of(outcome.bound)
    unit = np.array([[(F.zero,) * bf.dimension, (F.one,) * bf.dimension]], dtype=F.dtype)
    centre, grid = map(tuple, sample_upper_bound(unit, bf.numer[None]).tolist())
    proposed = grid if outcome.z is None else nominal_point(outcome.z, bf.degree, F)
    tol = F.tol(_VALUE_TOL) * max(F.one, abs(bound))
    for point in (proposed, centre):
        if abs(F.of(bernstein_eval(bf, point)) - bound) <= tol:
            return point
    return None


def relax0(bf: BernsteinForm) -> RelaxationOutcome:
    """Level 0: the smallest Bernstein coefficient."""
    return RelaxationOutcome(bound=bf.minimum)


def _ascending(values: np.ndarray) -> np.ndarray:
    """Positions by ascending value, ties in position order: numpy's
    stable sort on a numeric array, Python's on an object array (a form's
    integer numerators), which is faster than numpy's there."""
    if values.dtype != object:
        return np.argsort(values, kind="stable")
    values = values.tolist()
    return np.array(sorted(range(len(values)), key=values.__getitem__), dtype=np.intp)


def _greedy_knapsack(coeffs: Sequence, u: Sequence, F: Field) -> tuple[object, list, int]:
    """Fill the cheapest coefficients to their caps until the unit mass is
    spent; returns the bound, z, and the last variable filled.  The
    level-1 LP  min b.z, sum z = 1, 0 <= z <= u  is separable, so this
    fill is optimal; ties break by index order.  A form's numerators N
    fill as N / D does, and the bound is then D times the form's.

    That last variable is the one basic variable of an optimal basis of
    the level-1 LP: every other variable sits at 0 or at its cap, with
    c_j <= c_last where filled and c_j >= c_last where not.
    """
    coeffs, u = np.ravel(coeffs), np.ravel(u)
    order = _ascending(coeffs)
    remaining, bound = F.one, F.zero
    z = [F.zero] * len(coeffs)
    last = int(order[0])
    for i, c, cap in zip(order.tolist(), coeffs[order].tolist(), u[order].tolist()):
        if remaining <= 0:
            break
        take = cap if cap < remaining else remaining
        z[i] = take
        bound += c * take
        remaining -= take
        last = i
    if remaining > F.tol(1e-12):
        raise AssertionError("upper bounds sum below one; corner caps must be 1")
    return bound, z, last


def first_lp_bound(bf: BernsteinForm, u: Sequence):
    """Sort-and-scan dual bound for the level-1 LP (no solver call).

    With coefficients sorted ascending and caps permuted alongside, the
    value  max(b_1, b_{q+1} + sum_{j<=q} b_j u_j)  is dual feasible, where
    q is the largest prefix of nonpositive coefficients whose caps still
    fit inside the unit mass, read off ``numer`` (only the value is divided).
    """
    coeffs, over = bf.numer.ravel(), field_of(bf.numer).over
    order = _ascending(coeffs)
    b, uu = coeffs[order], np.ravel(u)[order]
    b0 = b.item(0)
    if b0 >= 0:
        return over(b0, bf.den)
    last_nonpos = int(np.count_nonzero(b <= 0)) - 1  # 0-based l-1
    # running sums of the caps, added in order as a loop would; they never
    # decrease, so q counts the prefix that stays within the unit mass
    q = int(np.count_nonzero(np.add.accumulate(uu[:last_nonpos]) <= 1))
    partial = np.add.accumulate(b[:q] * uu[:q]).item(q - 1) if q else 0
    candidate = b.item(q) + partial
    return over(candidate if candidate > b0 else b0, bf.den)


def _cut_loop(bf, u, cuts, extra_rows, F: Field, stop_at=None) -> RelaxationOutcome:
    """Level 1 (no ``cuts``) or level 2: the greedy fill of the level-1 LP,
    re-optimised after appending ``extra_rows`` and then, round by round,
    the rows of ``cuts`` it violates until none is left; the result is the
    optimum of the full system.  One ``simplex.CutLP`` serves the loop,
    built from the greedy basis once there is a row to append, so a bound
    with no rows builds no LP.

    Every value along the way, the greedy fill and each LP iterate, is the
    optimum of a subsystem and so a lower bound of the full system.  Once
    one reaches ``stop_at`` the loop returns it, marked ``stopped``,
    without appending or scanning further.

    Each solve ends optimal or infeasible, and a float infeasibility only
    once the LP's exact image agrees (``simplex.CutLP.reoptimize``); an
    infeasible LP ends the loop with no bound and no z.
    """
    value, z, last = _greedy_knapsack(bf.numer, u, F)
    value = F.over(value, bf.den)
    tol = F.tol(_VIOLATION_TOL)
    lp, rows = None, extra_rows
    active: list[int] = []
    active_set: set[int] = set()
    rounds = solves = pivots = 0
    while True:
        stopped = stop_at is not None and value >= stop_at
        if stopped:
            break
        if rows is not None:
            if lp is None:
                coeffs, caps = bf.tensor.ravel().tolist(), np.ravel(u).tolist()
                lp = simplex.CutLP(coeffs, caps, z, last, F)
            lp.append_rows(*rows)
            rows = None
            sol = simplex.solve(lp)
            solves += 1
            pivots += sol.iterations
            if sol.status == simplex.INFEASIBLE:
                value = z = None
                break
            value, z = sol.value, sol.z
            continue  # check the new value before scanning
        if cuts is None:
            break
        rounds += 1
        violated = cuts.scan_violations(z, tol, active_set)
        if not violated:
            break
        active.extend(violated)
        active_set.update(violated)
        rows = cuts.rows(violated)
    return RelaxationOutcome(
        bound=value, z=z, activated_rows=tuple(active), iterations=rounds, lp_solves=solves,
        pivots=pivots, lp_fallbacks=lp.fallbacks if lp else 0, stopped=stopped,
    )


# ---------------------------------------------------------------------------
# level dispatch used by the branch-and-bound driver and the CLI


def bound_at_level(
    bf: BernsteinForm,
    level: str,
    u: Optional[Sequence] = None,
    cuts: Optional[CutMatrix] = None,
    extra_rows: Optional[tuple] = None,
    exact: Optional[bool] = None,
    stop_at=None,
) -> RelaxationOutcome:
    """Compute the bound of one relaxation level on a unit-box form: the
    one entry point to every level.  The arithmetic is the field of the
    form; ``exact``, if given, must name that field.  ``u``
    defaults to the caps of the form's degree, and ``cuts``, read at
    level 2 only, to its full cut matrix.  ``extra_rows`` is a block
    (a, b) of side rows a.z <= b, as ``constraint_rows`` builds it, or None.

    ``stop_at`` asks for a bound only as strong as needed to reach it:
    above level 0, the level-0 outcome is returned when the smallest
    coefficient reaches it, and the cut loop returns its first value that
    does (see ``_cut_loop``); either is marked ``stopped``.  A stopped
    bound is a valid lower bound at or below the level's full bound.
    """
    F = field_of(bf.numer)
    if exact is not None and exact != F.exact:
        raise ValueError(f"exact={exact} disagrees with the form's {bf.numer.dtype} numerators")
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if level == LEVEL_0 or stop_at is not None:
        out = relax0(bf)
        if level == LEVEL_0:
            return out
        if out.bound >= stop_at:
            out.stopped = True
            return out
    if u is None:
        u = upper_bounds(bf.degree, exact=F.exact)
    if level == LEVEL_FIRST:
        return RelaxationOutcome(bound=first_lp_bound(bf, u))
    if level == LEVEL_2 and cuts is None:
        cuts = build_cut_matrix(bf.degree, F.exact)
    return _cut_loop(bf, u, cuts if level == LEVEL_2 else None, extra_rows, F, stop_at)
