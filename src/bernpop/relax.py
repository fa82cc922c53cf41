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
constraint, read off the constraint's own coefficient tensor at the
relaxation degree (linear constraints are degree-1 polynomials).  Levels
1 and 2 share one cut loop, and ``bound_at_level`` is the one entry point
to every level.  Every LP is a ``simplex.CutLP``, built only once there
is a row to append: with none, the greedy fill is the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import simplex
from .bernstein import (
    BernsteinForm,
    _beta_peak,
    _field,
    bernstein_eval,
    min_coefficient,
    outer_chain,
    upper_bounds,
    vertex_condition,
    vertex_point,
)
from .poly import AffineMap, Index

LEVEL_0 = "0"
LEVEL_FIRST = "first"
LEVEL_1 = "1"
LEVEL_2 = "2"
LEVELS = (LEVEL_0, LEVEL_FIRST, LEVEL_1, LEVEL_2)

_VIOLATION_TOL = 1e-9
_VALUE_TOL = 1e-9

# Fraction(numerator, denominator) elementwise over object arrays
_fraction = np.frompyfunc(Fraction, 2, 1)


@dataclass
class RelaxationOutcome:
    """Bound plus whatever certificates the relaxation produced."""

    bound: object
    z: Optional[list] = None
    activated_rows: tuple = ()
    witness: Optional[tuple] = None
    exact: bool = False
    iterations: int = 0  # cut rounds
    infeasible: bool = False  # the LP has no feasible point (then bound is None)
    lp_solves: int = 0
    pivots: int = 0
    lp_fallbacks: int = 0  # float solves redone from the start (see simplex.CutLP)


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
    0..delta_l (row (k, i) at position k(k+1)/2 + i), ``_numer[l]`` their
    integer numerators, and ``_peaks[l]`` the matching peaks.  Exact rows
    are built from the numerators: one Fraction per coefficient, the
    integer product over the axes divided by the column's product of
    C(delta_l, j_l).  A position of the system
    is one per-axis position per axis, flattened row-major; ``_row_id``
    maps it to its row id (-1 for K = delta) and ``_pos_of`` back.  Scans
    and row materialization are per-axis products, on float64 arrays or
    on object arrays of Fractions alike; no row is expanded unless asked
    for.  The matrix is immutable and safe to share between solves.
    """

    def __init__(self, degree: Index, exact: bool = False):
        self.degree = tuple(degree)
        self.exact = exact
        dtype = object if exact else float
        self._size = math.prod(d + 1 for d in self.degree)
        self._numer, self._elevation, self._peaks = [], [], []
        total = lex = np.zeros((), dtype=np.int64)  # |K| and K's rank per position
        self._rhs = np.ones(1, dtype=dtype)
        denom = np.ones((), dtype=object)
        for d in self.degree:
            numer = np.array(
                [[math.comb(k, i) * math.comb(d - k, j - i) if i <= j <= i + d - k else 0
                  for j in range(d + 1)] for k in range(d + 1) for i in range(k + 1)],
                dtype=object,
            )
            column = np.array([math.comb(d, j) for j in range(d + 1)], dtype=object)
            self._numer.append(numer)
            self._elevation.append(
                _fraction(numer, column) if exact else (numer / column).astype(float)
            )
            denom = np.multiply.outer(denom, column)
            peaks = np.array(
                [_beta_peak(i, k, exact) for k in range(d + 1) for i in range(k + 1)],
                dtype=dtype,
            )
            self._peaks.append(peaks)
            self._rhs = np.multiply.outer(self._rhs, peaks).ravel()
            low = np.repeat(np.arange(d + 1), np.arange(1, d + 2))
            total = np.add.outer(total, low)
            lex = np.add.outer(lex * (d + 1), low)
        self._denom = denom.ravel()
        self._shape = tuple(len(r) for r in self._peaks)
        # within one K the row-major positions already run over I in lex order
        order = np.argsort((total * self._size + lex).ravel(), kind="stable")
        self.row_count = order.size - self._size  # K = delta sorts last
        self._pos_of = order[: self.row_count]
        self._row_id = np.full(order.size, -1, dtype=np.int64)
        self._row_id[self._pos_of] = np.arange(self.row_count)

    def rows(self, ids: Sequence[int]) -> list[tuple[list, object]]:
        """Materialize rows as (coefficients over J <= delta, rhs) pairs."""
        flat = self._pos_of[np.asarray(ids, dtype=np.int64)]
        per_axis = []
        for size in reversed(self._shape):
            flat, pos = np.divmod(flat, size)
            per_axis.insert(0, pos)
        coeffs = rhs = 1
        factors = self._numer if self.exact else self._elevation
        for l, (pos, d) in enumerate(zip(per_axis, self.degree)):
            shape = [-1] + [1] * len(self.degree)
            shape[l + 1] = d + 1
            coeffs = coeffs * factors[l][pos].reshape(shape)
            rhs = rhs * self._peaks[l][pos]
        coeffs = np.reshape(coeffs, (len(ids), self._size))
        if self.exact:
            nonzero = coeffs != 0
            denom = np.broadcast_to(self._denom, coeffs.shape)[nonzero]
            numer, coeffs = coeffs[nonzero], np.full(coeffs.shape, Fraction(0), dtype=object)
            coeffs[nonzero] = _fraction(numer, denom)
        return list(zip(coeffs.tolist(), rhs.tolist()))

    def scan_violations(self, z, tol, skip: set[int]) -> list[int]:
        """Ids of rows with b^(I,K) . z > rhs + tol, ascending.

        One matrix product per axis contracts that axis of z against its
        elevation rows and rotates it to the back; after the last axis
        the values lie in position order."""
        if self.exact:
            z = [Fraction(v) for v in z]
        vals = np.asarray(z, dtype=self._rhs.dtype)
        for elevation, d in zip(self._elevation, self.degree):
            vals = (elevation @ vals.reshape(d + 1, -1)).T
        ids = self._row_id[np.nonzero(vals.ravel() > self._rhs + tol)[0]]
        return [i for i in np.sort(ids[ids >= 0]).tolist() if i not in skip]


def build_cut_matrix(degree: Index, exact: bool = False) -> CutMatrix:
    """Construct the full inequality system for ``degree`` (objective-free)."""
    return CutMatrix(degree, exact)


# ---------------------------------------------------------------------------
# exactness recovery


def exactness_check(
    z: Sequence,
    degree: Index,
    mapping: Optional[AffineMap] = None,
    tol: float = 1e-7,
    exact: bool = False,
) -> Optional[tuple]:
    """Try to read a true minimizer off an optimal placeholder vector.

    Accepts iff z reproduces the basis values at the nominal point x~ (see
    ``_nominal_point``).  On acceptance the point is mapped back to
    original coordinates; on rejection ``None`` is returned, which does
    not preclude the bound being tight.
    """
    point = _nominal_point(z, degree, exact)
    if not _reproduces(z, point, degree, tol, exact):
        return None
    return (mapping or AffineMap.identity(len(degree)))(point)


def _nominal_point(z: Sequence, degree: Index, exact: bool) -> tuple:
    """x~ with x~_j = sum_I (i_j/delta_j) z_I, clipped to [0, 1] (the
    coordinate polynomials' Bernstein coefficients are exactly i_j/delta_j);
    degree-0 axes give 0.  Each sum runs over the positions in row-major
    order from 0, as one accumulation of the weighted tensor, so float
    sums round as the plain loop does."""
    zero, dtype = _field(exact)
    z = np.reshape(np.asarray(z, dtype=dtype), [d + 1 for d in degree])
    point = []
    for j, d in enumerate(degree):
        acc = zero
        if d:
            shape = [1] * len(degree)
            shape[j] = d + 1
            weights = [Fraction(i, d) if exact else i / d for i in range(d + 1)]
            terms = (np.array(weights, dtype=dtype).reshape(shape) * z).ravel()
            acc = np.add.accumulate(np.concatenate(([zero], terms)), dtype=dtype).item(terms.size)
        point.append(min(max(acc, 0), 1))
    return tuple(point)


def _reproduces(z: Sequence, point: tuple, degree: Index, tol, exact: bool) -> bool:
    """Whether z is a probability vector equal to the basis values at point."""
    total = sum(z)
    if exact:
        if total != 1 or any(v < 0 for v in z):
            return False
    elif abs(total - 1) > 1e-6 or min(z) < -1e-7:
        return False
    basis = _basis_values(point, degree, exact)
    if exact:
        return bool((np.asarray(z, dtype=object) == basis).all())
    return bool((np.abs(np.asarray(z, dtype=float) - basis) <= tol).all())


def _basis_values(point: Sequence, degree: Index, exact: bool) -> np.ndarray:
    """B_{I,delta}(x) for all I, flat row-major: the outer product of the
    per-axis values beta_{i,d}(x_l)."""
    per_axis = [
        [math.comb(d, i) * x**i * (1 - x) ** (d - i) for i in range(d + 1)]
        for x, d in zip(point, degree)
    ]
    return outer_chain(per_axis, _field(exact)[1]).ravel()


def _value_matches(bf: BernsteinForm, point, bound, exact: bool) -> bool:
    val = bernstein_eval(bf, point)
    if exact:
        return val == bound
    scale = max(1.0, abs(float(bound)))
    return abs(float(val) - float(bound)) <= _VALUE_TOL * scale


def _certify(bf, z, bound, mapping, exact) -> tuple[bool, Optional[tuple]]:
    """Exactness of a relaxation value: formal z-recovery, then cheap
    candidate points whose objective value already attains the bound."""
    mapping = mapping or AffineMap.identity(bf.dimension)
    point = _nominal_point(z, bf.degree, exact)
    if _reproduces(z, point, bf.degree, 1e-7, exact):
        return True, mapping(point)
    # the nominal point can attain the bound even when z is not unique
    candidates = [point] if any(d > 0 for d in bf.degree) else []
    half = Fraction(1, 2) if exact else 0.5
    candidates.append((half,) * bf.dimension)
    for point in candidates:
        if _value_matches(bf, point, bound, exact):
            return True, mapping(point)
    return False, None


# ---------------------------------------------------------------------------
# the relaxation levels


def relax0(bf: BernsteinForm, mapping: Optional[AffineMap] = None) -> RelaxationOutcome:
    """Level 0: the smallest Bernstein coefficient; exact iff the argmin
    index satisfies the vertex condition."""
    value, idx = min_coefficient(bf)
    is_exact = vertex_condition(bf, idx)
    witness = None
    if is_exact:
        corner = vertex_point(idx, bf.degree)
        witness = (mapping or AffineMap.identity(bf.dimension))(corner)
    return RelaxationOutcome(bound=value, exact=is_exact, witness=witness)


def _ascending(coeffs: np.ndarray) -> np.ndarray:
    """Positions by ascending coefficient, ties in position order: a stable
    sort, numpy's on float64 and Python's on Fractions (which needs fewer
    comparisons, each a Fraction comparison)."""
    if coeffs.dtype != object:
        return np.argsort(coeffs, kind="stable")
    values = coeffs.tolist()
    return np.array(sorted(range(len(values)), key=values.__getitem__), dtype=np.intp)


def _greedy_knapsack(coeffs: Sequence, u: Sequence, exact: bool) -> tuple[object, list, int]:
    """Fill the cheapest coefficients to their caps until the unit mass is
    spent; returns the bound, z, and the last variable filled.  The
    level-1 LP  min b.z, sum z = 1, 0 <= z <= u  is separable, so this
    fill is optimal; ties break by index order.

    That last variable is the one basic variable of an optimal basis of
    the level-1 LP: every other variable sits at 0 or at its cap, with
    c_j <= c_last where filled and c_j >= c_last where not.
    """
    coeffs, u = np.ravel(coeffs), np.ravel(u)
    order = _ascending(coeffs)
    remaining = Fraction(1) if exact else 1.0
    z = [Fraction(0) if exact else 0.0] * len(coeffs)
    bound = Fraction(0) if exact else 0.0
    last = int(order[0])
    for i, c, cap in zip(order.tolist(), coeffs[order].tolist(), u[order].tolist()):
        if remaining <= 0:
            break
        take = cap if cap < remaining else remaining
        z[i] = take
        bound += c * take
        remaining -= take
        last = i
    if remaining > (0 if exact else 1e-12):
        raise AssertionError("upper bounds sum below one; corner caps must be 1")
    return bound, z, last


def first_lp_bound(bf: BernsteinForm, u: Sequence):
    """Sort-and-scan dual bound for the level-1 LP (no solver call).

    With coefficients sorted ascending and caps permuted alongside, the
    value  max(b_1, b_{q+1} + sum_{j<=q} b_j u_j)  is dual feasible, where
    q is the largest prefix of nonpositive coefficients whose caps still
    fit inside the unit mass.
    """
    coeffs = bf.tensor.ravel()
    order = _ascending(coeffs)
    b, uu = coeffs[order], np.ravel(u)[order]
    b0 = b.item(0)
    if b0 >= 0:
        return b0
    last_nonpos = int(np.count_nonzero(b <= 0)) - 1  # 0-based l-1
    # running sums of the caps, added in order as a loop would; they never
    # decrease, so q counts the prefix that stays within the unit mass
    q = int(np.count_nonzero(np.add.accumulate(uu[:last_nonpos]) <= 1))
    partial = np.add.accumulate(b[:q] * uu[:q]).item(q - 1) if q else 0
    candidate = b.item(q) + partial
    return candidate if candidate > b0 else b0


def _cut_loop(bf, u, cuts, extra_rows, mapping, exact) -> RelaxationOutcome:
    """Level 1 (no ``cuts``) or level 2: the greedy fill of the level-1 LP,
    re-optimised after appending ``extra_rows`` and then, round by round,
    the rows of ``cuts`` it violates until none is left; the result is the
    optimum of the full system.  One ``simplex.CutLP`` serves the loop,
    built from the greedy basis once there is a row to append, so a bound
    with no rows builds no LP.

    An infeasible LP ends in an outcome with no bound and ``infeasible``
    set.  Float mode confirms infeasibility by re-solving the Fraction
    images of the same rows; a float verdict the exact solve refutes is
    an error rather than a pruned box.
    """
    value, z, last = _greedy_knapsack(bf.tensor, u, exact)
    tol = 0 if exact else _VIOLATION_TOL
    lp, rows = None, extra_rows
    active: list[int] = []
    active_set: set[int] = set()
    rounds = solves = pivots = 0
    while True:
        if rows:
            if lp is None:
                coeffs, caps = bf.tensor.ravel().tolist(), np.ravel(u).tolist()
                lp = simplex.CutLP(coeffs, caps, z, last, exact)
            lp.append_rows(rows)
            sol = simplex.solve(lp)
            solves += 1
            pivots += sol.iterations
            if sol.status == simplex.INFEASIBLE and not exact:
                check = simplex.solve(lp.exact_image())
                solves += 1
                pivots += check.iterations
                if check.status != simplex.INFEASIBLE:
                    raise RuntimeError(
                        f"float LP reported infeasible, exact re-solve ended {check.status}"
                    )
            if sol.status == simplex.INFEASIBLE:
                return RelaxationOutcome(
                    bound=None, activated_rows=tuple(active), iterations=rounds,
                    infeasible=True, lp_solves=solves, pivots=pivots,
                    lp_fallbacks=lp.fallbacks,
                )
            if sol.status != simplex.OPTIMAL:
                raise RuntimeError(f"LP ended with status {sol.status}")
            value, z = sol.value, sol.z
        if cuts is None:
            break
        rounds += 1
        violated = cuts.scan_violations(z, tol, active_set)
        if not violated:
            break
        active.extend(violated)
        active_set.update(violated)
        rows = cuts.rows(violated)
    is_exact, witness = (False, None) if extra_rows else _certify(bf, z, value, mapping, exact)
    return RelaxationOutcome(
        bound=value, z=z, activated_rows=tuple(active), exact=is_exact, witness=witness,
        iterations=rounds, lp_solves=solves, pivots=pivots,
        lp_fallbacks=lp.fallbacks if lp else 0,
    )


# ---------------------------------------------------------------------------
# level dispatch used by the branch-and-bound driver and the CLI


def bound_at_level(
    bf: BernsteinForm,
    level: str,
    u: Optional[Sequence] = None,
    cuts: Optional[CutMatrix] = None,
    extra_rows: Sequence = (),
    mapping: Optional[AffineMap] = None,
    exact: bool = False,
) -> RelaxationOutcome:
    """Compute the bound of one relaxation level on a unit-box form: the
    one entry point to every level.  ``u`` defaults to the caps of the
    form's degree, and ``cuts``, read at level 2 only, to its full cut
    matrix."""
    if level == LEVEL_0:
        out = relax0(bf, mapping)
        if extra_rows:
            # constraint rows cannot weaken a box bound; drop certificates
            out = RelaxationOutcome(bound=out.bound)
        return out
    if u is None:
        u = upper_bounds(bf.degree, exact=exact)
    if level == LEVEL_FIRST:
        return RelaxationOutcome(bound=first_lp_bound(bf, u))
    if level == LEVEL_1:
        return _cut_loop(bf, u, None, extra_rows, mapping, exact)
    if level == LEVEL_2:
        if cuts is None:
            cuts = build_cut_matrix(bf.degree, exact)
        return _cut_loop(bf, u, cuts, extra_rows, mapping, exact)
    raise ValueError(f"unknown level {level!r}")
