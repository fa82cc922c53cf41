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
relaxation degree (linear constraints are degree-1 polynomials).  Every
LP is a ``simplex.CutLP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import simplex
from .bernstein import (
    BernsteinForm,
    _beta_peak,
    iter_indices,
    min_coefficient,
    ravel_index,
    tensor_size,
    univariate_elevation,
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

    One row per pair (I, K) with I <= K <= delta and K != delta.  Rows are
    ordered by (|K|, K lex, I lex).  Lower-bound rows 0 <= b^(I,K) . z are
    omitted (the coefficients are nonnegative and z >= 0 already), and the
    per-K unit-partition equalities are implied by sum z = 1 because every
    elevation column sums to one.

    The matrix is immutable and safe to share between concurrent solves;
    float mode keeps only per-axis elevation factors and expands Kronecker
    products on demand.
    """

    def __init__(self, degree: Index, exact: bool = False):
        self.degree = tuple(degree)
        self.exact = exact
        self._blocks = []  # (K, per-axis elevation matrices, rhs vector, offset)
        offset = 0
        lows = sorted(
            (k for k in iter_indices(self.degree) if k != self.degree),
            key=lambda k: (sum(k), k),
        )
        for low in lows:
            size = tensor_size(low)
            if exact:
                axes = [
                    univariate_elevation(k, d, exact=True)
                    for k, d in zip(low, self.degree)
                ]
            else:
                axes = [
                    np.array(univariate_elevation(k, d), dtype=float)
                    for k, d in zip(low, self.degree)
                ]
            rhs = []
            for idx in iter_indices(low):
                w = Fraction(1) if exact else 1.0
                for i, k in zip(idx, low):
                    w *= _beta_peak(i, k, exact)
                rhs.append(w)
            self._blocks.append((low, axes, rhs, offset))
            offset += size
        self.row_count = offset
        self._pairs: list[tuple[Index, Index]] = []
        for low, _, _, _ in self._blocks:
            for idx in iter_indices(low):
                self._pairs.append((idx, low))
        # small systems are expanded to one dense matrix so every scan is a
        # single matvec; big ones stay as per-axis Kronecker factors
        self._dense = None
        self._dense_rhs = None
        if not exact and self.row_count * tensor_size(self.degree) <= 5_000_000:
            chunks, rhs_all = [], []
            for low, axes, rhs, _ in self._blocks:
                block = axes[0]
                for ax in axes[1:]:
                    block = np.kron(block, ax)
                chunks.append(block.reshape(tensor_size(low), tensor_size(self.degree)))
                rhs_all.extend(rhs)
            if chunks:
                self._dense = np.vstack(chunks)
                self._dense_rhs = np.asarray(rhs_all, dtype=float)

    def pair(self, row_id: int) -> tuple[Index, Index]:
        """(I, K) for a global row id."""
        return self._pairs[row_id]

    def row(self, row_id: int) -> tuple[list, object]:
        """Materialize one row as (coefficients over J <= delta, rhs)."""
        if self._dense is not None:
            return self._dense[row_id].tolist(), float(self._dense_rhs[row_id])
        idx, low = self._pairs[row_id]
        for blk_low, axes, rhs, offset in self._blocks:
            if blk_low == low:
                local = ravel_index(idx, low)
                if self.exact:
                    per_axis = [ax[i] for ax, i in zip(axes, idx)]
                    coeffs = []
                    for jdx in iter_indices(self.degree):
                        w = Fraction(1)
                        for l, j in enumerate(jdx):
                            w *= per_axis[l][j]
                        coeffs.append(w)
                else:
                    vec = np.array([1.0])
                    for ax, i in zip(axes, idx):
                        vec = np.kron(vec, ax[i])
                    coeffs = vec.tolist()
                return coeffs, rhs[local]
        raise IndexError(row_id)

    def scan_violations(self, z, tol, skip: set[int]) -> list[int]:
        """Ids of rows with b^(I,K) . z > rhs + tol, in canonical order."""
        out = []
        if self.exact:
            z = [Fraction(v) for v in z]
            for row_id in range(self.row_count):
                if row_id in skip:
                    continue
                coeffs, rhs = self.row(row_id)
                lhs = sum(c * v for c, v in zip(coeffs, z) if c != 0)
                if lhs > rhs + tol:
                    out.append(row_id)
            return out
        if self._dense is not None:
            zv = np.asarray(z, dtype=float)
            bad = np.nonzero(self._dense @ zv > self._dense_rhs + tol)[0]
            return [int(i) for i in bad if int(i) not in skip]
        zt = np.asarray(z, dtype=float).reshape([d + 1 for d in self.degree])
        for low, axes, rhs, offset in self._blocks:
            vals = zt
            for l, ax in enumerate(axes):
                vals = np.moveaxis(np.tensordot(ax, vals, axes=(1, l)), 0, l)
            flat = vals.ravel()
            bad = np.nonzero(flat > np.asarray(rhs, dtype=float) + tol)[0]
            for local in bad:
                row_id = offset + int(local)
                if row_id not in skip:
                    out.append(row_id)
        return out


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
    degree-0 axes give 0."""
    point = []
    for j, d in enumerate(degree):
        acc = Fraction(0) if exact else 0.0
        if d:
            for pos, idx in enumerate(iter_indices(degree)):
                if z[pos]:
                    acc += (Fraction(idx[j], d) if exact else idx[j] / d) * z[pos]
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
        return all(v == b for v, b in zip(z, basis))
    return all(abs(v - b) <= tol for v, b in zip(z, basis))


def _basis_values(point: Sequence, degree: Index, exact: bool) -> list:
    """B_{I,delta}(x) for all I, flat row-major."""
    import math as _math

    per_axis = []
    for x, d in zip(point, degree):
        col = []
        for i in range(d + 1):
            col.append(_math.comb(d, i) * x**i * (1 - x) ** (d - i))
        per_axis.append(col)
    out = []
    for idx in iter_indices(degree):
        w = Fraction(1) if exact else 1.0
        for l, i in enumerate(idx):
            w *= per_axis[l][i]
        out.append(w)
    return out


def _value_matches(bf: BernsteinForm, point, bound, exact: bool) -> bool:
    from .bernstein import bernstein_eval

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
# the three relaxations


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


def _greedy_knapsack(coeffs: Sequence, u: Sequence, exact: bool) -> tuple[object, list, int]:
    """Fill the cheapest coefficients to their caps until the unit mass is
    spent; returns the bound, z, and the last variable filled.

    That last variable is the one basic variable of an optimal basis of
    the level-1 LP: every other variable sits at 0 or at its cap, with
    c_j <= c_last where filled and c_j >= c_last where not.
    """
    order = sorted(range(len(coeffs)), key=lambda i: (coeffs[i], i))
    remaining = Fraction(1) if exact else 1.0
    z = [Fraction(0) if exact else 0.0] * len(coeffs)
    bound = Fraction(0) if exact else 0.0
    last = order[0]
    for i in order:
        if remaining <= 0:
            break
        take = u[i] if u[i] < remaining else remaining
        z[i] = take
        bound += coeffs[i] * take
        remaining -= take
        last = i
    if remaining > (0 if exact else 1e-12):
        raise AssertionError("upper bounds sum below one; corner caps must be 1")
    return bound, z, last


def relax1(
    bf: BernsteinForm,
    u: Sequence,
    mapping: Optional[AffineMap] = None,
    exact: bool = False,
) -> RelaxationOutcome:
    """Level 1 via the continuous-knapsack greedy.

    The LP  min b.z, sum z = 1, 0 <= z <= u  is separable, so filling the
    cheapest coefficients to their caps is optimal; ties break by index
    order.  Corner caps equal one, hence sum(u) >= 1 always.
    """
    bound, z, _ = _greedy_knapsack(bf.coeffs, u, exact)
    is_exact, witness = _certify(bf, z, bound, mapping, exact)
    return RelaxationOutcome(bound=bound, z=z, exact=is_exact, witness=witness)


def first_lp_bound(bf: BernsteinForm, u: Sequence):
    """Sort-and-scan dual bound for the level-1 LP (no solver call).

    With coefficients sorted ascending and caps permuted alongside, the
    value  max(b_1, b_{q+1} + sum_{j<=q} b_j u_j)  is dual feasible, where
    q is the largest prefix of nonpositive coefficients whose caps still
    fit inside the unit mass.
    """
    coeffs = bf.coeffs
    order = sorted(range(len(coeffs)), key=lambda i: (coeffs[i], i))
    b = [coeffs[i] for i in order]
    uu = [u[i] for i in order]
    if b[0] >= 0:
        return b[0]
    n = len(b)
    last_nonpos = max(i for i in range(n) if b[i] <= 0)  # 0-based l-1
    q = 0
    acc = 0
    for i in range(last_nonpos):  # i+1 <= l-1 in 1-based terms
        if acc + uu[i] <= 1:
            acc += uu[i]
            q = i + 1
        else:
            break
    partial = sum(b[j] * uu[j] for j in range(q))
    candidate = b[q] + partial
    return candidate if candidate > b[0] else b[0]


def relax1_lp(
    bf: BernsteinForm,
    u: Sequence,
    extra_rows: Sequence = (),
    mapping: Optional[AffineMap] = None,
    exact: bool = False,
) -> RelaxationOutcome:
    """Level 1 with side constraints: the greedy basis re-optimised after
    appending ``extra_rows`` (the zero-round case of the level-2 loop)."""
    return _cut_loop(bf, u, None, extra_rows, mapping, exact, 0)


def relax2_iterative(
    bf: BernsteinForm,
    u: Sequence,
    cuts: CutMatrix,
    extra_rows: Sequence = (),
    mapping: Optional[AffineMap] = None,
    exact: bool = False,
    violation_tol: Optional[float] = None,
) -> RelaxationOutcome:
    """Level 2 by on-demand row generation.

    Starts from the level-1 LP, then repeatedly moves every violated
    elevation row into the working set until the optimum satisfies the
    whole system; the result equals the optimum of the full LP.
    One ``simplex.CutLP`` lives for the whole loop: it starts from the
    greedy basis and each round's rows are appended to it and re-optimised
    in place by the dual simplex.
    """
    if violation_tol is None:
        violation_tol = 0 if exact else _VIOLATION_TOL
    return _cut_loop(bf, u, cuts, extra_rows, mapping, exact, violation_tol)


def _cut_loop(bf, u, cuts, extra_rows, mapping, exact, violation_tol) -> RelaxationOutcome:
    """Solve the level-1 LP plus ``extra_rows``, then (when ``cuts`` is
    given) add violated rows of ``cuts`` until none is left.

    An infeasible LP ends in an outcome with no bound and ``infeasible``
    set.  Float mode confirms infeasibility by re-solving the Fraction
    images of the same rows; a float verdict the exact solve refutes is
    an error rather than a pruned box.
    """
    bound, z, last = _greedy_knapsack(bf.coeffs, u, exact)
    lp = simplex.CutLP(bf.coeffs, u, z, last, exact)
    lp.append_rows(extra_rows)
    sol = simplex.LPSolution(simplex.OPTIMAL, value=bound, z=z)
    active: list[int] = []
    active_set: set[int] = set()
    rounds = solves = pivots = 0
    while True:
        if lp.row_count:  # otherwise the greedy fill is the optimum
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
        if cuts is None:
            break
        rounds += 1
        violated = cuts.scan_violations(sol.z, violation_tol, active_set)
        if not violated:
            break
        active.extend(violated)
        active_set.update(violated)
        lp.append_rows([cuts.row(i) for i in violated])
    is_exact, witness = (
        _certify(bf, sol.z, sol.value, mapping, exact) if not extra_rows else (False, None)
    )
    return RelaxationOutcome(
        bound=sol.value,
        z=sol.z,
        activated_rows=tuple(active),
        exact=is_exact,
        witness=witness,
        iterations=rounds,
        lp_solves=solves,
        pivots=pivots,
        lp_fallbacks=lp.fallbacks,
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
    """Compute the bound of one relaxation level on a unit-box form."""
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
        if extra_rows:
            return relax1_lp(bf, u, extra_rows, mapping, exact)
        return relax1(bf, u, mapping, exact)
    if level == LEVEL_2:
        if cuts is None:
            cuts = build_cut_matrix(bf.degree, exact)
        return relax2_iterative(bf, u, cuts, extra_rows, mapping, exact)
    raise ValueError(f"unknown level {level!r}")
