"""The bounded dual simplex behind every relaxation LP.

``CutLP`` holds the level-1 LP ``min c.z, sum z = 1, 0 <= z <= u`` plus
inequality rows appended one batch at a time, and re-optimises in place
with a bounded dual simplex (bounds are never rows) from the greedy
knapsack basis, which is dual feasible; each appended row enters with its
slack basic, which keeps it so.  Most cut rows stay loose, so only the
working basis ``W = A[T, Q]`` is factored: T holds the tight rows (the
unit-mass row and each row whose slack is nonbasic) and Q the basic
structural columns, |T| = |Q| = k.  The loose rows' slacks, the duals
``y_T = c_Q W^-1`` and the tableau rows follow from ``W^-1``; a pivot
updates it in O(k^2), and appending rows leaves it as it is.  One engine
serves both fields (a ``bernstein.Field``, fixed when the LP is built):

* float mode refactorizes W every 64 pivots, and a solve that pivoted
  confirms its optimum on a fresh factorization.  Only an optimal float
  verdict stands.  A solve that fails its dual-feasibility check or
  reaches its pivot cap is a fallback: the LP is rebuilt from its greedy
  start with every row appended at once and re-optimised.  One that still
  fails, or that ends infeasible, returns its exact image's verdict (far
  slower on big LPs): the optimum in floats, or infeasibility.
* exact mode works on object arrays of Fractions with zero tolerances and
  a Bland-style rule, and never refactorizes: its updates are exact.

``solve`` re-optimises a ``CutLP`` in place, to ``OPTIMAL`` or
``INFEASIBLE``; the relaxations call it, not ``CutLP.reoptimize``, so
that one binding sees every LP solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bernstein import EXACT, Field

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
_FAILED = "failed"  # a float solve to redo (see CutLP.reoptimize)

_FEAS_TOL = 1e-8
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10


@dataclass
class LPSolution:
    status: str
    value: object = None
    z: Optional[list] = None
    iterations: int = 0


def solve(lp: "CutLP") -> LPSolution:
    """Re-optimise ``lp`` in place in its own arithmetic: ``OPTIMAL`` or
    ``INFEASIBLE``, and ``iterations`` are the pivots of this call, those
    of a restart and of an exact image included."""
    return lp.reoptimize()


class CutLP:
    """``min c.z, sum z = 1, 0 <= z <= u`` plus rows ``a.z <= b`` appended
    over its life, kept at an optimal basis by a bounded dual simplex.
    ``start`` is a vertex of the level-1 LP whose one basic variable is
    ``basic`` and whose other nonzero entries sit at their caps; the caller
    guarantees that this basis is dual feasible, i.e. ``c_j <= c_basic``
    where ``z_j`` is at its cap and ``c_j >= c_basic`` where it is 0 (the
    greedy knapsack fill has this property).  Every variable, slacks
    included, has lower bound 0; slacks have no upper bound.  Columns are
    the n structural variables followed by one slack per appended row (row
    i's slack is column n + i - 1); row 0 is the unit-mass equality.  ``A``
    and ``h`` hold the rows over the structural variables, and ``w_inv`` is
    ``A[T, Q]^-1`` for T = ``tight`` (row 0 first) and Q = ``cols``.
    """

    def __init__(self, c: Sequence, upper: Sequence, start: Sequence, basic: int, F: Field):
        self.field, self.exact = F, F.exact
        self.n, self.fallbacks = len(c), 0
        self._start = (list(c), list(upper), list(start), basic)
        self._restart()

    def _restart(self) -> None:
        """Return to the start basis with no rows appended."""
        F = self.field
        c, upper, start, basic = self._start
        self.c, self.hi = F.array(c), F.array(upper)
        self.A = np.full((1, self.n), F.one, dtype=F.dtype)
        self.h = np.full(1, F.one, dtype=F.dtype)
        self.tight, self.cols = np.array([0]), np.array([basic])
        self.w_inv = np.full((1, 1), F.one, dtype=F.dtype)
        self.is_basic = np.arange(self.n) == basic
        self.at_upper = np.array([j != basic and v != 0 for j, v in enumerate(start)])
        self.x = np.where(self.at_upper, self.hi, F.zero)
        self.x[basic] = self.h[0] - self.x.sum()
        self.d = self.c - self.c[basic]

    @property
    def row_count(self) -> int:
        """Appended inequality rows (the unit-mass row not counted)."""
        return len(self.h) - 1

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The appended rows as one block (a, b): their coefficients over the
        structural variables and their right-hand sides (read-only views)."""
        return self.A[1:], self.h[1:]

    def append_rows(self, a, b) -> None:
        """Append the rows ``a[i].z <= b[i]`` of a block (a k x n matrix and
        k right-hand sides, converted into the LP's field), each with its
        slack basic: they join the loose rows, so ``w_inv`` is unchanged."""
        F, a, b = self.field, self.field.array(a), self.field.array(b)
        if not (k := len(b)):
            return
        self.A = np.concatenate([self.A, a])
        self.h = np.concatenate([self.h, b])
        self.x = np.concatenate([self.x, b - a @ self.x[: self.n]])
        self.d = np.concatenate([self.d, np.zeros(k, dtype=F.dtype)])
        self.hi = np.concatenate([self.hi, np.full(k, np.inf, dtype=self.hi.dtype)])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.is_basic = np.concatenate([self.is_basic, np.ones(k, dtype=bool)])

    def exact_image(self) -> "CutLP":
        """The same LP, start and rows in Fractions (floats convert exactly)."""
        c, upper, start, basic = self._start
        image = CutLP(c, upper, start, basic, EXACT)
        image.append_rows(*self.rows)
        return image

    def reoptimize(self) -> LPSolution:
        """Run the dual simplex from the current basis to an optimum or a
        proof of infeasibility; a float verdict other than optimal is redone
        or handed to the exact image (see above), a failed one counted in
        ``fallbacks``."""
        sol = self._dual_simplex()
        pivots = sol.iterations
        if sol.status == _FAILED:
            self.fallbacks, rows = self.fallbacks + 1, self.rows
            self._restart()
            self.append_rows(*rows)
            sol = self._dual_simplex()
            pivots += sol.iterations
        if sol.status != OPTIMAL and not self.exact:
            sol = self.exact_image().reoptimize()
            pivots += sol.iterations
            if sol.status == OPTIMAL:
                sol.value, sol.z = float(sol.value), [float(v) for v in sol.z]
        sol.iterations = pivots
        return sol

    def _dual_simplex(self) -> LPSolution:
        """Pivot to an optimum or a proof of infeasibility; a float solve that
        fails its dual-feasibility check or hits the pivot cap ends ``_FAILED``,
        and an exact one that hits the cap raises."""
        pivots = since_factor = 0
        cap = 50 * (len(self.h) + len(self.x))
        while True:
            leaving, q = self._leaving(), None
            if leaving is not None and pivots >= cap:
                if self.exact:  # Bland's rule cannot cycle: an engine fault
                    raise RuntimeError(f"exact dual simplex reached its pivot cap of {cap}")
                return LPSolution(_FAILED, iterations=pivots)
            if leaving is not None:
                alpha, rho = self._tableau_row(leaving)
                q = self._entering(leaving, alpha)
            if q is None:
                if not self.exact and since_factor:  # confirm on a fresh factorization
                    self._refactor()
                    since_factor = 0
                elif leaving is not None:
                    return LPSolution(INFEASIBLE, iterations=pivots)
                elif self.exact or self._dual_feasible():
                    return self._solution(pivots)
                else:
                    return LPSolution(_FAILED, iterations=pivots)
                continue
            stable = self._pivot(leaving, q, alpha, rho)
            pivots += 1
            since_factor += 1
            if not self.exact and (not stable or since_factor >= 64):
                self._refactor()
                since_factor = 0

    def _refactor(self) -> None:
        """Float mode: invert W afresh; recompute basic values and duals."""
        n, T, Q = self.n, self.tight, self.cols
        A_T = self.A.take(T, 0)
        try:
            self.w_inv = np.linalg.inv(A_T.take(Q, 1))
        except np.linalg.LinAlgError:
            self.w_inv = np.linalg.pinv(A_T.take(Q, 1))
        z = np.where(self.is_basic[:n], 0.0, self.x[:n])
        self.x[Q] = self.w_inv @ (self.h.take(T) - A_T @ z)
        self.x[n:] = np.where(self.is_basic[n:], self.h[1:] - self.A[1:] @ self.x[:n], 0.0)
        y = self.c.take(Q) @ self.w_inv  # basic variables' entries of d are never read
        self.d[n - 1 :][T] = -y  # row 0's entry lands on column n - 1 ...
        self.d[:n] = self.c - y @ A_T  # ... and is overwritten here

    def _leaving(self) -> Optional[int]:
        """A primal-infeasible basic variable, or None: the largest
        violation in float mode, the smallest index in exact mode."""
        if self.exact:
            basic = self.is_basic.nonzero()[0]
            xb = self.x[basic]
            bad = basic[(xb < 0) | (xb > self.hi[basic])]
            return int(bad[0]) if bad.size else None
        # nonbasic variables sit exactly at a bound, where this reads 0
        viol = np.maximum(-self.x, self.x - self.hi)
        j = int(viol.argmax())
        return j if viol[j] > _FEAS_TOL else None

    def _tableau_row(self, leaving: int) -> tuple[np.ndarray, np.ndarray]:
        """The tableau row of basic ``leaving``, and rho, the row of the full
        basis inverse it comes from, over T: a row of ``w_inv`` for a
        structural, ``-A[i, Q] w_inv`` (and a 1 at i) for a loose row's slack."""
        F, n = self.field, self.n
        alpha = np.zeros(len(self.x), dtype=F.dtype)  # exact zeros in both fields
        if leaving < n:
            rho = self.w_inv[self.cols.tolist().index(leaving)]
        else:
            rho = -(self.A[leaving - n + 1].take(self.cols) @ self.w_inv)
        alpha[n - 1 :][self.tight] = rho  # row 0's entry lands on column n - 1 ...
        np.matmul(rho, self.A.take(self.tight, 0), out=alpha[:n])  # ... and is overwritten
        if leaving >= n:
            alpha[:n] += self.A[leaving - n + 1]
            alpha[leaving] = F.one
        return alpha, rho

    def _entering(self, leaving: int, alpha: np.ndarray) -> Optional[int]:
        """Dual ratio test on row ``alpha`` of the tableau; None when no
        nonbasic variable can move the leaving one toward its bound."""
        tol = self.field.tol(_PIVOT_TOL)
        up = self.x[leaving] < 0  # the leaving variable must increase
        # alpha signed by the direction each variable can move (negated at an
        # upper bound): candidates lie below -tol (up) or above tol (down)
        signed = np.where(self.at_upper, -alpha, alpha)
        movable = ~self.is_basic & (self.hi != 0)
        cand = (movable & (signed < -tol if up else signed > tol)).nonzero()[0]
        if not cand.size:
            return None
        dd = np.where(self.at_upper[cand], -self.d[cand], self.d[cand])
        size = np.abs(alpha[cand])
        if self.exact:
            return int(cand[(dd / size).argmin()])  # ties: smallest index
        ratios = np.maximum(dd, 0.0) / size
        ties = (ratios <= ratios.min() + 1e-12).nonzero()[0]
        return int(cand[ties[size[ties].argmax()]])  # ties: largest pivot

    def _pivot(self, leaving: int, q: int, alpha: np.ndarray, rho: np.ndarray) -> bool:
        """Swap basic ``leaving`` for nonbasic ``q`` in ``w_inv``, the full
        basis inverse on rows Q and columns T: bordered by a leaving loose
        slack's row (rho, 1), pivoted in product form, and shrunk by an
        entering tight slack's row and column.  Returns whether the pivot
        element was large enough for a product-form update."""
        F, n, T, Q, inv = self.field, self.n, self.tight, self.cols, self.w_inv
        up = self.x[leaving] < 0
        theta = self.d[q] / alpha[q]
        self.d -= theta * alpha
        self.d[leaving], self.d[q], k = -theta, F.zero, len(Q)
        if leaving < n:
            r = Q.tolist().index(leaving)
        else:
            r = k
            inv = np.empty((k + 1, k + 1), dtype=F.dtype)
            inv[:k, :k], inv[:k, k], inv[k, :k], inv[k, k] = self.w_inv, F.zero, rho, F.one
            T, Q = np.concatenate((T, [leaving - n + 1])), np.concatenate((Q, [leaving]))
        t = None if q < n else T.tolist().index(q - n + 1)  # q's tight row
        col = inv @ self.A[:, q].take(T) if q < n else inv[:, t].copy()
        piv, target = col[r], (F.zero if up else self.hi[leaving])
        step = (self.x[leaving] - target) / piv
        # basic structurals move by -step * col, loose rows' slacks by step * act
        act = self.A.take(self.cols, 1) @ col[:k]
        if q < n:
            act -= self.A[:, q]
        slacks = self.x[n:]
        np.add(slacks, step * act[1:], out=slacks, where=self.is_basic[n:])
        self.x[self.cols] -= step * col[:k]
        self.x[q], self.x[leaving] = self.x[q] + step, target
        self.is_basic[q], self.is_basic[leaving] = True, False
        self.at_upper[q], self.at_upper[leaving] = False, not up
        row = inv[r] / piv
        inv -= col[:, None] * row
        inv[r], Q[r] = row, q
        if q >= n:  # drop row r and column t: the last ones take their place
            inv[r], inv[:, t], Q[r], T[t] = inv[-1], inv[:, -1], Q[-1], T[-1]
            inv, Q, T = inv[:-1, :-1], Q[:-1], T[:-1]
        self.w_inv, self.tight, self.cols = inv, T, Q
        return self.exact or abs(piv) > 1e-7

    def _dual_feasible(self) -> bool:
        tol = _COST_TOL * max(1.0, float(np.abs(self.c).max()))
        movable = ~self.is_basic & (self.hi != 0)
        wrong = np.where(self.at_upper, self.d > tol, self.d < -tol)
        return not (movable & wrong).any()

    def _solution(self, pivots: int) -> LPSolution:
        z = self.x[: self.n]
        return LPSolution(OPTIMAL, self.field.of(self.c @ z), z.tolist(), pivots)
