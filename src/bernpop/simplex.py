"""The bounded dual simplex behind every relaxation LP.

Small LPs only: the relaxations produce problems with a few hundred
variables and at most a few hundred rows, so the engine keeps an explicit
basis inverse.  Variable bounds are handled implicitly (never as rows).

``CutLP`` holds the level-1 LP ``min c.z, sum z = 1, 0 <= z <= u`` plus
inequality rows appended one batch at a time, and re-optimises in place
with a bounded dual simplex.  It starts from the greedy knapsack basis,
which is dual feasible; each appended row enters with its slack basic,
which keeps it dual feasible, and the basis inverse grows by a block
formula.  Pivots update the inverse in product form and the entering
column is chosen by a vectorised dual ratio test.  The same engine runs
in both fields (a ``bernstein.Field``, fixed when the LP is built):

* float mode refactorizes every 64 pivots, and a solve that pivoted
  confirms its optimum on a fresh factorization before it returns.  The
  next solve starts from that inverse, extended by the block formula for
  the rows appended since, so it does not refactorize on entry.  A solve
  that fails its dual-feasibility check or reaches its pivot cap is a
  fallback: the LP is rebuilt from its greedy start with every row
  appended at once, whose block-formula inverse is exact, and
  re-optimised.  Only if that fails too is the exact image solved, and
  its optimum returned in floats; the exact image is far slower on big
  LPs, so it is never the first resort.
* exact mode works on object arrays of Fractions with zero tolerances and
  a Bland-style rule, and never refactorizes: product-form updates are
  exact.

``solve`` re-optimises a ``CutLP`` in place; the relaxations call it, not
``CutLP.reoptimize``, so that one binding sees every LP solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bernstein import EXACT, Field

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
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
    """Re-optimise ``lp`` in place in its own arithmetic; statuses are
    returned, never raised, and ``iterations`` are the pivots of this call."""
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
    the n structural variables followed by one slack per appended row; row
    0 is the unit-mass equality.
    """

    def __init__(self, c: Sequence, upper: Sequence, start: Sequence, basic: int, F: Field):
        self.field, self.exact = F, F.exact
        self.n = len(c)
        self.fallbacks = 0
        self._start = (list(c), list(upper), list(start), basic)
        self._restart()

    def _restart(self) -> None:
        """Return to the start basis with no rows appended."""
        F = self.field
        c, upper, start, basic = self._start
        self.c, self.hi = F.array(c), F.array(upper)
        self.G = np.full((1, self.n), F.one, dtype=F.dtype)
        self.h = np.full(1, F.one, dtype=F.dtype)
        self.basis = np.array([basic])
        self.is_basic = np.zeros(self.n, dtype=bool)
        self.is_basic[basic] = True
        self.at_upper = np.array([j != basic and v != 0 for j, v in enumerate(start)])
        self.x = np.where(self.at_upper, self.hi, F.zero)
        self.x[basic] = self.h[0] - self.x.sum()
        self.b_inv = np.full((1, 1), F.one, dtype=F.dtype)
        self.d = self.c - self.c[basic]

    @property
    def row_count(self) -> int:
        """Appended inequality rows (the unit-mass row not counted)."""
        return self.G.shape[0] - 1

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The appended rows as one block (a, b): their coefficients over the
        structural variables, one row each, and their right-hand sides
        (views of the LP's own arrays, to read, not to write)."""
        return self.G[1:, : self.n], self.h[1:]

    def append_rows(self, a, b) -> None:
        """Append the rows ``a[i].z <= b[i]`` of a block (a k x n matrix and
        k right-hand sides, converted into the LP's field), each with its
        slack basic; the inverse grows by ``[[B^-1, 0], [-A_B B^-1, I]]``."""
        F = self.field
        a, b = F.array(a), F.array(b)
        k = len(b)
        if not k:
            return
        m, cols = self.G.shape
        eye = np.full((k, k), F.zero, dtype=F.dtype)
        np.fill_diagonal(eye, F.one)
        g = np.full((m + k, cols + k), F.zero, dtype=F.dtype)
        g[:m, :cols] = self.G
        g[m:, : self.n] = a
        g[m:, cols:] = eye
        b_inv = np.full((m + k, m + k), F.zero, dtype=F.dtype)
        b_inv[:m, :m] = self.b_inv
        b_inv[m:, :m] = -(g[m:, self.basis] @ self.b_inv)
        b_inv[m:, m:] = eye
        self.G, self.b_inv = g, b_inv
        self.h = np.concatenate([self.h, b])
        self.x = np.concatenate([self.x, b - a @ self.x[: self.n]])
        zeros = np.full(k, F.zero, dtype=F.dtype)
        self.c = np.concatenate([self.c, zeros])
        self.d = np.concatenate([self.d, zeros])
        self.hi = np.concatenate([self.hi, np.full(k, np.inf, dtype=self.hi.dtype)])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.is_basic = np.concatenate([self.is_basic, np.ones(k, dtype=bool)])
        self.basis = np.concatenate([self.basis, np.arange(cols, cols + k)])

    def exact_image(self) -> "CutLP":
        """The same LP in Fractions (floats convert exactly), from the same
        start and with the same rows."""
        c, upper, start, basic = self._start
        image = CutLP(c, upper, start, basic, EXACT)
        image.append_rows(*self.rows)
        return image

    def reoptimize(self) -> LPSolution:
        """Run the dual simplex from the current basis to an optimum.

        A float solve that fails is counted in ``fallbacks`` and redone
        from the start basis with every row appended at once; if that
        fails as well, the exact image is solved and its optimum returned
        in floats."""
        sol = self._dual_simplex()
        if sol.status != _FAILED:
            return sol
        self.fallbacks += 1
        pivots = sol.iterations
        rows = self.rows
        self._restart()
        self.append_rows(*rows)
        sol = self._dual_simplex()
        pivots += sol.iterations
        if sol.status == _FAILED:
            sol = self.exact_image().reoptimize()
            pivots += sol.iterations
            if sol.status == OPTIMAL:
                sol.value, sol.z = float(sol.value), [float(v) for v in sol.z]
        sol.iterations = pivots
        return sol

    def _dual_simplex(self) -> LPSolution:
        """Pivot to an optimum or a proof of infeasibility.  A float solve
        that fails its dual-feasibility check or reaches the pivot cap ends
        with the private status ``_FAILED``."""
        pivots = since_factor = 0
        cap = 50 * (self.G.shape[0] + self.G.shape[1])
        while True:
            r = self._leaving_row()
            if r is None:
                if self.exact:
                    return self._solution(pivots)
                if since_factor:  # confirm on a fresh factorization
                    self._refactor()
                    since_factor = 0
                    continue
                if not self._dual_feasible():
                    return LPSolution(_FAILED, iterations=pivots)
                return self._solution(pivots)
            if pivots >= cap:
                status = ITERATION_LIMIT if self.exact else _FAILED
                return LPSolution(status, iterations=pivots)
            alpha = self.b_inv[r] @ self.G
            q = self._entering(r, alpha)
            if q is None:
                if not self.exact and since_factor:
                    self._refactor()
                    since_factor = 0
                    continue
                return LPSolution(INFEASIBLE, iterations=pivots)
            stable = self._pivot(r, q, alpha)
            pivots += 1
            since_factor += 1
            if not self.exact and (not stable or since_factor >= 64):
                self._refactor()
                since_factor = 0

    def _refactor(self) -> None:
        """Float mode: recompute the inverse, basic values and reduced costs."""
        B = self.G[:, self.basis]
        try:
            self.b_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            self.b_inv = np.linalg.pinv(B)
        nb = ~self.is_basic
        self.x[self.basis] = self.b_inv @ (self.h - self.G[:, nb] @ self.x[nb])
        self.d = self.c - (self.c[self.basis] @ self.b_inv) @ self.G
        self.d[self.basis] = 0.0

    def _leaving_row(self) -> Optional[int]:
        """Basis position of a primal-infeasible basic variable, or None:
        the largest violation in float mode, the smallest variable index
        in exact mode."""
        xb = self.x[self.basis]
        if self.exact:
            bad = ((xb < 0) | (xb > self.hi[self.basis])).nonzero()[0]
            if not bad.size:
                return None
            return int(bad[self.basis[bad].argmin()])
        viol = np.maximum(-xb, xb - self.hi[self.basis])
        r = int(viol.argmax())
        return r if viol[r] > _FEAS_TOL else None

    def _entering(self, r: int, alpha: np.ndarray) -> Optional[int]:
        """Dual ratio test on row ``alpha`` of the tableau; None when no
        nonbasic variable can move the leaving one toward its bound."""
        tol = self.field.tol(_PIVOT_TOL)
        up = self.x[self.basis[r]] < 0  # the leaving variable must increase
        # alpha signed by the direction each variable can move, negated at
        # an upper bound: the candidates are the entries below -tol (up) or
        # above tol (down)
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

    def _pivot(self, r: int, q: int, alpha: np.ndarray) -> bool:
        """Swap basic ``basis[r]`` for nonbasic ``q``; returns whether the
        pivot element was large enough for a product-form update."""
        leaving = self.basis[r]
        up = self.x[leaving] < 0
        theta = self.d[q] / alpha[q]
        self.d -= theta * alpha
        self.d[self.basis] = self.field.zero
        self.d[leaving] = -theta
        self.d[q] = self.field.zero
        col = self.b_inv @ self.G[:, q]
        piv = col[r]
        target = self.field.zero if up else self.hi[leaving]
        step = (self.x[leaving] - target) / piv
        self.x[self.basis] -= step * col
        self.x[q] = self.x[q] + step
        self.x[leaving] = target
        self.basis[r] = q
        self.is_basic[q], self.is_basic[leaving] = True, False
        self.at_upper[q], self.at_upper[leaving] = False, not up
        row = self.b_inv[r] / piv
        self.b_inv -= col[:, None] * row
        self.b_inv[r] = row
        return self.exact or abs(piv) > 1e-7

    def _dual_feasible(self) -> bool:
        tol = _COST_TOL * max(1.0, float(np.abs(self.c).max()))
        movable = ~self.is_basic & (self.hi != 0)
        wrong = np.where(self.at_upper, self.d > tol, self.d < -tol)
        return not (movable & wrong).any()

    def _solution(self, pivots: int) -> LPSolution:
        z = self.x[: self.n]
        return LPSolution(OPTIMAL, self.field.of(self.c[: self.n] @ z), z.tolist(), pivots)
