"""Dense bounded-variable simplex engines.

Small LPs only: the relaxations produce problems with a few hundred
variables and at most a few hundred rows, so every engine keeps an explicit
basis inverse.  Variable bounds are handled implicitly (never as rows).

* ``CutLP`` is the runtime engine.  It holds the level-1 LP
  ``min c.z, sum z = 1, 0 <= z <= u`` plus inequality rows appended one
  batch at a time, and re-optimises in place with a bounded dual simplex.
  It starts from the greedy knapsack basis, which is dual feasible; each
  appended row enters with its slack basic, which keeps it dual feasible,
  and the basis inverse grows by a block formula.  Pivots update the
  inverse in product form and the entering column is chosen by a
  vectorised dual ratio test.  Float mode refactorizes on entry to each
  solve and every 64 pivots, and checks dual feasibility on a fresh
  factorization before it returns; if that check fails it falls back to
  the two-phase engine below.  Exact mode works on object arrays of
  Fractions with zero tolerances and a Bland-style rule, and never
  refactorizes: product-form updates are exact.
* ``_FloatEngine`` and ``_ExactEngine`` form a two-phase primal simplex
  for a general ``LinearProgram`` (``None`` stands for an infinite bound).
  The float engine uses numpy, product-form updates with periodic
  refactorization, Dantzig pricing with a Bland fallback once the
  objective stalls, and tolerances around 1e-8/1e-9.  The exact engine
  uses Fractions, Bland's rule and zero tolerances, and solves two
  Gaussian eliminations per pivot.

``solve`` dispatches on its argument: a ``CutLP`` is re-optimised in
place, a ``LinearProgram`` is solved from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_FEAS_TOL = 1e-8
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 30


@dataclass
class LinearProgram:
    """minimize c.z  subject to  a_ub z <= b_ub,  a_eq z = b_eq,  lower <= z <= upper."""

    c: list
    a_ub: list = field(default_factory=list)
    b_ub: list = field(default_factory=list)
    a_eq: list = field(default_factory=list)
    b_eq: list = field(default_factory=list)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.c)
        if not self.lower:
            self.lower = [None] * n
        if not self.upper:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound vectors must match the objective length")
        for row in list(self.a_ub) + list(self.a_eq):
            if len(row) != n:
                raise ValueError("constraint row width does not match objective")
        if len(self.a_ub) != len(self.b_ub) or len(self.a_eq) != len(self.b_eq):
            raise ValueError("constraint matrix/rhs length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if lo is not None and hi is not None and lo > hi:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass
class LPSolution:
    status: str
    value: object = None
    z: Optional[list] = None
    row_duals: Optional[list] = None
    dual_bound: object = None
    iterations: int = 0


def solve(lp, exact: bool = False) -> LPSolution:
    """Solve ``lp``; statuses are returned, never raised.

    A ``CutLP`` is re-optimised in place in its own arithmetic, and the
    solution's ``iterations`` are the pivots of this call; a
    ``LinearProgram`` is solved from scratch by the two-phase engine.
    """
    if isinstance(lp, CutLP):
        return lp.reoptimize()
    if exact:
        return _ExactEngine(lp).run()
    return _FloatEngine(lp).run()


# ---------------------------------------------------------------------------
# warm-started dual simplex for the level-1 LP plus appended rows


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

    def __init__(self, c: Sequence, upper: Sequence, start: Sequence, basic: int,
                 exact: bool = False):
        n = len(c)
        self.exact = exact
        self.n = n
        self.fallbacks = 0
        self._cold = False  # set by a fallback: later solves are cold as well
        self._start = (list(c), list(upper), list(start), basic)
        self._rows: list = []
        self._zero, self._one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
        self.c = self._vector(c)
        self.hi = self._vector(upper)
        self.G = self._ones((1, n))
        self.h = self._ones(1)
        self.basis = np.array([basic])
        self.is_basic = np.zeros(n, dtype=bool)
        self.is_basic[basic] = True
        self.at_upper = np.array([j != basic and v != 0 for j, v in enumerate(start)])
        self.x = np.where(self.at_upper, self.hi, self._zero)
        self.x[basic] = self.h[0] - self.x.sum()
        self.b_inv = self._ones((1, 1))
        self.d = self.c - self.c[basic]

    # scalar-field helpers: float64 arrays, or object arrays of Fractions
    def _vector(self, values) -> np.ndarray:
        if self.exact:
            return np.array([Fraction(v) for v in values], dtype=object)
        return np.asarray(values, dtype=float)

    def _matrix(self, rows) -> np.ndarray:
        if self.exact:
            return np.array([[Fraction(v) for v in r] for r in rows], dtype=object)
        return np.asarray(rows, dtype=float)

    def _zeros(self, shape) -> np.ndarray:
        return np.full(shape, self._zero, dtype=object if self.exact else float)

    def _ones(self, shape) -> np.ndarray:
        return np.full(shape, self._one, dtype=object if self.exact else float)

    @property
    def row_count(self) -> int:
        """Appended inequality rows (the unit-mass row not counted)."""
        return len(self._rows)

    def append_rows(self, rows: Sequence) -> None:
        """Append rows ``(a, b)`` meaning ``a.z <= b``, each with its slack
        basic; the inverse grows by ``[[B^-1, 0], [-A_B B^-1, I]]``."""
        if not rows:
            return
        self._rows.extend(rows)
        k = len(rows)
        a = self._matrix([r for r, _ in rows])
        b = self._vector([rhs for _, rhs in rows])
        m, cols = self.G.shape
        eye = self._zeros((k, k))
        np.fill_diagonal(eye, self._one)
        g = self._zeros((m + k, cols + k))
        g[:m, :cols] = self.G
        g[m:, : self.n] = a
        g[m:, cols:] = eye
        b_inv = self._zeros((m + k, m + k))
        b_inv[:m, :m] = self.b_inv
        b_inv[m:, :m] = -(g[m:, self.basis] @ self.b_inv)
        b_inv[m:, m:] = eye
        self.G, self.b_inv = g, b_inv
        self.h = np.concatenate([self.h, b])
        self.x = np.concatenate([self.x, b - a @ self.x[: self.n]])
        self.c = np.concatenate([self.c, self._zeros(k)])
        self.d = np.concatenate([self.d, self._zeros(k)])
        self.hi = np.concatenate([self.hi, np.full(k, np.inf, dtype=self.hi.dtype)])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.is_basic = np.concatenate([self.is_basic, np.ones(k, dtype=bool)])
        self.basis = np.concatenate([self.basis, np.arange(cols, cols + k)])

    def exact_image(self) -> "CutLP":
        """The same LP in Fractions (floats convert exactly), from the same
        start and with the same rows."""
        c, upper, start, basic = self._start
        image = CutLP(c, upper, start, basic, exact=True)
        image.append_rows(self._rows)
        return image

    def reoptimize(self) -> LPSolution:
        """Run the dual simplex from the current basis to an optimum."""
        if self._cold:
            return self._cold_solve()
        pivots = since_factor = 0
        if not self.exact:
            self._refactor()
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
                    return self._fallback(pivots)
                return self._solution(pivots)
            if pivots >= cap:
                if self.exact:
                    return LPSolution(ITERATION_LIMIT, iterations=pivots)
                return self._fallback(pivots)
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
            bad = np.nonzero((xb < 0) | (xb > self.hi[self.basis]))[0]
            if not bad.size:
                return None
            return int(bad[np.argmin(self.basis[bad])])
        viol = np.maximum(-xb, xb - self.hi[self.basis])
        r = int(np.argmax(viol))
        return r if viol[r] > _FEAS_TOL else None

    def _entering(self, r: int, alpha: np.ndarray) -> Optional[int]:
        """Dual ratio test on row ``alpha`` of the tableau; None when no
        nonbasic variable can move the leaving one toward its bound."""
        tol = 0 if self.exact else _PIVOT_TOL
        up = self.x[self.basis[r]] < 0  # the leaving variable must increase
        sign = np.where(self.at_upper, -1, 1) * (1 if up else -1)
        movable = ~self.is_basic & (self.hi != 0)
        cand = np.nonzero(movable & (sign * alpha < -tol))[0]
        if not cand.size:
            return None
        dd = np.where(self.at_upper[cand], -self.d[cand], self.d[cand])
        size = np.abs(alpha[cand])
        if self.exact:
            return int(cand[np.argmin(dd / size)])  # ties: smallest index
        ratios = np.maximum(dd, 0.0) / size
        ties = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
        return int(cand[ties[np.argmax(size[ties])]])  # ties: largest pivot

    def _pivot(self, r: int, q: int, alpha: np.ndarray) -> bool:
        """Swap basic ``basis[r]`` for nonbasic ``q``; returns whether the
        pivot element was large enough for a product-form update."""
        leaving = self.basis[r]
        up = self.x[leaving] < 0
        theta = self.d[q] / alpha[q]
        self.d = self.d - theta * alpha
        self.d[self.basis] = self._zero
        self.d[leaving] = -theta
        self.d[q] = self._zero
        col = self.b_inv @ self.G[:, q]
        piv = col[r]
        target = self._zero if up else self.hi[leaving]
        step = (self.x[leaving] - target) / piv
        self.x[self.basis] = self.x[self.basis] - step * col
        self.x[q] = self.x[q] + step
        self.x[leaving] = target
        self.basis[r] = q
        self.is_basic[q], self.is_basic[leaving] = True, False
        self.at_upper[q], self.at_upper[leaving] = False, not up
        row = self.b_inv[r] / piv
        self.b_inv = self.b_inv - np.outer(col, row)
        self.b_inv[r] = row
        return self.exact or abs(piv) > 1e-7

    def _dual_feasible(self) -> bool:
        tol = _COST_TOL * max(1.0, float(np.abs(self.c).max()))
        movable = ~self.is_basic & (self.hi != 0)
        wrong = np.where(self.at_upper, self.d > tol, self.d < -tol)
        return not (movable & wrong).any()

    def _solution(self, pivots: int) -> LPSolution:
        z = self.x[: self.n]
        value = self.c[: self.n] @ z
        return LPSolution(
            OPTIMAL,
            value=value if self.exact else float(value),
            z=z.tolist(),
            iterations=pivots,
        )

    def _fallback(self, pivots: int) -> LPSolution:
        self.fallbacks += 1
        self._cold = True
        sol = self._cold_solve()
        sol.iterations += pivots
        return sol

    def _cold_solve(self) -> LPSolution:
        """The two-phase solve of the same rows."""
        c, upper, _, _ = self._start
        lp = LinearProgram(
            c=list(c),
            a_ub=[list(a) for a, _ in self._rows],
            b_ub=[b for _, b in self._rows],
            a_eq=[[1.0] * self.n],
            b_eq=[1.0],
            lower=[0.0] * self.n,
            upper=list(upper),
        )
        return _FloatEngine(lp).run()


# ---------------------------------------------------------------------------
# float engine (numpy)


class _FloatEngine:
    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        m1, m2 = len(lp.a_ub), len(lp.a_eq)
        m = m1 + m2
        self.n = n
        self.n_struct = n + m1  # structural + slack
        cols = self.n_struct + m  # + artificials
        G = np.zeros((m, cols))
        if m1:
            G[:m1, :n] = np.asarray(lp.a_ub, dtype=float)
            G[:m1, n : n + m1] = np.eye(m1)
        if m2:
            G[m1:, :n] = np.asarray(lp.a_eq, dtype=float)
        self.h = np.asarray(list(lp.b_ub) + list(lp.b_eq), dtype=float)
        self.G = G
        self.m = m
        self.n_total = cols
        inf = np.inf
        self.lo = np.array(
            [(-inf if b is None else float(b)) for b in lp.lower]
            + [0.0] * m1
            + [0.0] * m,
        )
        self.hi = np.array(
            [(inf if b is None else float(b)) for b in lp.upper]
            + [inf] * m1
            + [inf] * m,
        )
        self.c = np.concatenate([np.asarray(lp.c, dtype=float), np.zeros(m1 + m)])
        self.iter_cap = 50 * (self.m + self.n_total)
        self.iterations = 0

    def run(self) -> LPSolution:
        m = self.m
        # start every structural/slack variable at its bound nearest zero
        self.value = np.zeros(self.n_total)
        self.at_upper = np.zeros(self.n_total, dtype=bool)
        for j in range(self.n_struct):
            lo, hi = self.lo[j], self.hi[j]
            if np.isfinite(lo) and (lo >= 0 or not np.isfinite(hi)):
                self.value[j] = lo
            elif np.isfinite(hi):
                self.value[j], self.at_upper[j] = hi, True
            else:
                self.value[j] = 0.0
        resid = self.h - self.G[:, : self.n_struct] @ self.value[: self.n_struct]
        for i in range(m):
            col = self.n_struct + i
            self.G[i, col] = 1.0 if resid[i] >= 0 else -1.0
            self.value[col] = abs(resid[i])
        self.basis = np.arange(self.n_struct, self.n_total)
        self.in_basis = np.zeros(self.n_total, dtype=bool)
        self.in_basis[self.basis] = True

        c1 = np.zeros(self.n_total)
        c1[self.n_struct :] = 1.0
        status = self._iterate(c1)
        if status != OPTIMAL:
            return LPSolution(status, iterations=self.iterations)
        if float(c1 @ self.value) > 1e-7:
            return LPSolution(INFEASIBLE, iterations=self.iterations)
        # pin the artificials and optimize the real objective
        self.lo[self.n_struct :] = 0.0
        self.hi[self.n_struct :] = 0.0
        status = self._iterate(self.c)
        if status != OPTIMAL:
            return LPSolution(status, iterations=self.iterations)
        z = self.value[: self.n]
        y = self._duals(self.c)
        val = float(self.c[: self.n] @ z)
        return LPSolution(
            OPTIMAL,
            value=val,
            z=list(map(float, z)),
            row_duals=list(map(float, y)),
            dual_bound=self._dual_bound(y),
            iterations=self.iterations,
        )

    def _duals(self, cvec) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        B = self.G[:, self.basis]
        cb = cvec[self.basis]
        try:
            return np.linalg.solve(B.T, cb)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(B.T, cb, rcond=None)[0]

    def _dual_bound(self, y) -> float:
        r = self.c - self.G.T @ y
        total = float(y @ self.h)
        for j in range(self.n_total):
            rj = r[j]
            if rj > _COST_TOL:
                b = self.lo[j]
            elif rj < -_COST_TOL:
                b = self.hi[j]
            else:
                continue
            if not np.isfinite(b):
                return -np.inf
            total += rj * b
        return total

    def _basis_inverse(self):
        B = self.G[:, self.basis]
        try:
            return np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(B)

    def _ratio_test(self, entering: int, direction: float, d_b: np.ndarray):
        """Largest step before a basic variable (or the entering variable
        itself) hits a bound: (step, basis position or -1 for a bound flip,
        whether the leaving variable ends at its upper bound).  Ties within
        1e-12 go to the smallest basic index, and a leaving variable beats
        a bound flip."""
        t_best = np.inf
        leave_pos = -1
        leave_to_upper = False
        span = self.hi[entering] - self.lo[entering]
        if np.isfinite(span):
            t_best = span
        step = direction * d_b
        falls = step > _PIVOT_TOL
        lim = np.where(falls, self.lo[self.basis], self.hi[self.basis])
        hits = (falls | (step < -_PIVOT_TOL)) & np.isfinite(lim)
        if hits.any():
            t = np.full(self.m, np.inf)
            t[hits] = (self.value[self.basis][hits] - lim[hits]) / step[hits]
            t_min = t.min()
            if t_min <= t_best + 1e-12:
                ties = np.nonzero(t <= t_min + 1e-12)[0]
                leave_pos = int(ties[np.argmin(self.basis[ties])])
                t_best = t[leave_pos]
                leave_to_upper = not falls[leave_pos]
        return t_best, leave_pos, leave_to_upper

    def _iterate(self, cvec) -> str:
        m = self.m
        bland = False
        stall = 0
        last_obj = np.inf
        refresh = True
        pivots_since_factor = 0
        b_inv = None
        r = cvec.copy()
        free = self.lo != self.hi
        while True:
            if self.iterations >= self.iter_cap:
                return ITERATION_LIMIT
            self.iterations += 1
            if refresh and m:
                # full refactorization: on entry, after an unstable pivot,
                # and periodically to curb product-form drift
                b_inv = self._basis_inverse()
                nb_mask = ~self.in_basis
                rhs = self.h - self.G[:, nb_mask] @ self.value[nb_mask]
                xb = b_inv @ rhs
                self.value[self.basis] = xb
                y = cvec[self.basis] @ b_inv
                r = cvec - y @ self.G
                refresh = False
                pivots_since_factor = 0
            obj = float(cvec @ self.value)
            if obj < last_obj - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            last_obj = obj

            nb = ~self.in_basis & free
            down = nb & ~self.at_upper & (r < -_COST_TOL)
            up = nb & self.at_upper & (r > _COST_TOL)
            if not down.any() and not up.any():
                return OPTIMAL
            if bland:
                cand_down = np.nonzero(down)[0]
                cand_up = np.nonzero(up)[0]
                first_down = cand_down[0] if cand_down.size else self.n_total
                first_up = cand_up[0] if cand_up.size else self.n_total
                if first_down <= first_up:
                    entering, direction = int(first_down), 1.0
                else:
                    entering, direction = int(first_up), -1.0
            else:
                score = np.where(down, -r, np.where(up, r, -np.inf))
                entering = int(np.argmax(score))
                direction = 1.0 if down[entering] else -1.0

            d_b = b_inv @ self.G[:, entering] if m else np.zeros(0)
            t_best, leave_pos, leave_to_upper = self._ratio_test(entering, direction, d_b)
            if not np.isfinite(t_best):
                return UNBOUNDED
            t_best = max(t_best, 0.0)
            if m:
                self.value[self.basis] = self.value[self.basis] - direction * t_best * d_b
            if leave_pos < 0:
                # bound-to-bound flip: basis and reduced costs are unchanged
                self.at_upper[entering] = not self.at_upper[entering]
                self.value[entering] = (
                    self.hi[entering] if self.at_upper[entering] else self.lo[entering]
                )
                continue
            self.value[entering] += direction * t_best
            leaving = self.basis[leave_pos]
            self.basis[leave_pos] = entering
            self.in_basis[entering] = True
            self.in_basis[leaving] = False
            self.at_upper[leaving] = leave_to_upper
            self.value[leaving] = self.hi[leaving] if leave_to_upper else self.lo[leaving]
            piv = d_b[leave_pos]
            if abs(piv) > 1e-7 and pivots_since_factor < 64:
                # product-form update of the inverse and the duals
                row_lp = b_inv[leave_pos] / piv
                b_inv = b_inv - np.outer(d_b, row_lp)
                b_inv[leave_pos] = row_lp
                y = cvec[self.basis] @ b_inv
                r = cvec - y @ self.G
                pivots_since_factor += 1
            else:
                refresh = True


# ---------------------------------------------------------------------------
# exact engine (Fractions, Bland's rule, zero tolerances)


class _ExactEngine:
    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        m1, m2 = len(lp.a_ub), len(lp.a_eq)
        m = m1 + m2
        self.n = n
        self.n_struct = n + m1
        self.n_total = self.n_struct + m
        self.m = m
        F = Fraction
        G = [[F(0)] * self.n_total for _ in range(m)]
        for i, row in enumerate(lp.a_ub):
            for j, a in enumerate(row):
                G[i][j] = F(a)
            G[i][n + i] = F(1)
        for i, row in enumerate(lp.a_eq):
            for j, a in enumerate(row):
                G[m1 + i][j] = F(a)
        self.G = G
        self.h = [F(b) for b in lp.b_ub] + [F(b) for b in lp.b_eq]
        self.lo: list = [None if b is None else F(b) for b in lp.lower] + [F(0)] * (
            m1 + m
        )
        self.hi: list = [None if b is None else F(b) for b in lp.upper] + [None] * (
            m1 + m
        )
        self.c = [F(x) for x in lp.c] + [F(0)] * (m1 + m)
        self.iter_cap = 50 * (self.m + self.n_total)
        self.iterations = 0

    # dense Fraction solve by Gaussian elimination
    @staticmethod
    def _solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
        m = len(mat)
        if m == 0:
            return []
        a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
        for col in range(m):
            piv = next((r for r in range(col, m) if a[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular basis")
            a[col], a[piv] = a[piv], a[col]
            inv = a[col][col]
            a[col] = [v / inv for v in a[col]]
            for r in range(m):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return [a[r][m] for r in range(m)]

    def _basis_matrix(self) -> list[list[Fraction]]:
        return [[self.G[i][j] for j in self.basis] for i in range(self.m)]

    def run(self) -> LPSolution:
        F = Fraction
        m = self.m
        self.value = [F(0)] * self.n_total
        self.at_upper = [False] * self.n_total
        for j in range(self.n_struct):
            lo, hi = self.lo[j], self.hi[j]
            if lo is not None and (lo >= 0 or hi is None):
                self.value[j] = lo
            elif hi is not None:
                self.value[j], self.at_upper[j] = hi, True
        resid = [
            self.h[i]
            - sum(self.G[i][j] * self.value[j] for j in range(self.n_struct))
            for i in range(m)
        ]
        for i in range(m):
            col = self.n_struct + i
            self.G[i][col] = F(1) if resid[i] >= 0 else F(-1)
            self.value[col] = abs(resid[i])
        self.basis = list(range(self.n_struct, self.n_total))
        self.in_basis = [False] * self.n_total
        for j in self.basis:
            self.in_basis[j] = True

        c1 = [F(0)] * self.n_struct + [F(1)] * m
        status = self._iterate(c1)
        if status != OPTIMAL:
            return LPSolution(status, iterations=self.iterations)
        if sum(c1[j] * self.value[j] for j in range(self.n_total)) > 0:
            return LPSolution(INFEASIBLE, iterations=self.iterations)
        for j in range(self.n_struct, self.n_total):
            self.lo[j] = F(0)
            self.hi[j] = F(0)
        status = self._iterate(self.c)
        if status != OPTIMAL:
            return LPSolution(status, iterations=self.iterations)
        z = self.value[: self.n]
        y = self._duals(self.c)
        val = sum(self.c[j] * self.value[j] for j in range(self.n))
        return LPSolution(
            OPTIMAL,
            value=val,
            z=list(z),
            row_duals=list(y),
            dual_bound=self._dual_bound(y),
            iterations=self.iterations,
        )

    def _duals(self, cvec) -> list[Fraction]:
        if self.m == 0:
            return []
        bt = [[self.G[i][j] for i in range(self.m)] for j in self.basis]
        return self._solve(bt, [cvec[j] for j in self.basis])

    def _dual_bound(self, y):
        total = sum(yi * hi for yi, hi in zip(y, self.h))
        for j in range(self.n_total):
            rj = self.c[j] - sum(self.G[i][j] * y[i] for i in range(self.m))
            if rj > 0:
                b = self.lo[j]
            elif rj < 0:
                b = self.hi[j]
            else:
                continue
            if b is None:
                return None
            total += rj * b
        return total

    def _iterate(self, cvec) -> str:
        m = self.m
        while True:
            if self.iterations >= self.iter_cap:
                return ITERATION_LIMIT
            self.iterations += 1
            if m:
                rhs = [
                    self.h[i]
                    - sum(
                        self.G[i][j] * self.value[j]
                        for j in range(self.n_total)
                        if not self.in_basis[j] and self.value[j] != 0
                    )
                    for i in range(m)
                ]
                xb = self._solve(self._basis_matrix(), rhs)
                for pos, j in enumerate(self.basis):
                    self.value[j] = xb[pos]
                y = self._duals(cvec)
                r = [
                    cvec[j] - sum(self.G[i][j] * y[i] for i in range(m))
                    for j in range(self.n_total)
                ]
            else:
                r = list(cvec)

            entering, direction = -1, 0
            for j in range(self.n_total):  # Bland: first eligible index
                if self.in_basis[j] or self.lo[j] == self.hi[j]:
                    continue
                if not self.at_upper[j] and r[j] < 0:
                    entering, direction = j, 1
                    break
                if self.at_upper[j] and r[j] > 0:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return OPTIMAL

            d_b = (
                self._solve(self._basis_matrix(), [self.G[i][entering] for i in range(m)])
                if m
                else []
            )
            t_best = None
            leave_pos = -1
            leave_to_upper = False
            if self.lo[entering] is not None and self.hi[entering] is not None:
                t_best = self.hi[entering] - self.lo[entering]
            for pos in range(m):
                step = direction * d_b[pos]
                j = self.basis[pos]
                if step > 0 and self.lo[j] is not None:
                    t = (self.value[j] - self.lo[j]) / step
                    hit_upper = False
                elif step < 0 and self.hi[j] is not None:
                    t = (self.hi[j] - self.value[j]) / (-step)
                    hit_upper = True
                else:
                    continue
                if (
                    t_best is None
                    or t < t_best
                    or (t == t_best and (leave_pos < 0 or j < self.basis[leave_pos]))
                ):
                    t_best, leave_pos, leave_to_upper = t, pos, hit_upper
            if t_best is None:
                return UNBOUNDED
            if t_best < 0:
                t_best = Fraction(0)
            self.value[entering] += direction * t_best
            for pos in range(m):
                self.value[self.basis[pos]] -= direction * t_best * d_b[pos]
            if leave_pos < 0:
                self.at_upper[entering] = not self.at_upper[entering]
                continue
            leaving = self.basis[leave_pos]
            self.basis[leave_pos] = entering
            self.in_basis[entering] = True
            self.in_basis[leaving] = False
            self.at_upper[leaving] = leave_to_upper
            self.value[leaving] = self.hi[leaving] if leave_to_upper else self.lo[leaving]
