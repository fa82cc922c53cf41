"""Shared fixtures: benchmark polynomials, brute-force oracles, the
per-coefficient loop versions of the Bernstein kernels, and the
LP-duality certificate that checks exact LP optima."""

from __future__ import annotations

import os

# numpy's BLAS pool only contends on the tests' small products (several
# times slower on a busy machine), so it gets one thread unless the
# environment says otherwise; this must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop import simplex
from bernpop.bernstein import (
    BernsteinForm, _beta_peak, field, field_of, integer_image, outer_chain, subdivide, to_bernstein,
)
from bernpop.bnb import split_boxes
from bernpop.poly import Box, Polynomial, lie_derivative, to_unit_box
from bernpop.problems import load_fixture, poly_from_text
from bernpop.relax import _greedy_knapsack, nominal_point, sample_upper_bound


def multi_binom(i, j) -> int:
    """Product of per-axis binomial coefficients C(i_l, j_l)."""
    out = 1
    for a, b in zip(i, j):
        out *= math.comb(a, b)
    return out


def box_form(p: Polynomial, box: Box, degree=None, exact: bool = False) -> BernsteinForm:
    """Bernstein form of ``p`` on ``box``, converted from the monomial
    basis, exact when ``exact`` and in float64 otherwise."""
    q, _ = to_unit_box(p, box)
    return to_bernstein(q, degree, exact)


def box_tensor(p: Polynomial, box: Box, degree=None, exact: bool = False) -> np.ndarray:
    """Coefficient tensor of ``p`` on ``box`` (``box_form``'s), in
    Fractions when ``exact`` and in float64 otherwise."""
    return box_form(p, box, degree, exact).tensor


def split_form(bf: BernsteinForm, axis: int, t) -> tuple[BernsteinForm, BernsteinForm]:
    """The two pieces of one form, split by the stacked ``subdivide`` as a
    batch of one."""
    left, right, factor = subdivide(bf.numer[None], axis, t)
    return BernsteinForm(left[0], bf.den * factor), BernsteinForm(right[0], bf.den * factor)


def split_node(lower: tuple, upper: tuple, forms: tuple, strategy: str) -> tuple[tuple, tuple]:
    """``bnb.split_boxes`` on one box, given by its corners, and its forms:
    (left lower, left upper, left forms), (right lower, right upper,
    right forms)."""
    numer = np.stack([bf.numer for bf in forms])[None]
    return tuple(
        (lo, hi, tuple(BernsteinForm(n, bf.den * f) for n, bf in zip(block, forms)))
        for lo, hi, block, f in split_boxes([(lower, upper)], numer, strategy)
    )


def unit_grid_point(bf: BernsteinForm) -> tuple:
    """The grid point I/delta of the form's first smallest coefficient,
    as ``relax.sample_upper_bound`` gives it on the unit box."""
    F = field_of(bf.numer)
    unit = np.array([[(F.zero,) * bf.dimension, (F.one,) * bf.dimension]], dtype=F.dtype)
    return tuple(sample_upper_bound(unit, bf.numer[None])[1].tolist())


def form_of(tensor: np.ndarray) -> BernsteinForm:
    """The Bernstein form whose coefficients are ``tensor``: the float64
    tensor itself over 1, or the integer image of an object tensor."""
    if tensor.dtype == object:
        return BernsteinForm(*integer_image(tensor))
    return BernsteinForm(tensor)


def himmelblau() -> Polynomial:
    """(x1^2 + x2 - 11)^2 + (x1 + x2^2 - 7)^2, built from the factored form."""
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    c = Polynomial.constant
    f1 = x1 * x1 + x2 - c(2, 11)
    f2 = x1 + x2 * x2 - c(2, 7)
    return f1 * f1 + f2 * f2


def himmelblau_exact() -> Polynomial:
    p = himmelblau()
    return Polynomial(2, {i: Fraction(c) for i, c in p.terms.items()})


def motzkin3() -> Polynomial:
    x1 = Polynomial.variable(3, 0)
    x2 = Polynomial.variable(3, 1)
    x3 = Polynomial.variable(3, 2)
    return (
        x1**4 * x2**2
        + x1**2 * x2**4
        - (x1**2 * x2**2 * x3**2).scale(3)
        + x3**6
    )


def algebraic4() -> Polynomial:
    xs = [Polynomial.variable(4, j) for j in range(4)]
    p = xs[0] ** 4 + xs[1] ** 4 + xs[2] ** 4 + xs[3] ** 4
    return p - (xs[0] * xs[1] * xs[2] * xs[3]).scale(4) - Polynomial.constant(4, 1)


def random_polynomial(rng: random.Random, dimension: int, max_degree: int) -> Polynomial:
    terms = {}
    n_terms = rng.randint(1, 6)
    for _ in range(n_terms):
        idx = tuple(rng.randint(0, max_degree) for _ in range(dimension))
        terms[idx] = terms.get(idx, 0) + rng.uniform(-5, 5)
    return Polynomial(dimension, terms)


def random_box(rng: random.Random, dimension: int) -> Box:
    lower, upper = [], []
    for _ in range(dimension):
        a = rng.uniform(-3, 2)
        b = a + rng.uniform(0.5, 3)
        lower.append(a)
        upper.append(b)
    return Box(tuple(lower), tuple(upper))


def grid_min(p: Polynomial, box: Box, points_per_axis: int = 9) -> float:
    """Brute-force sample minimum over a regular grid (an upper bound on
    the true minimum, hence every sound lower bound must stay below it)."""
    axes = [
        [lo + (hi - lo) * t / (points_per_axis - 1) for t in range(points_per_axis)]
        for lo, hi in zip(box.lower, box.upper)
    ]
    return min(p.eval(pt) for pt in itertools.product(*axes))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def iter_indices(degree):
    """All I <= degree in row-major (lexicographic) order."""
    return itertools.product(*(range(d + 1) for d in degree))


# -- the kernels one coefficient at a time (references for bernpop.bernstein
# and the exactness recovery in bernpop.relax); tensors are flat row-major
# sequences here, as bernpop once stored them


def loop_to_bernstein(p: Polynomial, degree=None) -> tuple:
    """b_I = sum_{J<=I} C(I,J)/C(delta,J) p_J, accumulated position by
    position in term order; positions no term reaches stay the integer 0."""
    delta = tuple(degree) if degree is not None else p.degree
    shape = [d + 1 for d in delta]
    strides = [math.prod(shape[l + 1:]) for l in range(len(delta))]
    coeffs = [0] * math.prod(shape)
    for jdx, c in p.terms.items():
        scaled = c / multi_binom(delta, jdx)
        axis_binoms = [[math.comb(i, j) for i in range(j, d + 1)] for j, d in zip(jdx, delta)]
        base = sum(j * s for j, s in zip(jdx, strides))
        for offs in itertools.product(*(range(len(ab)) for ab in axis_binoms)):
            w = 1
            pos = base
            for l, t in enumerate(offs):
                w *= axis_binoms[l][t]
                pos += t * strides[l]
            coeffs[pos] += scaled * w
    return tuple(coeffs)


def loop_to_unit_box(p: Polynomial, box: Box) -> tuple[Polynomial, Box]:
    """The substitution x = o + s z expanded one term and one variable at
    a time into a dict, skipping zero factors; keys are inserted in the
    order the terms first reach them."""
    if box.dimension != p.dimension:
        raise ValueError("box dimension does not match polynomial")
    terms: dict = {}
    for idx, coeff in p.terms.items():
        # partial maps exponent tuples of the already-substituted prefix
        partial: dict = {(): coeff}
        for j, e in enumerate(idx):
            o, s = box.lower[j], box.width(j)
            # (o + s z)^e expanded once per axis
            expansion = [
                math.comb(e, t) * (s**t) * (o ** (e - t)) for t in range(e + 1)
            ]
            nxt: dict = {}
            for pre, c in partial.items():
                for t, w in enumerate(expansion):
                    if w == 0:
                        continue
                    key = pre + (t,)
                    val = c * w
                    nxt[key] = nxt.get(key, 0) + val
            partial = nxt
        for key, c in partial.items():
            terms[key] = terms.get(key, 0) + c
    return Polynomial(p.dimension, terms), box


def loop_bernstein_eval(coeffs, degree, point):
    """De Casteljau on one row of the flat tensor at a time, last axis first."""
    vals = list(coeffs)
    shape = [d + 1 for d in degree]
    for axis in range(len(degree) - 1, -1, -1):
        m, x = shape[axis], point[axis]
        lead = math.prod(shape[:axis])
        new = [0] * lead
        for blk in range(lead):
            row = vals[blk * m : (blk + 1) * m]
            for _ in range(m - 1):
                row = [(1 - x) * row[i] + x * row[i + 1] for i in range(len(row) - 1)]
            new[blk] = row[0]
        vals = new
    return vals[0]


def loop_subdivide(tensor, axis, t):
    """De Casteljau split along ``axis`` at t in the tensor's own
    arithmetic: every step is c_i + t (c_{i+1} - c_i) on whole slices, in
    Fractions on an object tensor; returns the [0,t] and [t,1] pieces."""
    rows = np.moveaxis(tensor, axis, 0)
    d = rows.shape[0] - 1
    left = np.empty_like(rows)
    right = np.empty_like(rows)
    left[0], right[d] = rows[0], rows[d]
    for r in range(1, d + 1):
        rows = rows[:-1] + t * (rows[1:] - rows[:-1])
        left[r], right[d - r] = rows[0], rows[-1]
    return np.moveaxis(left, 0, axis), np.moveaxis(right, 0, axis)


def loop_monotonicity_signs(coeffs, degree) -> tuple:
    """Per-axis sign of the forward differences b_{I+e_r} - b_I, one
    coefficient pair at a time in the coefficients' own arithmetic: '+'
    when all are positive or all are zero (a degree-0 axis has none), '-'
    when all are negative, 'mixed' otherwise."""
    strides = [math.prod(d + 1 for d in degree[l + 1:]) for l in range(len(degree))]
    signs = []
    for r, d in enumerate(degree):
        diffs = [
            coeffs[pos + strides[r]] - coeffs[pos]
            for pos, idx in enumerate(iter_indices(degree))
            if idx[r] < d
        ]
        if all(x == 0 for x in diffs) or all(x > 0 for x in diffs):
            signs.append("+")
        elif all(x < 0 for x in diffs):
            signs.append("-")
        else:
            signs.append("mixed")
    return tuple(signs)


def loop_min_coefficient(coeffs, degree):
    """Smallest coefficient and its lexicographically first index."""
    best, best_idx = None, ()
    for c, idx in zip(coeffs, iter_indices(degree)):
        if best is None or c < best:
            best, best_idx = c, idx
    return best, best_idx


def _loop_products(per_axis, degree, exact) -> list:
    out = []
    for idx in iter_indices(degree):
        w = Fraction(1) if exact else 1.0
        for l, i in enumerate(idx):
            w *= per_axis[l][i]
        out.append(w)
    return out


def loop_upper_bounds(degree, exact=False) -> list:
    """u_I = B_{I,delta}(I/delta), flat row-major."""
    per_axis = [[_beta_peak(i, d, field(exact)) for i in range(d + 1)] for d in degree]
    return _loop_products(per_axis, degree, exact)


def loop_basis_values(point, degree, exact=False) -> list:
    """B_{I,delta}(x) for all I, flat row-major."""
    per_axis = [
        [math.comb(d, i) * x**i * (1 - x) ** (d - i) for i in range(d + 1)]
        for x, d in zip(point, degree)
    ]
    return _loop_products(per_axis, degree, exact)


def loop_nominal_point(z, degree, exact=False) -> tuple:
    """x~_j = sum_I (i_j/delta_j) z_I over the nonzero z_I, clipped to [0,1]."""
    point = []
    for j, d in enumerate(degree):
        acc = Fraction(0) if exact else 0.0
        if d:
            for pos, idx in enumerate(iter_indices(degree)):
                if z[pos]:
                    acc += (Fraction(idx[j], d) if exact else idx[j] / d) * z[pos]
        point.append(min(max(acc, 0), 1))
    return tuple(point)


def loop_greedy_knapsack(coeffs, u, exact=False):
    """The level-1 greedy fill in a sorted((c_i, i)) order: (bound, z, last)."""
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
    return bound, z, last


def loop_first_lp_bound(coeffs, u):
    """max(b_1, b_{q+1} + sum_{j<=q} b_j u_j) over the sorted coefficients."""
    order = sorted(range(len(coeffs)), key=lambda i: (coeffs[i], i))
    b = [coeffs[i] for i in order]
    uu = [u[i] for i in order]
    if b[0] >= 0:
        return b[0]
    last_nonpos = max(i for i in range(len(b)) if b[i] <= 0)
    q = 0
    acc = 0
    for i in range(last_nonpos):
        if acc + uu[i] <= 1:
            acc += uu[i]
            q = i + 1
        else:
            break
    partial = sum(b[j] * uu[j] for j in range(q))
    candidate = b[q] + partial
    return candidate if candidate > b[0] else b[0]


def univariate_elevation(k: int, m: int, exact: bool = False) -> list[list]:
    """Rows e[i][j] expressing beta_{i,k} = sum_j e[i][j] beta_{j,m} (k <= m)."""
    if k > m:
        raise ValueError("cannot elevate to a smaller degree")
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(m + 1):
            num = math.comb(k, i) * math.comb(m - k, j - i) if i <= j <= i + m - k else 0
            if num == 0:
                row.append(Fraction(0) if exact else 0.0)
            else:
                den = math.comb(m, j)
                row.append(Fraction(num, den) if exact else num / den)
        rows.append(row)
    return rows


def monomial_bernstein_row(idx, degree, exact: bool = False) -> list:
    """Coefficients of x^I in the degree-delta basis: C(J,I)/C(delta,I) for J >= I."""
    if not all(i <= d for i, d in zip(idx, degree)):
        raise ValueError("index exceeds degree")
    den = multi_binom(degree, idx)
    out = []
    for jdx in iter_indices(degree):
        if all(j >= i for i, j in zip(idx, jdx)):
            num = multi_binom(jdx, idx)
            out.append(Fraction(num, den) if exact else num / den)
        else:
            out.append(Fraction(0) if exact else 0.0)
    return out


def basis_values(point, degree, F) -> np.ndarray:
    """B_{I,delta}(x) for all I, flat row-major: the outer product of the
    per-axis values beta_{i,d}(x_l)."""
    per_axis = [
        [math.comb(d, i) * x**i * (1 - x) ** (d - i) for i in range(d + 1)]
        for x, d in zip(point, degree)
    ]
    return outer_chain(per_axis, F.dtype).ravel()


def reproduces(z, point, degree, tol, F) -> bool:
    """Whether z is a probability vector equal to the basis values at point
    (within ``tol``, in float arithmetic)."""
    if abs(sum(z) - 1) > F.tol(1e-6) or min(z) < -F.tol(1e-7):
        return False
    basis = basis_values(point, degree, F)
    return bool((np.abs(np.asarray(z, dtype=F.dtype) - basis) <= F.tol(tol)).all())


def exactness_check(z, degree, box=None, tol: float = 1e-7, exact: bool = False):
    """Formal z-recovery: read a true minimizer off an optimal placeholder
    vector.  Accepts iff z reproduces the basis values at the nominal point
    x~ and returns that point in original coordinates; otherwise ``None``,
    which does not preclude the bound being tight."""
    F = field(exact)
    point = nominal_point(z, degree, F)
    if not reproduces(z, point, degree, tol, F):
        return None
    return point if box is None else box.point(point)


# -- monomial expansions of Bernstein forms (test references) ---------------


def bernstein_basis_polynomial(idx, degree) -> Polynomial:
    """The basis polynomial B_{I,delta} expanded in the monomial basis."""
    n = len(degree)
    out = Polynomial.constant(n, 1)
    for l, (i, d) in enumerate(zip(idx, degree)):
        # beta_{i,d}(x_l) = C(d,i) x^i (1-x)^{d-i}
        terms = {}
        for t in range(d - i + 1):
            e = [0] * n
            e[l] = i + t
            terms[tuple(e)] = math.comb(d, i) * math.comb(d - i, t) * (-1) ** t
        out = out * Polynomial(n, terms)
    return out


def bernstein_to_polynomial(bf) -> Polynomial:
    """Expand a Bernstein form back to the monomial basis (exact with
    Fraction coefficients)."""
    out = Polynomial.zero(bf.dimension)
    for idx in iter_indices(bf.degree):
        if bf.tensor[idx] != 0:
            out = out + bernstein_basis_polynomial(idx, bf.degree).scale(bf.tensor[idx])
    return out


def cross_check_appendix_derivatives(registry, tol: float = 1e-9) -> list[dict]:
    """Compare the recomputed flow derivative of each bundled case against
    the derivative polynomial printed in its source (the fixture's
    ``printed_vdot`` text), term by term."""
    reports = []
    for name, case in registry["lyapunov"].items():
        computed = lie_derivative(case.v, case.odes)
        data = load_fixture(name)
        diffs = {}
        if data.get("printed_vdot"):
            printed = poly_from_text(data["printed_vdot"], data["variables"])
            for idx in sorted(set(computed.terms) | set(printed.terms)):
                a = float(computed.terms.get(idx, 0))
                b = float(printed.terms.get(idx, 0))
                if abs(a - b) > tol:
                    diffs[idx] = (a, b)
        reports.append({"name": name, "match": not diffs, "diffs": diffs})
    return reports


# -- the elevation rows, one at a time (references for relax.CutMatrix) ------


def elevation_row(idx, low, degree, exact=False) -> list:
    """Coefficients of B_{I,K} in the degree-delta basis, flat over J <= delta.

    All entries are nonnegative, and for fixed J the rows over I <= K sum
    to one (elevating the unit partition gives the unit partition).
    """
    if not all(i <= k for i, k in zip(idx, low)):
        raise ValueError("index exceeds its own degree")
    if not all(k <= d for k, d in zip(low, degree)):
        raise ValueError("low degree exceeds target degree")
    per_axis = [
        univariate_elevation(k, d, exact)[i]
        for i, k, d in zip(idx, low, degree)
    ]
    out = []
    for jdx in iter_indices(degree):
        w = Fraction(1) if exact else 1.0
        for l, j in enumerate(jdx):
            w *= per_axis[l][j]
            if w == 0:
                break
        out.append(w)
    return out


def cut_pairs(degree) -> list:
    """(I, K) of every row of ``build_cut_matrix(degree)``, in row-id order:
    by |K|, then K lex, then I lex, with K = degree left out."""
    degree = tuple(degree)
    lows = sorted((k for k in iter_indices(degree) if k != degree), key=lambda k: (sum(k), k))
    return [(idx, low) for low in lows for idx in iter_indices(low)]


# -- the LP oracles -----------------------------------------------------------


def row_block(rows):
    """A list of rows (a, b), meaning a.z <= b, as the one block (A, b) of
    coefficient rows and right-hand sides that ``CutLP.append_rows`` and
    ``bound_at_level``'s ``extra_rows`` take; None for no rows, as
    ``constraint_rows`` gives for no constraint."""
    if not rows:
        return None
    return [a for a, _ in rows], [b for _, b in rows]


def row_list(block) -> list:
    """The rows (a, b) of a block (A, b), such as ``CutMatrix.rows`` and
    ``CutLP.rows`` return, as (list, Python number) pairs."""
    a, b = block
    return list(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))


def one_shot_lp(coeffs, u, rows, exact=False):
    """The one-shot full LP: a fresh ``CutLP`` from the greedy start with
    every row of the list ``rows`` appended at once, solved (the float
    fallback's own path).  Returns (lp, solution)."""
    coeffs, u = np.ravel(coeffs).tolist(), np.ravel(u).tolist()
    _, z, last = _greedy_knapsack(coeffs, u, field(exact))
    lp = simplex.CutLP(coeffs, u, z, last, field(exact))
    lp.append_rows([a for a, _ in rows], [b for _, b in rows])
    return lp, simplex.solve(lp)


def _fractions(values) -> np.ndarray:
    """Object array of the exact values of numbers (floats convert exactly)."""
    return np.vectorize(Fraction, otypes=[object])(np.array(values, dtype=object))


def assert_lp_duality(lp, sol) -> None:
    """LP-duality certificate of a solved exact ``CutLP`` at its final
    basis, all in Fractions and against the LP's input data: y solves
    y.B = c_B (checked, so the solver's inverse is not trusted), x is
    primal feasible, each reduced cost has the sign its bound allows, and
    c.x equals the dual objective."""
    assert lp.exact and sol.status == simplex.OPTIMAL
    c, upper, _, _ = lp._start
    n, k = len(c), lp.row_count
    rows = row_list(lp.rows)
    G = _fractions(
        [[1] * n + [0] * k]
        + [list(a) + [int(i == r) for i in range(k)] for r, (a, _) in enumerate(rows)]
    )
    h = _fractions([1] + [b for _, b in rows])
    cost = _fractions(list(c) + [0] * k)
    cap = list(map(Fraction, upper)) + [None] * k
    # the basis is Q plus the loose rows' slacks, so y is c_Q W^-1 on the
    # tight rows T and 0 on the loose ones
    x, basis = lp.x, lp.is_basic.nonzero()[0]
    y = _fractions([0] * (k + 1))
    y[lp.tight] = cost[lp.cols] @ lp.w_inv
    assert (y @ G[:, basis] == cost[basis]).all()
    assert (G @ x == h).all()
    assert all(v >= 0 and (hi is None or v <= hi) for v, hi in zip(x, cap))
    d = cost - y @ G
    assert all(dj <= 0 for dj, v in zip(d, x) if v > 0)
    assert all(dj >= 0 for dj, v, hi in zip(d, x, cap) if hi is None or v < hi)
    dual = y @ h + sum(dj * hi for dj, hi in zip(d, cap) if dj < 0)
    assert cost @ x == dual == sol.value
    assert list(x[:n]) == list(sol.z)
