"""Bernstein contraction in branch-and-bound: the hull kernel on univariate
forms, the float cutoff threshold it closes against, a seeded differential
against uncontracted runs, and constrained problems whose optimum lies on
a curve or a face of the box."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop import bnb, contraction
from bernpop.bernstein import BernsteinForm, lowest_terms, to_bernstein
from bernpop.bnb import BnbConfig, branch_and_bound, cutoff_threshold
from bernpop.poly import Box, Polynomial, to_unit_box


def test_float_threshold_is_the_least_float_within_the_tolerance():
    # inc - eps * max(1, |inc|) rounds in binary64 to either side of its
    # exact value; the threshold is the least float at or above it, so the
    # exact gap to the incumbent is within the tolerance and one float
    # lower is not
    rng = random.Random(5)
    for _ in range(3000):
        inc = rng.uniform(-1, 1) * 10 ** rng.randint(-12, 12)
        eps = 10 ** rng.uniform(-12, -1)
        threshold = cutoff_threshold(inc, eps)
        slack = Fraction(eps) * max(1, abs(Fraction(inc)))
        assert Fraction(inc) - Fraction(threshold) <= slack
        assert Fraction(inc) - Fraction(math.nextafter(threshold, -math.inf)) > slack
    # a Fraction threshold is the exact value itself
    inc, eps = Fraction(-7, 3), Fraction(1, 1000)
    assert cutoff_threshold(inc, eps) == inc - eps * Fraction(7, 3)


def _contract_one(p: Polynomial, threshold: Fraction):
    """``contraction.contract`` on the exact form of a univariate ``p`` on [0, 1],
    as a stack of one box; returns (open, t0, t1, restricted form's tensor)."""
    bf = to_bernstein(p, exact=True)
    corners = np.array([[[Fraction(0)], [Fraction(1)]]], dtype=object)
    numer, dens = bf.numer[None, None].copy(), np.array([[bf.den]], dtype=object)
    kept, _ = contraction.contract(corners, numer, dens, threshold)
    (t0,), (t1,) = corners[0].tolist()
    return bool(kept[0]), t0, t1, BernsteinForm(numer[0, 0], dens[0, 0]).tensor


def test_contracted_interval_holds_every_point_at_or_below_the_threshold():
    # on seeded univariate forms, exactly: every grid point t outside the
    # kept [t0, t1] (all of them for a closed box) has p(t) > threshold,
    # and the kept form is the conversion of p on [t0, t1] itself
    rng = random.Random(11)
    cut = closed = 0
    for _ in range(150):
        degree = rng.randint(1, 6)
        terms = {(k,): Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for k in range(degree + 1)}
        terms[(degree,)] = terms[(degree,)] or Fraction(1)
        p = Polynomial(1, terms)
        values = [p.eval((Fraction(k, 16),)) for k in range(17)]
        threshold = min(values) + (max(values) - min(values)) * Fraction(rng.randint(-2, 6), 10)
        kept, t0, t1, tensor = _contract_one(p, threshold)
        grid = [Fraction(k, 512) for k in range(513)]
        outside = [t for t in grid if not kept or t < t0 or t > t1]
        assert all(p.eval((t,)) > threshold for t in outside)
        if not kept:
            closed += 1
            continue
        # each sweep cuts to its own grid of 64 cells
        grid_cells = contraction.GRID**contraction.SWEEPS
        assert 0 <= t0 <= t1 <= 1 and (t0 * grid_cells).denominator == (t1 * grid_cells).denominator == 1
        if t0 == t1:  # a point: every coefficient is the value there
            assert tensor.tolist() == [p.eval((t0,))] * (degree + 1)
        else:
            q, _ = to_unit_box(p, Box((t0,), (t1,)))
            assert tensor.tolist() == to_bernstein(q, (degree,), exact=True).tensor.tolist()
        cut += (t0, t1) != (0, 1)
    assert cut > 10 and closed > 10


@pytest.mark.parametrize("exact", [False, True])
def test_restrict_keeps_a_point_at_the_upper_end_beside_an_upper_cut(exact):
    # one stacked restriction of two boxes along their one axis: the first
    # to the point t0 = t1 = 1 (a form <= 0 only on its box's upper face),
    # the second to [0, 1/2].  The point keeps the upper corner itself
    # (lo + (hi - lo) * 1 rounds above hi in binary64 here) and a form
    # whose every coefficient is p(hi); the half keeps p on its half
    F, dtype = (Fraction, object) if exact else (float, float)
    lo, hi = F("-0.1"), F("0.3")
    assert exact or lo + (hi - lo) > hi
    p = Polynomial(1, {(2,): 3, (1,): -1, (0,): 2}).convert(F)

    def form(upper):
        q, _ = to_unit_box(p, Box((lo,), (upper,)))
        return to_bernstein(q, (2,), exact=exact)

    bf = form(hi)
    corners = np.array([[[lo], [hi]]] * 2, dtype=dtype)
    numer, dens = np.stack([bf.numer[None]] * 2), np.array([[bf.den]] * 2, dtype=object)
    grid = contraction.GRID
    starts, ends = np.array([[grid], [0]]), np.array([[grid], [grid // 2]])
    contraction._restrict(corners, numer, dens, np.arange(2), starts, ends)
    mid = lo + (hi - lo) * F(1) / 2
    assert corners.tolist() == [[[hi], [hi]], [[lo], [mid]]]
    point, half = (BernsteinForm(numer[k, 0], dens[k, 0]).tensor for k in range(2))
    want_point, want_half = np.full(3, p.eval((hi,))), form(mid).tensor
    if exact:
        assert point.tolist() == want_point.tolist() and half.tolist() == want_half.tolist()
    else:
        assert np.allclose(point, want_point, rtol=1e-14) and np.allclose(half, want_half, rtol=1e-14)


def _on_grid_interval(q: Polynomial, sides) -> Polynomial:
    """q(a/G + (b - a)/G x) along each axis, for the grid G and ``sides``
    (a, b): q on a grid sub-box of the unit box, a side of zero width
    included, by substitution."""
    n, grid = q.dimension, contraction.GRID
    maps = [
        Polynomial.constant(n, Fraction(a, grid)) + Polynomial.variable(n, r).scale(Fraction(b - a, grid))
        for r, (a, b) in enumerate(sides)
    ]
    out = Polynomial.zero(n)
    for index, c in q.terms.items():
        term = Polynomial.constant(n, c)
        for r, e in enumerate(index):
            term = term * maps[r] ** e
        out = out + term
    return out


@pytest.mark.parametrize("dimension", [2, 3])
def test_stacked_restriction_on_several_axes(dimension):
    # seeded forms (two per box) on stacks where each axis is cut by some
    # boxes and kept whole by others, with the ends [0, G], [G, G] and
    # [0, 0] among the cuts.  Exact images are the conversions of the
    # forms on the sub-boxes, in lowest terms; float ones agree to 1e-14;
    # a whole side keeps its corners, and a box with no cut side its
    # forms, bit for bit
    rng, grid = random.Random(31 + dimension), contraction.GRID
    for _ in range(4):
        degree = tuple(rng.randint(1, 4) for _ in range(dimension))
        lower = tuple(Fraction(rng.randint(-8, 4), 4) for _ in range(dimension))
        upper = tuple(lo + Fraction(rng.randint(1, 8), 3) for lo in lower)
        box = Box(lower, upper)

        def term():
            return tuple(rng.randint(0, d) for d in degree), Fraction(rng.randint(-9, 9), rng.randint(1, 7))

        originals = [Polynomial(dimension, dict(term() for _ in range(6))) for _ in range(2)]
        polys = [to_unit_box(p, box)[0] for p in originals]
        forms = [to_bernstein(q, degree, exact=True) for q in polys]

        def side():
            a = rng.randint(0, grid)
            return a, rng.randint(a, grid)

        whole = [(0, grid)] * dimension
        cuts = [
            whole,
            [side()] + whole[1:],
            [(grid, grid), (0, 0)] + [side() for _ in range(dimension - 2)],
            [side() for _ in range(dimension)],
            [(0, grid)] + [side() for _ in range(dimension - 1)],
            [(0, 0)] + whole[1:-1] + [(grid, grid)],
        ]
        starts, ends = (np.array([[s[k] for s in box_cuts] for box_cuts in cuts]) for k in (0, 1))
        count = len(cuts)
        numer, dens = lowest_terms(
            np.stack([np.stack([bf.numer for bf in forms])] * count),
            np.array([[bf.den for bf in forms]] * count, dtype=object),
        )
        corners = np.array([[lower, upper]] * count, dtype=object)
        floats = numer.astype(float) / dens.astype(float).reshape(count, 2, *(1,) * dimension)
        float_corners = corners.astype(float)
        float_dens = np.ones((count, 2), dtype=object)
        numer0, dens0, floats0, float_corners0 = (a.copy() for a in (numer, dens, floats, float_corners))
        contraction._restrict(corners, numer, dens, np.arange(count), starts, ends)
        contraction._restrict(float_corners, floats, float_dens, np.arange(count), starts, ends)
        for k in range(count):
            for q, image, den, approx in zip(polys, numer[k], dens[k], floats[k]):
                want = to_bernstein(_on_grid_interval(q, cuts[k]), degree, exact=True).tensor
                assert BernsteinForm(image, den).tensor.tolist() == want.tolist()
                assert math.gcd(den, *image.ravel().tolist()) == 1
                assert np.allclose(approx, want.astype(float), rtol=1e-14, atol=1e-14 * abs(want).max())
            sub = corners[k].tolist()
            if all(lo < hi for lo, hi in zip(*sub)):
                # the forms and the corners match: p converted on the sub-box
                q, _ = to_unit_box(originals[0], Box(*sub))
                want = to_bernstein(q, degree, exact=True).tensor
                assert BernsteinForm(numer[k, 0], dens[k, 0]).tensor.tolist() == want.tolist()
            for r, (a, b) in enumerate(cuts[k]):
                if (a, b) == (0, grid):
                    assert corners[k, :, r].tolist() == [lower[r], upper[r]]
                    assert float_corners[k, :, r].tolist() == float_corners0[k, :, r].tolist()
                else:
                    width = upper[r] - lower[r]
                    want = [lower[r] + width * Fraction(t, grid) for t in (a, b)]
                    assert corners[k, :, r].tolist() == want
                    # float: lo + (hi - lo) * (t / G) bit for bit, hi itself at t = G
                    lo, hi = float_corners0[k, :, r]
                    want = [hi if t == grid else lo + (hi - lo) * (t / grid) for t in (a, b)]
                    assert float_corners[k, :, r].tobytes() == np.array(want).tobytes()
        # the first box cuts no side
        assert numer[0].tolist() == numer0[0].tolist() and dens[0].tolist() == dens0[0].tolist()
        assert floats[0].tobytes() == floats0[0].tobytes()


def test_huge_coefficients_keep_the_lower_bound_below_the_minimum():
    # minimise 9e306 x^3 - 6e306 x on [0, 1]: the minimum -4e306 sqrt(2/9)
    # is at x = sqrt(2)/3.  The float hull crossings overflowed (an int64
    # cast of NaN that np.maximum.at ignores), so contraction cut away the
    # part holding the minimiser and float level 0 reported the lower
    # bound -1.8806e306, above it; the exact run is the reference
    p = Polynomial(1, {(3,): Fraction(9 * 10**306), (1,): Fraction(-6 * 10**306)})
    box = Box((Fraction(0),), (Fraction(1),))
    runs = {
        exact: branch_and_bound(p.convert(F), (), box, BnbConfig(level="0", exact=exact))
        for exact, F in ((False, float), (True, Fraction))
    }
    assert all(res.converged for res in runs.values())
    assert Fraction(runs[False].lower_bound) <= runs[True].upper_bound
    assert runs[True].lower_bound**2 >= Fraction(16 * 10**612) * 2 / 9 >= runs[True].upper_bound**2


def _random_problem(rng: random.Random, dimension: int, constrained: bool):
    """A small POP with rational data: an objective of degree <= 3, a box
    with sides k/4, and optionally one constraint of degree <= 2 that
    holds at a grid point of the box."""

    def poly(max_degree):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            idx = tuple(rng.randint(0, max_degree) for _ in range(dimension))
            terms[idx] = terms.get(idx, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return Polynomial(dimension, terms)

    lower = tuple(Fraction(rng.randint(-8, 4), 4) for _ in range(dimension))
    upper = tuple(lo + Fraction(rng.randint(2, 8), 4) for lo in lower)
    constraints = ()
    if constrained:
        q = poly(2)
        inside = tuple(lo + (hi - lo) * Fraction(rng.randint(0, 4), 4) for lo, hi in zip(lower, upper))
        slack = Fraction(rng.randint(0, 4), 4)
        constraints = (q - Polynomial(dimension, {(0,) * dimension: q.eval(inside) + slack}),)
    return poly(3), constraints, Box(lower, upper)


@pytest.mark.parametrize("constrained", [False, True])
def test_contraction_differential(monkeypatch, constrained):
    # seeded POPs in 1-3 variables, both fields, levels 0, 1 and 2: a run
    # with contraction and one with no box restricted (the ratio patched
    # to 0) converge alike, and every exact lower bound is at most the
    # other run's exact upper bound
    rng = random.Random(23 + constrained)
    restricted = 0
    for k in range(9):
        p, constraints, box = _random_problem(rng, 1 + k % 3, constrained)
        for level in ("0", "1", "2"):
            for exact in (False, True):
                F = Fraction if exact else float
                pf, gf = p.convert(F), tuple(g.convert(F) for g in constraints)
                cfg = BnbConfig(level=level, epsilon=1e-4, max_boxes=20_000, exact=exact)
                contracted = branch_and_bound(pf, gf, box, cfg)
                with monkeypatch.context() as m:
                    m.setattr(contraction, "RATIO", 0)
                    plain = branch_and_bound(pf, gf, box, cfg)
                assert contracted.converged == plain.converged, (k, level, exact)
                assert contracted.converged
                assert plain.stats.contracted == 0
                restricted += contracted.stats.contracted
                if exact:
                    assert contracted.lower_bound <= plain.upper_bound
                    assert plain.lower_bound <= contracted.upper_bound
                    for g in constraints:
                        assert g.eval(contracted.witness) <= 0
    assert restricted > 0


def test_constrained_curve():
    # minimise x + y subject to 2 - xy <= 0 on [0, 3]^2: the optimum 2 sqrt 2
    # is at (sqrt 2, sqrt 2) on the curve xy = 2, which contraction closes
    # in on from both sides (float level 0 took 33 455 nodes without it)
    p = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    g = Polynomial(2, {(0, 0): 2, (1, 1): -1})
    box = Box((0, 0), (3, 3))
    for level, exact in [("0", False), ("1", False), ("2", False), ("1", True)]:
        res = branch_and_bound(p, (g,), box, BnbConfig(level=level, epsilon=1e-6, exact=exact))
        assert res.converged
        lower, upper = Fraction(res.lower_bound), Fraction(res.upper_bound)
        # lower <= 2 sqrt 2 <= upper, within the tolerance of each other
        assert 0 < lower and lower**2 <= 8 <= upper**2
        assert upper - lower <= Fraction(1e-6) * upper
        x, y = map(Fraction, res.witness)
        assert x * y >= 2 or (not exact and g.eval(res.witness) <= 0)
    assert res.stats.contracted > 0


# (objective, constraint, box, witness, optimum, nodes) of problems feasible
# only on a face of the box.  D11: x1 + 9 x0 x1^3 - 2/7 x0^2 x2^3 subject to
# 4/3 x2^2 <= 0, feasible on x2 = 0, optimum 19/16 at the corner
# (-3/2, -1/2, 0).  On [0, 1], minimise x subject to (x - 1)^2 <= 0, and its
# mirror image -x subject to x^2 <= 0: feasible only at x = 1 (x = 0), the
# constraint's coefficients (1, 0, 0) tie at an inner grid point, where it
# is positive, and at that end
FACE_FEASIBLE = {
    "d11": (
        Polynomial(3, {(0, 1, 0): 1, (1, 3, 0): 9, (2, 0, 3): Fraction(-2, 7)}),
        Polynomial(3, {(0, 0, 2): Fraction(4, 3)}),
        Box((Fraction(-3), Fraction(-3, 2), Fraction(0)), (Fraction(-3, 2), Fraction(-1, 2), Fraction(2))),
        (Fraction(-3, 2), Fraction(-1, 2), 0), Fraction(19, 16), 5,
    ),
    "upper_end": (
        Polynomial(1, {(1,): 1}), Polynomial(1, {(2,): 1, (1,): -2, (0,): 1}), Box((0,), (1,)), (1,), 1, 11,
    ),
    "lower_end": (Polynomial(1, {(1,): -1}), Polynomial(1, {(2,): 1}), Box((0,), (1,)), (0,), 0, 11),
}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("case", list(FACE_FEASIBLE))
def test_face_feasible_problem_converges(case, exact):
    # the vertex where the constraint's largest coefficient is smallest
    # (ties to the objective's) lies on the feasible face, so level 0 finds
    # the optimum there in both fields.  Before, exact level 0 found no
    # feasible point on any of them (D11: in 5 000 nodes), nor float on the
    # lower end, where an inner grid point was offered and contraction
    # halved the side toward the end without reaching it
    p, g, box, witness, optimum, nodes = FACE_FEASIBLE[case]
    F = Fraction if exact else float
    cfg = BnbConfig(level="0", exact=exact, max_boxes=5000)
    res = branch_and_bound(p.convert(F), (g.convert(F),), box, cfg)
    assert res.converged and tuple(map(Fraction, res.witness)) == witness
    assert res.upper_bound == optimum
    assert res.stats.subdivisions == nodes


def test_constraint_vertex_compares_scaled_constraints_and_breaks_ties_among_ties():
    # the first box's constraint is smallest at its upper vertex (0 < 1),
    # where the objective, 5, is as large as at the lower one: the tie
    # break looks at the tied vertices only.  The inner grid point, where
    # the constraint reads -3, is no vertex.  The second box's constraints
    # are (3/2, 1/2) and (2, 4) at its ends, so the largest is smaller at
    # the lower end, though the numerators (6 and 2 over 4) say otherwise
    numer = np.array([
        [[5, 0, 5], [1, -3, 0], [-1, -1, -1]],
        [[0, 0, 0], [6, 0, 2], [2, 0, 4]],
    ], dtype=object)
    batch = [(None, None, None, (1, 1, 1)), (None, None, None, (1, 4, 1))]
    corners = np.array([[[0], [1]], [[10], [20]]], dtype=object)
    assert bnb._constraint_vertex(corners, numer, batch).tolist() == [[1], [10]]
    # two axes: the one vertex with the constraint at 0 is (upper x, lower y)
    numer = np.array([[[[0, 0], [0, 0]], [[1, 1], [0, 1]]]], dtype=object)
    corners = np.array([[[0, 0], [1, 2]]], dtype=object)
    assert bnb._constraint_vertex(corners, numer, [(None, None, None, (1, 1))]).tolist() == [[1, 0]]
