from fractions import Fraction

import numpy as np
import pytest

from bernpop import relax, simplex
from bernpop.bernstein import BernsteinForm, to_bernstein, upper_bounds
from bernpop.bnb import box_tensor
from bernpop.poly import AffineMap, Box, Polynomial, to_unit_box
from bernpop.relax import (
    bound_at_level,
    build_cut_matrix,
    exactness_check,
    first_lp_bound,
    relax0,
)
from conftest import (
    assert_lp_duality,
    bernstein_basis_polynomial,
    bernstein_to_polynomial,
    cut_pairs,
    elevation_row,
    grid_min,
    himmelblau,
    iter_indices,
    monomial_bernstein_row,
    one_shot_lp,
    random_polynomial,
)


def _unit_form(p, box, degree=None, exact=False):
    if exact:
        p = Polynomial(p.dimension, {i: Fraction(c) for i, c in p.terms.items()})
        box = Box(
            tuple(Fraction(v) for v in box.lower),
            tuple(Fraction(v) for v in box.upper),
        )
    q, amap = to_unit_box(p, box)
    bf = to_bernstein(q, degree or q.degree)
    return bf, amap


def _square_sum_form(degree=(2, 2)):
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    return _unit_form(p, Box((-1.0, -1.0), (1.0, 1.0)), degree)


# -- level 0 ----------------------------------------------------------------


def test_relax0_himmelblau():
    bf, amap = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4))
    out = relax0(bf, amap)
    assert out.bound == pytest.approx(-1170.0, abs=1e-8)
    assert not out.exact


def test_relax0_square_sum():
    bf, amap = _square_sum_form()
    out = relax0(bf, amap)
    assert out.bound == pytest.approx(-2.0)


def test_relax0_constant_exact():
    bf = to_bernstein(Polynomial.constant(2, 1), (2, 2))
    out = relax0(bf)
    assert out.bound == 1 and out.exact
    assert out.witness == (0, 0)


# -- level 1 and the first-LP bound ------------------------------------------


def test_relax1_univariate_square():
    p = Polynomial(1, {(2,): 1})
    bf, amap = _unit_form(p, Box((-1.0,), (1.0,)), (2,))
    out = bound_at_level(bf, "1", u=upper_bounds((2,)), mapping=amap)
    assert out.bound == pytest.approx(0.0, abs=1e-12)
    assert out.exact
    assert out.witness[0] == pytest.approx(0.0)


def test_relax1_square_sum():
    bf, amap = _square_sum_form()
    out = bound_at_level(bf, "1", u=upper_bounds((2, 2)), mapping=amap)
    assert out.bound == pytest.approx(-0.5, abs=1e-12)


def test_relax1_himmelblau():
    bf, amap = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4))
    out = bound_at_level(bf, "1", u=upper_bounds((4, 4)), mapping=amap)
    assert out.bound == pytest.approx(-911.47, abs=0.01)


def test_relax1_matches_simplex(rng):
    # the greedy fill against an LP solve that does not trust it: an
    # LP-duality certificate, in Fractions, at the greedy basis of the
    # LP's exact image proves that basis optimal
    for _ in range(50):
        p = random_polynomial(rng, 2, 3)
        bf = to_bernstein(p)
        u = upper_bounds(bf.degree)
        greedy = bound_at_level(bf, "1", u=u)
        lp, sol = one_shot_lp([Fraction(v) for v in bf.tensor.ravel().tolist()],
                              [Fraction(v) for v in u], [], exact=True)
        assert_lp_duality(lp, sol)
        assert greedy.bound == pytest.approx(float(sol.value), abs=1e-8)


def test_first_lp_square_sum():
    bf, _ = _square_sum_form()
    assert first_lp_bound(bf, upper_bounds((2, 2))) == pytest.approx(-0.5, abs=1e-12)


def test_first_lp_nonnegative_coeffs():
    bf = to_bernstein(Polynomial(1, {(1,): 1, (0,): 2}), (2,))
    assert first_lp_bound(bf, upper_bounds((2,))) == bf.tensor.min()


def test_first_lp_below_relax1(rng):
    for _ in range(50):
        p = random_polynomial(rng, 2, 3)
        bf = to_bernstein(p)
        u = upper_bounds(bf.degree)
        assert first_lp_bound(bf, u) <= bound_at_level(bf, "1", u=u).bound + 1e-9


# -- cut matrix ---------------------------------------------------------------


def test_cut_matrix_row_counts():
    assert build_cut_matrix((4, 4)).row_count == 200
    assert build_cut_matrix((2, 2)).row_count == 27
    assert build_cut_matrix((1,)).row_count == 1


def test_cut_matrix_row_count_formula():
    # sum over K <= delta of the block sizes, minus the K = delta block
    for degree in [(3, 2), (1, 2, 1), (4, 2)]:
        total = 1
        for d in degree:
            total *= sum(range(1, d + 2))
        top = 1
        for d in degree:
            top *= d + 1
        assert build_cut_matrix(degree).row_count == total - top


def test_cut_matrix_univariate_row():
    [(coeffs, rhs)] = build_cut_matrix((1,)).rows([0])
    assert coeffs == [1.0, 1.0] and rhs == 1.0
    assert cut_pairs((1,)) == [((0,), (0,))]


def test_cut_matrix_rows_nonnegative_rhs_in_unit():
    cuts = build_cut_matrix((2, 2))
    for coeffs, rhs in cuts.rows(range(cuts.row_count)):
        assert all(c >= 0 for c in coeffs)
        assert 0 < rhs <= 1


def test_cut_matrix_rows_match_elevation(rng):
    # rows(ids) in both fields against one elevation row at a time, with
    # the ids in the order cut_pairs lists: (|K|, K lex, I lex)
    for exact in (False, True):
        for degree in [(4,), (3, 2), (1, 2, 1), (0, 3), (2, 2, 2)]:
            cuts = build_cut_matrix(degree, exact)
            pairs = cut_pairs(degree)
            keys = [(sum(low), low, idx) for idx, low in pairs]
            assert len(pairs) == cuts.row_count and keys == sorted(set(keys))
            rows = cuts.rows(range(cuts.row_count))
            for (coeffs, rhs), (idx, low) in zip(rows, pairs):
                assert coeffs == elevation_row(idx, low, degree, exact)
                peak = Fraction(1) if exact else 1.0
                for i, k in zip(idx, low):
                    peak *= relax._beta_peak(i, k, exact)
                assert rhs == peak and type(rhs) is type(peak)
            ids = rng.sample(range(cuts.row_count), min(5, cuts.row_count))
            assert cuts.rows(ids) == [rows[i] for i in ids]
            assert cuts.rows([]) == []


def _scan_vectors(rng, degree) -> list:
    """Rational z to scan: level-1 optima of costly-corner instances (they
    violate elevation rows), a point mass, and a mixture of up to eight
    point masses."""
    u = upper_bounds(degree, exact=True)
    out = [
        bound_at_level(_costly_corner_instance(rng, degree, False)[0], "1", u=u, exact=True).z
        for _ in range(2)
    ]
    mass = [Fraction(0)] * len(u)
    mass[rng.randrange(len(u))] = Fraction(1)
    mix = [Fraction(0)] * len(u)
    for j in rng.sample(range(len(u)), min(8, len(u))):
        mix[j] = Fraction(rng.randint(1, 9))
    return out + [mass, [w / sum(mix) for w in mix]]


def _brute_force_scan(rows, z, tol) -> list:
    """Violated rows by one dot product per materialized row."""
    support = [(j, v) for j, v in enumerate(z) if v]
    return [i for i, (a, b) in enumerate(rows) if sum(a[j] * v for j, v in support) > b + tol]


@pytest.mark.parametrize("degree", [(4,), (3, 2), (1, 2, 1), (0, 3), (2, 2, 2), (4, 4, 6)])
@pytest.mark.parametrize("exact", [False, True])
def test_scan_matches_brute_force(rng, degree, exact):
    cuts = build_cut_matrix(degree, exact)
    rows = cuts.rows(range(cuts.row_count))
    tol = 0 if exact else 1e-9
    found = 0
    for z in _scan_vectors(rng, degree):
        if not exact:
            z = [float(v) for v in z]
        hits = cuts.scan_violations(z, tol, set())
        assert hits == sorted(hits) == _brute_force_scan(rows, z, tol)
        found += len(hits)
        skip = set(rng.sample(hits, len(hits) // 2)) | set(rng.sample(range(cuts.row_count), 3))
        assert cuts.scan_violations(z, tol, skip) == [i for i in hits if i not in skip]
    assert found  # the vectors do violate rows


def test_float_and_exact_scans_agree_at_degree_4444(rng):
    degree = (4, 4, 4, 4)
    cuts_q, cuts_f = build_cut_matrix(degree, exact=True), build_cut_matrix(degree)
    assert cuts_q.row_count == cuts_f.row_count == 50_000
    bf, _ = _costly_corner_instance(rng, degree, False)
    z = bound_at_level(bf, "1", u=upper_bounds(degree, exact=True), exact=True).z
    hits = cuts_q.scan_violations(z, Fraction(1, 10**9), set())
    assert hits and hits == cuts_f.scan_violations([float(v) for v in z], 1e-9, set())


# -- level 2 -------------------------------------------------------------------


def test_relax2_square_sum_exact_value():
    bf, amap = _square_sum_form()
    u = upper_bounds((2, 2))
    cuts = build_cut_matrix((2, 2))
    out = bound_at_level(bf, "2", u=u, cuts=cuts, mapping=amap)
    assert out.bound == pytest.approx(0.0, abs=1e-9)
    assert out.exact


def test_relax2_himmelblau():
    bf, amap = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4))
    u = upper_bounds((4, 4))
    cuts = build_cut_matrix((4, 4))
    out = bound_at_level(bf, "2", u=u, cuts=cuts, mapping=amap)
    assert out.bound == pytest.approx(-856.42, abs=0.01)
    assert len(out.activated_rows) <= 10


def test_relax2_constant():
    bf = to_bernstein(Polynomial.constant(2, 1), (2, 2))
    out = bound_at_level(bf, "2", u=upper_bounds((2, 2)), cuts=build_cut_matrix((2, 2)))
    assert out.bound == pytest.approx(1.0)
    assert out.activated_rows == ()


def test_iterative_equals_monolithic(rng):
    for _ in range(10):
        p = random_polynomial(rng, 2, 2)
        bf = to_bernstein(p, (2, 2))
        u = upper_bounds((2, 2))
        cuts = build_cut_matrix((2, 2))
        it = bound_at_level(bf, "2", u=u, cuts=cuts)
        _, mono = one_shot_lp(bf.tensor, u, cuts.rows(range(cuts.row_count)))
        assert it.bound == pytest.approx(mono.value, abs=1e-8)


def test_relaxation_ordering_and_soundness(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n, 3 if n < 3 else 2)
        bf = to_bernstein(p)
        u = upper_bounds(bf.degree)
        cuts = build_cut_matrix(bf.degree)
        p0 = relax0(bf).bound
        pf = first_lp_bound(bf, u)
        p1 = bound_at_level(bf, "1", u=u).bound
        p2 = bound_at_level(bf, "2", u=u, cuts=cuts).bound
        box = Box((0.0,) * n, (1.0,) * n)
        sampled = grid_min(p, box, 9 if n < 3 else 7)
        assert p0 <= pf + 1e-9
        assert pf <= p1 + 1e-8
        assert p1 <= p2 + 1e-8
        assert p2 <= sampled + 1e-7


def test_feasibility_of_true_points(rng):
    # z_I = B_I(x) satisfies every relaxation constraint for x in the box
    degree = (2, 2)
    cuts = build_cut_matrix(degree)
    u = upper_bounds(degree)
    for _ in range(100):
        x = (rng.random(), rng.random())
        z = [
            float(b)
            for b in (
                bernstein_basis_polynomial(idx, degree).eval(x)
                for idx in iter_indices(degree)
            )
        ]
        assert sum(z) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= -1e-12 for v in z)
        assert all(v <= ub + 1e-9 for v, ub in zip(z, u))
        assert cuts.scan_violations(z, 1e-7, set()) == []


def test_relax2_monotone_in_degree():
    q, _ = to_unit_box(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)))
    bounds = []
    for d in ((4, 4), (5, 4), (5, 5), (6, 6)):
        bf = to_bernstein(q, d)
        out = bound_at_level(bf, "2", u=upper_bounds(d), cuts=build_cut_matrix(d))
        bounds.append(out.bound)
    for weaker, stronger in zip(bounds, bounds[1:]):
        assert weaker <= stronger + 1e-7


# -- exactness recovery ---------------------------------------------------------


def test_exactness_check_accepts_univariate_optimum():
    amap = AffineMap.from_box(Box((-1.0,), (1.0,)))
    witness = exactness_check([0.25, 0.5, 0.25], (2,), amap)
    assert witness is not None
    assert witness[0] == pytest.approx(0.0)


def test_exactness_check_accepts_corner_indicator():
    z = [0.0] * 8 + [1.0]
    witness = exactness_check(z, (2, 2))
    assert witness == (1.0, 1.0)


def test_exactness_check_rejects_bivariate_vertex_solution():
    bf, amap = _square_sum_form()
    u = upper_bounds((2, 2))
    cuts = build_cut_matrix((2, 2))
    out = bound_at_level(bf, "2", u=u, cuts=cuts, mapping=amap)
    # the solver's optimal z is a basic solution, never the basis-value
    # vector of a single point here
    assert exactness_check(out.z, (2, 2), amap) is None
    # yet the bound itself is exact (caught through a candidate point)
    assert out.exact


# -- side-constraint rows --------------------------------------------------------
# a constraint g(x) <= 0 is the row b(g) . z <= 0, read off g's coefficient
# tensor at the relaxation degree, as the branch-and-bound and the CLI build it

_UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def _constraint_row(g, degree):
    return box_tensor(g, _UNIT_SQUARE, degree).ravel().tolist(), 0.0


def test_polyhedral_rows_enumeration():
    # x1 + x2 <= 1: the row is sum_I (i1 + i2 - 1) z_I at degree (1,1)
    g = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0})
    coeffs, rhs = _constraint_row(g, (1, 1))
    assert coeffs == [-1.0, 0.0, 0.0, 1.0]
    assert rhs == 0.0


def test_polyhedral_redundant_constraint():
    bf, _ = _square_sum_form()
    u = upper_bounds((2, 2))
    base = bound_at_level(bf, "1", u=u)
    g = Polynomial(2, {(1, 0): 1.0, (0, 0): -1.0})  # x1 <= 1
    constrained = bound_at_level(bf, "1", u=u, extra_rows=[_constraint_row(g, (2, 2))])
    assert constrained.bound == pytest.approx(base.bound, abs=1e-9)


def test_semialgebraic_row_shapes():
    g = Polynomial(2, {(0, 0): -1.0})  # always satisfied
    row = _constraint_row(g, (2, 2))
    assert row[0] == [-1.0] * 9 and row[1] == 0.0

    g2 = Polynomial(2, {(1, 0): 1.0, (0, 0): -1.0})  # x1 - 1 <= 0
    row2 = _constraint_row(g2, (2, 2))[0]
    mono = monomial_bernstein_row((1, 0), (2, 2))
    assert row2 == pytest.approx([m - 1.0 for m in mono])


def test_semialgebraic_slack_constraint_no_change():
    bf, _ = _square_sum_form()
    u = upper_bounds((2, 2))
    base = bound_at_level(bf, "2", u=u, cuts=build_cut_matrix((2, 2)))
    # g = q - c with c above the max coefficient is never active
    q_poly = bernstein_to_polynomial(bf)
    slack = q_poly - Polynomial.constant(2, bf.tensor.max() + 1.0)
    rows = [_constraint_row(slack, (2, 2))]
    constrained = bound_at_level(bf, "2", u=u, cuts=build_cut_matrix((2, 2)), extra_rows=rows)
    assert constrained.bound == pytest.approx(base.bound, abs=1e-7)


def test_semialgebraic_degree_overflow():
    g = Polynomial(2, {(3, 0): 1.0})
    with pytest.raises(ValueError):
        _constraint_row(g, (2, 2))


# -- dispatch -------------------------------------------------------------------


def test_bound_at_level_dispatch():
    bf, amap = _square_sum_form()
    assert bound_at_level(bf, "0").bound == pytest.approx(-2.0)
    assert bound_at_level(bf, "first").bound == pytest.approx(-0.5)
    assert bound_at_level(bf, "1").bound == pytest.approx(-0.5)
    assert bound_at_level(bf, "2").bound == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        bound_at_level(bf, "3")


def test_exact_mode_relaxations():
    bf, amap = _unit_form(
        himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4), exact=True
    )
    out = relax0(bf, amap)
    assert out.bound == Fraction(-1170)
    u = upper_bounds((4, 4), exact=True)
    r1 = bound_at_level(bf, "1", u=u, mapping=amap, exact=True)
    assert abs(float(r1.bound) + 911.47) < 0.01
    assert isinstance(r1.bound, Fraction)


# -- warm-started cut loop --------------------------------------------------


def _costly_corner_instance(rng, degree, with_rows):
    """Exact coefficients (corners made dear, so elevation rows bind), caps,
    and optionally two side rows that the basis values at a random point
    satisfy, which keeps the full level-2 LP feasible."""
    coeffs = []
    for idx in iter_indices(degree):
        v = Fraction(rng.randint(-40, 40), 8)
        if all(i in (0, d) for i, d in zip(idx, degree)):
            v += 25
        coeffs.append(v)
    bf = BernsteinForm(np.array(coeffs, dtype=object).reshape([d + 1 for d in degree]))
    rows = []
    if with_rows:
        point = [Fraction(rng.randint(1, 7), 8) for _ in degree]
        z0 = relax._basis_values(point, degree, exact=True)
        for _ in range(2):
            a = [Fraction(rng.randint(-8, 8), 4) for _ in z0]
            rows.append((a, sum(x * y for x, y in zip(a, z0)) + Fraction(rng.randint(0, 4), 16)))
    return bf, rows


def _float_image(bf, rows):
    fbf = BernsteinForm(bf.tensor.astype(float))
    return fbf, [([float(v) for v in a], float(b)) for a, b in rows]


def _all_rows(cuts):
    return cuts.rows(range(cuts.row_count))


def _record_solves(monkeypatch) -> list:
    """Every (lp, solution) pair that goes through ``simplex.solve``."""
    solved = []
    real = simplex.solve

    def recording(lp):
        sol = real(lp)
        solved.append((lp, sol))
        return sol

    monkeypatch.setattr(simplex, "solve", recording)
    return solved


def _assert_exact_optimal(solved, bf, u, active, out):
    """The exact outcome is the optimum of the LP with the ``active`` rows:
    the loop's final ``CutLP`` (a fresh one when the greedy fill needed no
    solve) holds those rows and carries a duality certificate for the
    outcome's value."""
    lp, sol = solved[-1] if solved else one_shot_lp(bf.tensor, u, active, exact=True)
    assert lp._rows == list(active)
    assert_lp_duality(lp, sol)
    assert out.bound == sol.value


def _assert_exact_level2_optimal(solved, bf, u, cuts, rows, out):
    """The certificate proves the loop's value optimal over the rows it
    activated, and the loop's z violates no row of the full system.  The
    full LP's feasible set lies inside the active one and contains z, so
    the full optimum is that value too."""
    active = list(rows) + cuts.rows(out.activated_rows)
    _assert_exact_optimal(solved, bf, u, active, out)
    assert cuts.scan_violations(out.z, 0, set()) == []


@pytest.mark.parametrize("degree", [(2, 2), (3, 2), (4, 4), (2, 2, 2), (6,)])
@pytest.mark.parametrize("with_rows", [False, True])
def test_warm_loop_equals_cold_full_lp(rng, monkeypatch, degree, with_rows):
    cuts_q = build_cut_matrix(degree, exact=True)
    cuts_f = build_cut_matrix(degree)
    u_q, u_f = upper_bounds(degree, exact=True), upper_bounds(degree)
    solved = _record_solves(monkeypatch)
    pivots = 0
    for trial in range(3):
        bf_q, rows_q = _costly_corner_instance(rng, degree, with_rows)
        bf_f, rows_f = _float_image(bf_q, rows_q)
        warm = bound_at_level(bf_f, "2", u=u_f, cuts=cuts_f, extra_rows=rows_f)
        _, cold = one_shot_lp(bf_f.tensor, u_f, rows_f + _all_rows(cuts_f))
        assert warm.bound == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
        pivots += warm.pivots

        solved.clear()
        warm_q = bound_at_level(bf_q, "2", u=u_q, cuts=cuts_q, extra_rows=rows_q, exact=True)
        assert isinstance(warm_q.bound, Fraction)
        _assert_exact_level2_optimal(solved, bf_q, u_q, cuts_q, rows_q, warm_q)
        assert warm.bound == pytest.approx(float(warm_q.bound), rel=1e-9, abs=1e-12)
        if trial == 0 and cuts_q.row_count <= 30:  # the exact one-shot LP of every row is slow
            lp, mono = one_shot_lp(bf_q.tensor, u_q, rows_q + _all_rows(cuts_q), exact=True)
            assert_lp_duality(lp, mono)
            assert warm_q.bound == mono.value

        solved.clear()
        lp1_q = bound_at_level(bf_q, "1", u=u_q, extra_rows=rows_q, exact=True)
        _assert_exact_optimal(solved, bf_q, u_q, rows_q, lp1_q)
        lp1_f = bound_at_level(bf_f, "1", u=u_f, extra_rows=rows_f)
        assert lp1_f.bound == pytest.approx(float(lp1_q.bound), rel=1e-9, abs=1e-12)
    assert pivots > 0  # the instances exercise the dual simplex


@pytest.mark.parametrize(
    "name, degree, coeffs, rows",
    [
        # all coefficients equal: every greedy tie breaks by index
        ("equal", (1, 2), [1] * 6, [([1, 1, 1, 0, 0, 0], Fraction(1, 2))]),
        # the cheapest corner takes the whole mass at its cap: no fractional variable
        ("capped", (2,), [0, 1, 2], [([1, 0, 0], Fraction(1, 2))]),
        # a degree-0 axis
        ("flat axis", (3, 0), [3, -2, -1, 4], [([0, 1, 0, 0], Fraction(1, 4))]),
        # the one-variable LP
        ("one variable", (0,), [3], [([1], 2)]),
    ],
)
@pytest.mark.parametrize("with_rows", [False, True])
def test_warm_loop_degenerate_starts(monkeypatch, name, degree, coeffs, rows, with_rows):
    rows = rows if with_rows else []
    bf_q = BernsteinForm(
        np.array([Fraction(v) for v in coeffs], dtype=object).reshape([d + 1 for d in degree])
    )
    rows_q = [([Fraction(v) for v in a], Fraction(b)) for a, b in rows]
    bf_f, rows_f = _float_image(bf_q, rows_q)
    solved = _record_solves(monkeypatch)

    u_q, cuts_q = upper_bounds(degree, exact=True), build_cut_matrix(degree, True)
    warm_q = bound_at_level(bf_q, "2", u=u_q, cuts=cuts_q, extra_rows=rows_q, exact=True)
    _assert_exact_level2_optimal(solved, bf_q, u_q, cuts_q, rows_q, warm_q)
    lp, mono = one_shot_lp(bf_q.tensor, u_q, rows_q + _all_rows(cuts_q), exact=True)
    assert_lp_duality(lp, mono)
    assert warm_q.bound == mono.value
    solved.clear()
    lp1_q = bound_at_level(bf_q, "1", u=u_q, extra_rows=rows_q, exact=True)
    _assert_exact_optimal(solved, bf_q, u_q, rows_q, lp1_q)

    u_f, cuts_f = upper_bounds(degree), build_cut_matrix(degree)
    warm = bound_at_level(bf_f, "2", u=u_f, cuts=cuts_f, extra_rows=rows_f)
    _, cold = one_shot_lp(bf_f.tensor, u_f, rows_f + _all_rows(cuts_f))
    lp1 = bound_at_level(bf_f, "1", u=u_f, extra_rows=rows_f)
    pairs = ((warm.bound, cold.value), (warm.bound, warm_q.bound), (lp1.bound, lp1_q.bound))
    for got, want in pairs:
        assert got == pytest.approx(float(want), rel=1e-9, abs=1e-12)


def test_greedy_names_the_basic_variable():
    # c = (2, 0, 1), caps (1, 1/2, 1): z1 fills its cap, z2 takes the rest
    bound, z, last = relax._greedy_knapsack([2, 0, 1], [1, Fraction(1, 2), 1], True)
    assert (bound, z, last) == (Fraction(1, 2), [0, Fraction(1, 2), Fraction(1, 2)], 2)
    # the cheapest corner takes all the mass at its cap
    assert relax._greedy_knapsack([0.0, 1.0, 2.0], [1.0, 0.5, 1.0], False)[1:] == ([1.0, 0.0, 0.0], 0)


def test_exact_loop_never_refactorizes(monkeypatch):
    calls = []
    original = simplex.CutLP._refactor

    def counting(self):
        calls.append(self.exact)
        original(self)

    monkeypatch.setattr(simplex.CutLP, "_refactor", counting)
    for exact in (True, False):
        bf, _ = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4), exact=exact)
        u = upper_bounds((4, 4), exact=exact)
        out = bound_at_level(bf, "2", u=u, cuts=build_cut_matrix((4, 4), exact), exact=exact)
        assert out.pivots > 0
    assert calls and not any(calls)  # only the float run refactorized


def test_float_infeasibility_is_confirmed_exactly(monkeypatch):
    # a float verdict of infeasibility is re-checked in Fractions before a
    # box may be pruned; a verdict the exact solve refutes is an error
    bf, _ = _square_sum_form()
    u = upper_bounds((2, 2))
    row = ([1.0] * 9, 2.0)  # harmless: sum z = 1 already
    real = simplex.CutLP.reoptimize

    def lying(self):
        return real(self) if self.exact else simplex.LPSolution(simplex.INFEASIBLE)

    monkeypatch.setattr(simplex.CutLP, "reoptimize", lying)
    with pytest.raises(RuntimeError, match="exact re-solve"):
        bound_at_level(bf, "1", u=u, extra_rows=[row])


@pytest.mark.parametrize("exact", [False, True])
def test_infeasible_lp_is_an_outcome(exact):
    # x^2 + 1 <= 0 on [-1, 1]: coefficients 2, 0, 2, and the middle cap is 1/2
    one = Fraction(1) if exact else 1.0
    bf = to_bernstein(Polynomial(1, {(1,): one}), (2,))
    rows = [([2 * one, 0 * one, 2 * one], 0 * one)]
    u = upper_bounds((2,), exact=exact)
    for out in (
        bound_at_level(bf, "1", u=u, extra_rows=rows, exact=exact),
        bound_at_level(bf, "2", u=u, extra_rows=rows, exact=exact),
    ):
        assert out.infeasible and out.bound is None
        assert out.lp_solves == (1 if exact else 2)  # float adds the exact re-check


def test_lp_counters():
    bf, amap = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4))
    u = upper_bounds((4, 4))
    out2 = bound_at_level(bf, "2", u=u)
    assert out2.lp_solves > 0 and out2.pivots > 0 and out2.lp_fallbacks == 0
    for level in ("0", "first", "1"):
        out = bound_at_level(bf, level, u=u)
        assert out.lp_solves == 0 and out.pivots == 0


def test_bound_without_rows_builds_no_lp(monkeypatch):
    built = []
    real = simplex.CutLP

    class Counting(real):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simplex, "CutLP", Counting)
    # level 1 with no side rows: the greedy fill and its certificate
    bf, amap = _unit_form(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)), (4, 4))
    u = upper_bounds((4, 4))
    out = bound_at_level(bf, "1", u=u, mapping=amap)
    bound, z, _ = relax._greedy_knapsack(bf.tensor, u, False)
    assert (out.bound, out.z) == (bound, z)
    assert (out.exact, out.witness) == relax._certify(bf, z, bound, amap, False)
    assert out.lp_solves == out.iterations == 0 and not built
    # level 2 where the greedy fill violates no cut: x + y, whose greedy
    # fill is the indicator of the corner (0, 0)
    for exact in (False, True):
        one = Fraction(1) if exact else 1.0
        bf = to_bernstein(Polynomial(2, {(1, 0): one, (0, 1): one}), (2, 2), exact)
        out = bound_at_level(bf, "2", exact=exact)
        assert out.bound == 0 and isinstance(out.bound, type(one))
        assert out.z == [one] + [0 * one] * 8
        assert out.exact and out.witness == (0, 0)
        assert out.iterations == 1 and out.activated_rows == () and out.lp_solves == 0
    assert not built
    # a bound with rows does build its LP
    bound_at_level(_square_sum_form()[0], "2")
    assert len(built) == 1


def test_level2_against_highs():
    optimize = pytest.importorskip("scipy.optimize")
    import random

    rng = random.Random(5)
    for degree in ((3, 3), (2, 2, 2), (6,)):
        cuts = build_cut_matrix(degree)
        u = upper_bounds(degree)
        rows = cuts.rows(range(cuts.row_count))
        for _ in range(3):
            bf, _ = _float_image(*_costly_corner_instance(rng, degree, False))
            res = optimize.linprog(
                bf.tensor.ravel(),
                A_ub=[r for r, _ in rows], b_ub=[b for _, b in rows],
                A_eq=[[1.0] * len(u)], b_eq=[1.0],
                bounds=list(zip([0.0] * len(u), u)), method="highs",
            )
            assert res.status == 0
            ours = bound_at_level(bf, "2", u=u, cuts=cuts).bound
            assert ours == pytest.approx(res.fun, rel=1e-7, abs=1e-7)
