import math
from fractions import Fraction

import pytest

from bernpop.bnb import (
    BnbConfig,
    SPLIT_LONGEST,
    SPLIT_ZERO,
    _RunState,
    _face,
    _monotonicity_signs,
    box_tensor,
    branch_and_bound,
    cutoff_test,
    edge_subproblem,
    format_report,
    report_row,
    sample_upper_bound,
    split_node,
)
from bernpop.bernstein import to_bernstein
from bernpop.poly import Box, Polynomial, to_unit_box
from conftest import algebraic4, himmelblau, himmelblau_exact, random_box, random_polynomial


def test_cutoff_prunes_above_incumbent():
    assert cutoff_test(5.0, 0.0, 1e-9)
    assert not cutoff_test(-1.0, 0.0, 1e-9)


def test_cutoff_boundary_arithmetic():
    eps = 1e-6
    assert cutoff_test(1.0 - eps / 2, 1.0, eps)
    assert not cutoff_test(1.0 - 2 * eps, 1.0, eps)


def test_cutoff_without_incumbent():
    assert not cutoff_test(-10.0, None, 1e-9)
    assert not cutoff_test(-10.0, math.inf, 1e-9)


def test_split_longest_edge():
    (left, _), (right, _) = split_node(Box((0.0, 0.0), (1.0, 1.0)), (), SPLIT_LONGEST)
    assert left.upper == (0.5, 1.0)
    assert right.lower == (0.5, 0.0)


def test_split_zero_centered():
    (left, _), (right, _) = split_node(Box((-1.0,), (1.0,)), (), SPLIT_ZERO)
    assert left.upper == (0.0,) and right.lower == (0.0,)
    (left, _), (right, _) = split_node(Box((-1.0,), (3.0,)), (), SPLIT_ZERO)
    assert left.upper == (0.0,) and right.lower == (0.0,)


def test_split_zero_centered_falls_back_to_midpoint():
    (left, _), (right, _) = split_node(Box((1.0,), (3.0,)), (), SPLIT_ZERO)
    assert left.upper == (2.0,)


def test_monotonicity_signs():
    x = Polynomial.variable(1, 0)
    assert _monotonicity_signs(box_tensor(x, Box((-2.0,), (5.0,)))) == ("+",)
    square = Polynomial(1, {(2,): 1})
    assert _monotonicity_signs(box_tensor(square, Box((-1.0,), (1.0,)))) == ("mixed",)
    assert _monotonicity_signs(box_tensor(square, Box((0.1,), (1.0,)))) == ("+",)
    assert _monotonicity_signs(box_tensor(square, Box((-1.0,), (-0.1,)))) == ("-",)


def test_edge_subproblem_single_axis():
    p = Polynomial(2, {(1, 0): 1, (0, 2): 1})  # x1 + x2^2
    reduced, rbox, fixed = edge_subproblem(p, Box((0.0, 0.0), (1.0, 1.0)), ("+", "mixed"))
    assert reduced.terms == {(2,): 1}
    assert rbox.lower == (0.0,) and rbox.upper == (1.0,)
    assert fixed == [(0, 0.0)]


def test_edge_subproblem_all_axes():
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    reduced, rbox, fixed = edge_subproblem(p, Box((0.0, 0.0), (1.0, 1.0)), ("+", "-"))
    assert rbox is None
    assert reduced.eval(()) == pytest.approx(-1.0)
    assert fixed == [(0, 0.0), (1, 1.0)]


def test_edge_subproblem_square_on_positive_interval():
    square = Polynomial(1, {(2,): 1})
    reduced, rbox, _ = edge_subproblem(square, Box((0.1,), (1.0,)), ("+",))
    assert rbox is None
    assert reduced.eval(()) == pytest.approx(0.01)


def test_sample_upper_bound_center():
    square = Polynomial(1, {(2,): 1})
    box = Box((-1.0,), (1.0,))
    q, amap = to_unit_box(square, box)
    center, grid = sample_upper_bound(box, to_bernstein(q, (2,)), amap)
    assert center == (0.0,) and square.eval(center) == pytest.approx(0.0)
    assert grid == (0.0,)  # the middle coefficient, -1, is the smallest


def test_sample_upper_bound_grid_argmin():
    box = Box((-5.0, -5.0), (5.0, 5.0))
    q, amap = to_unit_box(himmelblau(), box)
    bf = to_bernstein(q, (4, 4))
    points = sample_upper_bound(box, bf, amap)
    assert points[0] == (0.0, 0.0) and len(points) == 2
    assert himmelblau().eval(points[1]) >= 0.0
    # the state takes the lower of the two
    state = _RunState(himmelblau(), (), 10)
    for pt in points:
        state.offer(pt)
    assert state.incumbent == min(himmelblau().eval(pt) for pt in points)


def test_sample_upper_bound_infeasible():
    p = Polynomial(1, {(2,): 1})
    g = Polynomial(1, {(1,): 1, (0,): 1})  # x + 1 <= 0, never on [0,1]
    box = Box((0.0,), (1.0,))
    q, amap = to_unit_box(p, box)
    state = _RunState(p, (g,), 10)
    for pt in sample_upper_bound(box, to_bernstein(q, (2,)), amap):
        state.offer(pt)
    assert state.incumbent is None and state.witness is None


def test_config_validation():
    with pytest.raises(ValueError):
        BnbConfig(level="9")
    with pytest.raises(ValueError):
        BnbConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        BnbConfig(max_boxes=0)
    with pytest.raises(ValueError):
        BnbConfig(split="diagonal")


def test_univariate_square_all_levels():
    p = Polynomial(1, {(2,): 1})
    box = Box((-1.0,), (1.0,))
    for level in ("0", "first", "1", "2"):
        res = branch_and_bound(p, (), box, BnbConfig(level=level, epsilon=1e-9))
        assert res.converged
        assert res.lower_bound <= 0.0 <= res.upper_bound
        assert res.upper_bound - res.lower_bound <= 1e-6


def test_himmelblau_level0():
    res = branch_and_bound(
        himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0)),
        BnbConfig(level="0", epsilon=1e-9, max_boxes=50_000),
    )
    assert res.converged
    assert res.lower_bound <= 0.0 <= res.upper_bound
    assert res.upper_bound - res.lower_bound <= 1e-6
    assert himmelblau().eval(res.witness) == pytest.approx(res.upper_bound, abs=1e-12)


def test_bounds_bracket_known_optimum_anytime():
    # stop early: bounds must still bracket the optimum
    res = branch_and_bound(
        himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0)),
        BnbConfig(level="0", epsilon=1e-9, max_boxes=25),
    )
    assert not res.converged
    assert res.lower_bound <= 0.0 <= res.upper_bound


def test_algebraic4_level0():
    res = branch_and_bound(
        algebraic4(), (), Box((-0.1,) * 4, (0.1,) * 4),
        BnbConfig(level="0", epsilon=1e-3, max_boxes=50_000),
    )
    assert res.converged
    assert res.lower_bound <= -1.0 <= res.upper_bound
    assert res.upper_bound - res.lower_bound <= 1e-2


def test_constrained_run_semialgebraic():
    # minimize x1 + x2 on [0,1]^2 subject to 0.5 - x1 <= 0 (i.e. x1 >= 0.5)
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    g = Polynomial(2, {(0, 0): 0.5, (1, 0): -1.0})
    res = branch_and_bound(
        p, (g,), Box((0.0, 0.0), (1.0, 1.0)),
        BnbConfig(level="1", epsilon=1e-6, max_boxes=20_000),
    )
    assert res.lower_bound <= 0.5 + 1e-9
    assert res.upper_bound == pytest.approx(0.5, abs=1e-5)
    assert res.witness[0] >= 0.5 - 1e-9


def test_zero_centered_split_on_symmetric_problem():
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    res = branch_and_bound(
        p, (), Box((-1.0, -1.0), (1.0, 1.0)),
        BnbConfig(level="1", epsilon=1e-9, split="zero_centered"),
    )
    assert res.converged
    assert res.upper_bound == pytest.approx(0.0, abs=1e-12)
    assert res.lower_bound >= -1e-9


def test_level_dominance_on_himmelblau():
    subs = {}
    for level in ("0", "1", "2"):
        res = branch_and_bound(
            himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0)),
            BnbConfig(level=level, epsilon=1e-9, max_boxes=50_000),
        )
        assert res.converged
        subs[level] = res.stats.subdivisions
    assert subs["2"] <= subs["1"] <= subs["0"]


def test_exact_arithmetic_run():
    from fractions import Fraction

    p = Polynomial(1, {(2,): Fraction(1)})
    box = Box((Fraction(-1),), (Fraction(1),))
    res = branch_and_bound(p, (), box, BnbConfig(level="1", epsilon=1e-9, exact=True))
    assert res.converged
    assert isinstance(res.upper_bound, Fraction)
    assert res.upper_bound == 0
    assert res.lower_bound <= 0


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_exact_mode_on_float_box_computes_in_fractions(level):
    # exact mode converts a float box to Fractions (exactly), so the run is
    # the one on the matching Fraction box
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = x * x - y.scale(Fraction(1, 3)) + y * y
    cfg = BnbConfig(level=level, epsilon=1e-6, exact=True)
    on_floats = branch_and_bound(p, (), Box((-1.0, -1.0), (1.0, 1.0)), cfg)
    on_fractions = branch_and_bound(p, (), Box((Fraction(-1),) * 2, (Fraction(1),) * 2), cfg)
    for res in (on_floats, on_fractions):
        assert isinstance(res.lower_bound, Fraction) and isinstance(res.upper_bound, Fraction)
        assert all(isinstance(v, Fraction) for v in res.witness)
    assert on_floats.lower_bound == on_fractions.lower_bound
    assert on_floats.upper_bound == on_fractions.upper_bound
    assert on_floats.witness == on_fractions.witness
    if level == "1":
        assert on_floats.lower_bound == Fraction(-87383, 3145728)


def test_bound_soundness_on_random_boxes(rng):
    # every level's bound stays below a dense sample minimum on the box
    from bernpop.bernstein import to_bernstein
    from bernpop.relax import bound_at_level
    from conftest import grid_min, random_box, random_polynomial

    for _ in range(10):
        p = random_polynomial(rng, 2, 3)
        box = random_box(rng, 2)
        q, amap = to_unit_box(p, box)
        bf = to_bernstein(q)
        sampled = grid_min(p, box, 9)
        for level in ("0", "first", "1", "2"):
            out = bound_at_level(bf, level, mapping=amap)
            assert out.bound <= sampled + 1e-7


def test_report_row_and_format():
    res = branch_and_bound(
        Polynomial(1, {(2,): 1}), (), Box((-1.0,), (1.0,)),
        BnbConfig(level="0", epsilon=1e-6),
    )
    row = report_row("square", "0", res)
    assert row["label"] == "square" and row["opt"] == pytest.approx(res.upper_bound)
    text = format_report([row])
    assert "Sub" in text and "square" in text.splitlines()[1]


def _derivative_signs(p, box):
    """Reference sign test: convert every partial derivative on the box."""
    signs = []
    for r in range(p.dimension):
        d = p.derivative(r)
        if d.is_zero():
            signs.append("+")
            continue
        q, _ = to_unit_box(d, box)
        coeffs = to_bernstein(q).tensor
        signs.append("+" if coeffs.min() > 0 else "-" if coeffs.max() < 0 else "mixed")
    return tuple(signs)


def test_tensor_sign_test_at_least_as_decisive(rng):
    import itertools

    decisive = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n, 3)
        box = random_box(rng, n)
        signs = _monotonicity_signs(box_tensor(p, box))
        for ref, got in zip(_derivative_signs(p, box), signs):
            if ref != "mixed":
                assert got == ref
                decisive += 1
        # and never wrong: a decisive sign holds on a grid of the box
        axes = [[lo + (hi - lo) * k / 4 for k in range(5)] for lo, hi in zip(box.lower, box.upper)]
        for r, s in enumerate(signs):
            d = p.derivative(r)
            for pt in itertools.product(*axes):
                if s == "+":
                    assert d.eval(pt) >= -1e-9
                elif s == "-":
                    assert d.eval(pt) <= 1e-9
    assert decisive > 100


def test_face_slice_equals_restricted_conversion():
    from fractions import Fraction

    p = himmelblau_exact()
    box = Box((Fraction(1), Fraction(-2)), (Fraction(4), Fraction(3)))
    tensor = box_tensor(p, box, exact=True)
    for signs in (("+", "mixed"), ("-", "mixed"), ("mixed", "+"), ("mixed", "-")):
        reduced, rbox, _ = edge_subproblem(p, box, signs)
        assert (_face(tensor, signs) == box_tensor(reduced, rbox, (4,), exact=True)).all()


def _constrained_square():
    # minimise x^2 + y^2 - x on [-1,1]^2 subject to x + 1/2 <= 0
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0})
    g = Polynomial(2, {(1, 0): 1.0, (0, 0): 0.5})
    return p, g, Box((-1.0, -1.0), (1.0, 1.0))


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_infeasible_boxes_are_pruned(level):
    p, g, box = _constrained_square()
    res = branch_and_bound(p, (g,), box, BnbConfig(level=level, epsilon=1e-6))
    assert res.converged
    assert res.stats.infeasible_count > 0
    assert res.lower_bound <= 0.75 <= res.upper_bound <= 0.75 + 1e-6
    assert g.eval(res.witness) <= 0
    assert res.witness == pytest.approx((-0.5, 0.0), abs=1e-3)


def test_all_boxes_infeasible_ends_without_bounds():
    x = Polynomial.variable(1, 0)
    g = Polynomial(1, {(2,): 1.0, (0,): 2.0})  # x^2 + 2 <= 0 has no solution
    res = branch_and_bound(x, (g,), Box((-1.0,), (1.0,)), BnbConfig(level="1"))
    assert not res.converged
    assert res.lower_bound is None and res.upper_bound is None
    assert res.witness is None
    assert res.stats.infeasible_count == 1


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("level", ["1", "2"])
def test_infeasible_lp_prunes_the_box(level, exact):
    # x^2 + 1 <= 0 on [-1, 1]: the root coefficients of g are 2, 0, 2, so no
    # constraint tensor is positive, but the middle one is capped at 1/2 and
    # no z satisfies the row; the LP's infeasibility prunes the box
    one = Fraction(1) if exact else 1.0
    x = Polynomial(1, {(1,): one})
    g = Polynomial(1, {(2,): one, (0,): one})
    box = Box((-one,), (one,))
    res = branch_and_bound(x, (g,), box, BnbConfig(level=level, exact=exact))
    assert not res.converged
    assert res.lower_bound is None and res.upper_bound is None and res.witness is None
    assert res.stats.infeasible_count == 1
    assert res.stats.lp_solves == (1 if exact else 2)  # float adds the exact re-check


def test_lp_work_is_counted():
    p, box = himmelblau(), Box((-5.0, -5.0), (5.0, 5.0))
    l2 = branch_and_bound(p, (), box, BnbConfig(level="2", epsilon=1e-3)).stats
    assert l2.lp_solves > 0 and l2.lp_pivots > 0 and l2.lp_fallbacks == 0
    l0 = branch_and_bound(p, (), box, BnbConfig(level="0", epsilon=1e-3)).stats
    assert l0.lp_solves == 0 and l0.lp_pivots == 0
