import math
from fractions import Fraction

import pytest

from bernpop import bnb
from bernpop.bnb import (
    BnbConfig,
    SPLIT_LONGEST,
    SPLIT_ZERO,
    _RunState,
    _face,
    _monotonicity_signs,
    branch_and_bound,
    cutoff_test,
    edge_subproblem,
    format_report,
    report_row,
    sample_upper_bound,
    split_node,
)
from bernpop.bernstein import FLOAT, BernsteinForm, to_bernstein
from bernpop.poly import Box, Polynomial, restrict_facet, to_unit_box
from bernpop.problems import load_fixture, load_problem
from bernpop.relax import RelaxationOutcome, nominal_point
from conftest import algebraic4, box_tensor, himmelblau, himmelblau_exact, random_box, random_polynomial


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
    def signs(p, box):
        return _monotonicity_signs(BernsteinForm(box_tensor(p, box)))

    x = Polynomial.variable(1, 0)
    assert signs(x, Box((-2.0,), (5.0,))) == ("+",)
    square = Polynomial(1, {(2,): 1})
    assert signs(square, Box((-1.0,), (1.0,))) == ("mixed",)
    assert signs(square, Box((0.1,), (1.0,))) == ("+",)
    assert signs(square, Box((-1.0,), (-0.1,))) == ("-",)


def test_edge_subproblem_single_axis():
    p = Polynomial(2, {(1, 0): 1, (0, 2): 1})  # x1 + x2^2
    box = Box((0.0, 0.0), (1.0, 1.0))
    rbox, fixed = edge_subproblem(box, ("+", "mixed"))
    assert rbox.lower == (0.0,) and rbox.upper == (1.0,)
    assert fixed == [(0, 0.0)]
    # the face tensor is x2^2's on the reduced box
    face = _face(box_tensor(p, box), ("+", "mixed"))
    assert (face == box_tensor(Polynomial(1, {(2,): 1}), rbox, (2,))).all()


def test_edge_subproblem_all_axes():
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    box = Box((0.0, 0.0), (1.0, 1.0))
    rbox, fixed = edge_subproblem(box, ("+", "-"))
    assert rbox is None
    assert _face(box_tensor(p, box), ("+", "-")).item() == pytest.approx(-1.0)
    assert fixed == [(0, 0.0), (1, 1.0)]


def test_edge_subproblem_square_on_positive_interval():
    square = Polynomial(1, {(2,): 1})
    box = Box((0.1,), (1.0,))
    rbox, _ = edge_subproblem(box, ("+",))
    assert rbox is None
    assert _face(box_tensor(square, box), ("+",)).item() == pytest.approx(0.01)


def test_fully_fixed_vertex_contributes_its_coefficient(monkeypatch):
    # x^2 on [1/10, 1] is increasing, so the monotone step fixes its only
    # axis; a bound that is not past the cutoff reaches it,
    # and the vertex contributes the face's one coefficient, p(1/10)
    square = Polynomial(1, {(2,): Fraction(1)})
    weak = lambda bf, *args, **kwargs: RelaxationOutcome(bound=bf.minimum[0] - 1)
    monkeypatch.setattr(bnb, "bound_at_level", weak)
    box = Box((Fraction(1, 10),), (Fraction(1),))
    res = branch_and_bound(square, (), box, BnbConfig(level="0", exact=True))
    assert res.stats.mono_count == 1 and res.stats.subdivisions == 1
    assert res.lower_bound == square.eval((Fraction(1, 10),)) == Fraction(1, 100)
    assert res.upper_bound == Fraction(1, 100) and res.witness == (Fraction(1, 10),)
    assert res.converged


def test_sample_upper_bound_center():
    square = Polynomial(1, {(2,): 1})
    box = Box((-1.0,), (1.0,))
    q, _ = to_unit_box(square, box)
    center, grid = sample_upper_bound(box, to_bernstein(q, (2,)))
    assert center == (0.0,) and square.eval(center) == pytest.approx(0.0)
    assert grid == (0.0,)  # the middle coefficient, -1, is the smallest


def test_sample_upper_bound_grid_argmin():
    box = Box((-5.0, -5.0), (5.0, 5.0))
    q, _ = to_unit_box(himmelblau(), box)
    bf = to_bernstein(q, (4, 4))
    points = sample_upper_bound(box, bf)
    assert points[0] == (0.0, 0.0) and len(points) == 2
    assert himmelblau().eval(points[1]) >= 0.0
    # the state takes the lower of the two
    state = _RunState(himmelblau(), (), BnbConfig(max_boxes=10))
    for pt in points:
        state.offer(pt)
    assert state.incumbent == min(himmelblau().eval(pt) for pt in points)


def test_sample_upper_bound_infeasible():
    p = Polynomial(1, {(2,): 1})
    g = Polynomial(1, {(1,): 1, (0,): 1})  # x + 1 <= 0, never on [0,1]
    box = Box((0.0,), (1.0,))
    q, _ = to_unit_box(p, box)
    state = _RunState(p, (g,), BnbConfig(max_boxes=10))
    for pt in sample_upper_bound(box, to_bernstein(q, (2,))):
        state.offer(pt)
    assert state.incumbent is None and state.witness is None


def test_config_validation():
    with pytest.raises(ValueError):
        BnbConfig(level="9")
    with pytest.raises(ValueError):
        BnbConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        BnbConfig(max_boxes=0)


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
    # x^2 + y^2 on [-1, 1]^2: two splits at zero leave four orthant boxes,
    # each with the minimum 0 at its origin corner as a coefficient, so each
    # box's smallest coefficient is the exact minimum
    box = Box((-1.0, -1.0), (1.0, 1.0))
    (root,) = bnb.relaxation_tensors(Polynomial(2, {(2, 0): 1, (0, 2): 1}), (), box)
    assert root.min() < 0
    orthants = []
    for half, (t,) in split_node(box, (root,), SPLIT_ZERO):
        orthants += split_node(half, (t,), SPLIT_ZERO)
    assert sorted((b.lower, b.upper) for b, _ in orthants) == [
        ((-1.0, -1.0), (0.0, 0.0)), ((-1.0, 0.0), (0.0, 1.0)),
        ((0.0, -1.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)),
    ]
    assert all(t.min() == 0.0 for _, (t,) in orthants)


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
    # -1/36 is the true minimum, at (0, 1/6)
    assert on_floats.lower_bound <= Fraction(-1, 36) <= on_floats.upper_bound
    if level == "1":
        # the box that sets the lower bound stops at its smallest
        # coefficient, which already reaches the cutoff
        assert on_floats.lower_bound == Fraction(-3641, 131072)
        assert on_floats.upper_bound == Fraction(-29127, 1048576)


@pytest.mark.parametrize("level", ["0", "2"])
def test_exact_mode_on_float_coefficients_computes_in_fractions(level):
    # x^2 - 0.3x: exact mode takes the float coefficients at their exact
    # ratios, so the run, incumbent included, is the one on Fraction(c)
    on_floats = Polynomial(1, {(2,): 1.0, (1,): -0.3})
    on_fractions = on_floats.convert(Fraction)
    cfg = BnbConfig(level=level, exact=True)
    box = Box((-1.0,), (1.0,))
    got, want = (branch_and_bound(p, (), box, cfg) for p in (on_floats, on_fractions))
    assert isinstance(got.upper_bound, Fraction) and isinstance(got.lower_bound, Fraction)
    assert (got.lower_bound, got.upper_bound, got.witness) == (
        want.lower_bound, want.upper_bound, want.witness
    )
    assert got.lower_bound <= on_fractions.eval((Fraction(0.15),)) <= got.upper_bound
    # the incumbent is a Fraction even where Polynomial.eval gives the int 0
    zero = branch_and_bound(Polynomial.zero(1), (), box, cfg)
    assert zero.upper_bound == zero.lower_bound == 0 and isinstance(zero.upper_bound, Fraction)


def test_bound_soundness_on_random_boxes(rng):
    # every level's bound stays below a dense sample minimum on the box
    from bernpop.bernstein import FLOAT, BernsteinForm, to_bernstein
    from bernpop.relax import bound_at_level
    from conftest import grid_min, random_box, random_polynomial

    for _ in range(10):
        p = random_polynomial(rng, 2, 3)
        box = random_box(rng, 2)
        q, _ = to_unit_box(p, box)
        bf = to_bernstein(q)
        sampled = grid_min(p, box, 9)
        for level in ("0", "first", "1", "2"):
            out = bound_at_level(bf, level)
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
        if not d.terms:
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
        signs = _monotonicity_signs(BernsteinForm(box_tensor(p, box)))
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
        rbox, [(axis, value)] = edge_subproblem(box, signs)
        reduced = restrict_facet(p, axis, value)
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


def _d2_repro():
    """x^2 + y^2 - x on [-1, 1]^2 subject to x + 1/2 <= 0: the box that
    violates the constraint once crashed levels 1 and 2."""
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0})
    g = Polynomial(2, {(1, 0): 1.0, (0, 0): 0.5})
    return p, (g,), Box((-1.0, -1.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "case, level, min_box_width",  # the width patches bnb.MIN_BOX_WIDTH
    [
        ("himmelblau", "0", 1e-12),
        ("himmelblau", "2", 1e-12),
        ("d2", "2", 1e-12),
        ("himmelblau", "0", 0.5),
        # 50 nodes: the budget runs out inside an edge subproblem, and both
        # worklists drain
        ("himmelblau_budget", "0", 1e-12),
    ],
)
def test_every_popped_node_closes_for_one_reason_or_splits(monkeypatch, case, level, min_box_width):
    splits, worklists = [], []
    real_split, real_solve = bnb.split_node, bnb._solve_problem

    def counted(*args):
        splits.append(args)
        return real_split(*args)

    def counted_worklist(*args, **kwargs):
        worklists.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bnb, "split_node", counted)
    monkeypatch.setattr(bnb, "_solve_problem", counted_worklist)
    monkeypatch.setattr(bnb, "MIN_BOX_WIDTH", min_box_width)
    if case == "d2":
        p, constraints, box = _d2_repro()
    else:
        p, constraints, box = himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0))
    limited = case == "himmelblau_budget"
    cfg = BnbConfig(level=level, max_boxes=50 if limited else 100_000)
    res = branch_and_bound(p, constraints, box, cfg)
    # wide boxes and a short budget close unconverged
    assert res.converged == (min_box_width <= 1e-12 and not limited)
    s = res.stats
    closures = (
        s.cutoff_count + s.edge_cutoffs + s.mono_count + s.infeasible_count + s.min_width_count
    )
    assert s.subdivisions + s.edge_subdivisions == closures + len(splits)
    # every entry pushed (one root per worklist, two per split) was popped
    # or drained when the budget ran out
    pushed = len(worklists) + 2 * len(splits)
    assert pushed == s.subdivisions + s.edge_subdivisions + s.budget_count
    assert (s.budget_count > 0) == limited
    assert (s.min_width_count > 0) == (min_box_width > 1e-12)
    if case == "d2":
        assert s.infeasible_count > 0


@pytest.mark.parametrize("exact", [False, True])
def test_level0_closures_are_cutoff_closures(exact):
    # at level 0 a box whose smallest coefficient is a corner one is closed
    # by the cutoff: its grid point, offered before the bound, attains it;
    # nodes, bounds and witness are those of the former exact closures,
    # which are now counted with the cutoff closures (141 + 32 + 133)
    problem = load_problem(load_fixture("himmelblau"), exact)
    cfg = BnbConfig(level="0", epsilon=problem.epsilon, exact=exact)
    res = branch_and_bound(problem.objective, (), problem.box, cfg)
    s = res.stats
    assert (s.subdivisions, s.edge_subdivisions) == (437, 206)
    assert (s.cutoff_count, s.edge_cutoffs, s.mono_count) == (187, 119, 32)
    if exact:
        assert res.lower_bound == Fraction(-36112019881555, 56668397794435742564352)
        assert res.upper_bound == Fraction(31980883136065, 1208925819614629174706176)
        assert res.witness == (Fraction(3758545, 1048576), Fraction(-484475, 262144))
    else:
        assert res.lower_bound == -6.372822504752725e-10
        assert res.upper_bound == 2.646061147970613e-11
        assert res.witness == (3.584427833557129, -1.8481254577636719)
    assert res.converged


def test_cut_counters_sum_the_run_outcomes(monkeypatch):
    # the run's cut rounds and activated rows are those of its bounds,
    # edge subproblems included
    outcomes = []
    real = bnb.bound_at_level

    def recording(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(bnb, "bound_at_level", recording)
    problem = load_problem(load_fixture("himmelblau"))
    cfg = BnbConfig(level="2", epsilon=problem.epsilon)
    s = branch_and_bound(problem.objective, (), problem.box, cfg).stats
    assert s.edge_subdivisions > 0
    assert s.cut_rounds == sum(out.iterations for out in outcomes) > 0
    assert s.rows_activated == sum(len(out.activated_rows) for out in outcomes) > 0


@pytest.mark.parametrize("level", ["1", "2"])
def test_fully_bounded_box_offers_its_nominal_point(monkeypatch, level):
    # each popped box offers its two sample points, then is bounded; a
    # bound that ran to the end offers the nominal point of its z next,
    # and one that stopped at the cutoff offers nothing
    events = []
    real_offer, real_bound = _RunState.offer, bnb.bound_at_level
    real_sample = bnb.sample_upper_bound

    def offer(self, point):
        events.append(("offer", tuple(point)))
        real_offer(self, point)

    def bound(bf, *args, **kwargs):
        out = real_bound(bf, *args, **kwargs)
        events.append(("bound", out, bf))
        return out

    def sample(box, bf):
        events.append(("sample", box))
        return real_sample(box, bf)

    monkeypatch.setattr(_RunState, "offer", offer)
    monkeypatch.setattr(bnb, "bound_at_level", bound)
    monkeypatch.setattr(bnb, "sample_upper_bound", sample)
    res = branch_and_bound(himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0)), BnbConfig(level=level))
    assert res.converged
    offered = stopped = 0
    for i, event in enumerate(events):
        if event[0] != "bound":
            continue
        _, out, bf = event
        box = next(e[1] for e in reversed(events[:i]) if e[0] == "sample")
        after = events[i + 1] if i + 1 < len(events) else ("end",)
        if out.z is not None and not out.stopped:
            assert after[0] == "offer"
            if box.dimension == 2:  # the main problem: its points need no lift
                point = box.point(nominal_point(out.z, bf.degree, FLOAT))
                assert after == ("offer", point)
            offered += 1
        else:
            assert after[0] != "offer"
            stopped += out.stopped
    assert offered and stopped


def test_exhausted_exact_run_reports_a_fraction_lower_bound():
    # the lower bound of an exhausted run is the smallest bound left on the
    # heap, kept in the run's field: here a box bound of -4675/192, which a
    # float key would round above
    problem = load_problem(load_fixture("himmelblau"), True)
    cfg = BnbConfig(level="0", epsilon=1e-9, max_boxes=50, exact=True)
    res = branch_and_bound(problem.objective, (), problem.box, cfg)
    assert not res.converged
    assert isinstance(res.lower_bound, Fraction)
    assert res.lower_bound <= Fraction(-4675, 192)


@pytest.mark.parametrize("exact", [False, True])
def test_exhausted_run_lower_bound_is_finite_and_valid(exact):
    # an edge subproblem cut off by the budget before its first box
    # contributes its face's smallest coefficient, never -inf
    problem = load_problem(load_fixture("himmelblau"), exact)
    for budget in range(1, 60):
        cfg = BnbConfig(level="0", epsilon=1e-9, max_boxes=budget, exact=exact)
        res = branch_and_bound(problem.objective, (), problem.box, cfg)
        assert not math.isinf(res.lower_bound)
        assert res.lower_bound <= 0  # himmelblau's minimum
