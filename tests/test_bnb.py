import heapq
import math
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from bernpop import bnb, contraction
from bernpop.bnb import (
    BnbConfig,
    SPLIT_LONGEST,
    SPLIT_ZERO,
    _RunState,
    _face,
    _monotonicity_signs,
    branch_and_bound,
    cutoff_threshold,
)
from bernpop.bernstein import FLOAT, BernsteinForm, field, to_bernstein
from bernpop.poly import Box, Polynomial, restrict_facet, to_unit_box
from bernpop.problems import load_fixture, load_problem
from bernpop.relax import RelaxationOutcome, nominal_point, sample_upper_bound
from conftest import (
    algebraic4, box_form, box_tensor, himmelblau, himmelblau_exact, random_box, random_polynomial,
    split_node,
)


def test_cutoff_prunes_above_incumbent():
    assert 5.0 >= cutoff_threshold(0.0, 1e-9)
    assert not -1.0 >= cutoff_threshold(0.0, 1e-9)


def test_cutoff_boundary_arithmetic():
    eps = 1e-6
    assert 1.0 - eps / 2 >= cutoff_threshold(1.0, eps)
    assert not 1.0 - 2 * eps >= cutoff_threshold(1.0, eps)


def test_cutoff_without_incumbent():
    assert cutoff_threshold(None, 1e-9) is None
    assert cutoff_threshold(math.inf, 1e-9) is None


def test_state_holds_the_threshold_of_its_incumbent():
    state = _RunState(himmelblau(), (), BnbConfig(epsilon=1e-6), FLOAT)
    assert state.threshold is None
    state.offer((3.0, 2.0))  # a minimum: himmelblau is 0 there
    assert state.incumbent == 0.0 and state.threshold == cutoff_threshold(0.0, state.epsilon)
    state.offer((0.0, 0.0))  # not lower: the threshold stays
    assert state.threshold == cutoff_threshold(0.0, state.epsilon)


def _split(lower, upper, strategy):
    """The corners of the halves ``split_node`` makes of a box with a
    constant form, for their geometry: the stacked split of the forms is
    ``split_boxes``'s, as B&B's."""
    form = BernsteinForm(np.zeros((1,) * len(lower)))
    return [(lo, hi) for lo, hi, _ in split_node(lower, upper, (form,), strategy)]


def test_split_longest_edge():
    (_, left_upper), (right_lower, _) = _split((0.0, 0.0), (1.0, 1.0), SPLIT_LONGEST)
    assert left_upper == (0.5, 1.0)
    assert right_lower == (0.5, 0.0)


def test_split_zero_centered():
    (_, left_upper), (right_lower, _) = _split((-1.0,), (1.0,), SPLIT_ZERO)
    assert left_upper == (0.0,) and right_lower == (0.0,)
    (_, left_upper), (right_lower, _) = _split((-1.0,), (3.0,), SPLIT_ZERO)
    assert left_upper == (0.0,) and right_lower == (0.0,)


def test_split_zero_centered_falls_back_to_midpoint():
    (_, left_upper), _ = _split((1.0,), (3.0,), SPLIT_ZERO)
    assert left_upper == (2.0,)


def test_split_boxes_builds_halves_inside_the_open_interval():
    # the halves share the split point and keep every other side; a side
    # whose midpoint rounds onto one of its ends cannot be halved
    for lower, upper, axis, at in [
        ((-1.0, 0.0, 2.0), (1.0, 4.0, 3.0), 1, 2.0),
        ((Fraction(-1), Fraction(1, 3)), (Fraction(1, 2), Fraction(1)), 0, Fraction(-1, 4)),
    ]:
        (left_lower, left_upper), (right_lower, right_upper) = _split(lower, upper, SPLIT_LONGEST)
        assert left_lower == lower and right_upper == upper
        assert left_upper == upper[:axis] + (at,) + upper[axis + 1 :]
        assert right_lower == lower[:axis] + (at,) + lower[axis + 1 :]
    with pytest.raises(ValueError, match="outside the open interval"):
        _split((1.0,), (math.nextafter(1.0, 2.0),), SPLIT_LONGEST)


@pytest.mark.parametrize("exact", [False, True])
def test_split_boxes_splits_each_box_at_its_own_point(exact):
    # zero-centred splits of two boxes on one axis at different t share one
    # stacked split, and each box gets the children a split of it alone gives
    F = field(exact)
    p = Polynomial(2, {(3, 0): F.of(1), (1, 1): F.of(-2), (0, 2): F.of(3)})
    boxes = [((F.of(-1), F.of(0)), (F.of(3), F.of(1))), ((F.of(-2), F.of(0)), (F.of(1), F.of(1)))]
    forms = [box_form(p, Box(*box), exact=exact) for box in boxes]
    numer = np.stack([bf.numer for bf in forms])[:, None]
    together = bnb.split_boxes(boxes, numer, SPLIT_ZERO)
    for k, box in enumerate(boxes):
        alone = bnb.split_boxes([box], numer[k : k + 1], SPLIT_ZERO)
        for got, want in zip(together[2 * k : 2 * k + 2], alone):
            assert got[:2] == want[:2] and got[3] == want[3]
            assert got[2].tolist() == want[2].tolist()
    assert together[0][1][0] == together[2][1][0] == 0  # both split at the origin


def test_monotonicity_signs():
    def signs(p, box):
        return tuple(_monotonicity_signs(box_form(p, box).numer[None])[0])

    x = Polynomial.variable(1, 0)
    assert signs(x, Box((-2.0,), (5.0,))) == ("+",)
    square = Polynomial(1, {(2,): 1})
    assert signs(square, Box((-1.0,), (1.0,))) == ("mixed",)
    assert signs(square, Box((0.1,), (1.0,))) == ("+",)
    assert signs(square, Box((-1.0,), (-0.1,))) == ("-",)


def _face_of(p, box, signs):
    """``_face`` of ``box`` and ``p``'s form on it: the face's corners and
    the sliced form."""
    lower, upper, numer = _face(box.lower, box.upper, box_form(p, box).numer, signs)
    return lower, upper, BernsteinForm(numer)


def test_edge_subproblem_single_axis():
    p = Polynomial(2, {(1, 0): 1, (0, 2): 1})  # x1 + x2^2
    lower, upper, form = _face_of(p, Box((0.0, 0.0), (1.0, 1.0)), ("+", "mixed"))
    assert lower == (0.0, 0.0) and upper == (0.0, 1.0)
    assert form.degree == (0, 2)
    # the face tensor is x2^2's on the free axis
    assert (form.tensor[0] == box_tensor(Polynomial(1, {(2,): 1}), Box((0.0,), (1.0,)), (2,))).all()
    # pinning the pinned axis again changes nothing
    again = _face(lower, upper, form.numer, ("+", "mixed"))
    assert again[:2] == (lower, upper) and (again[2] == form.numer).all()


def test_edge_subproblem_all_axes():
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    lower, upper, form = _face_of(p, Box((0.0, 0.0), (1.0, 1.0)), ("+", "-"))
    assert lower == upper == (0.0, 1.0)
    assert form.degree == (0, 0)
    assert form.tensor.item() == pytest.approx(-1.0)


def test_edge_subproblem_square_on_positive_interval():
    lower, upper, form = _face_of(Polynomial(1, {(2,): 1}), Box((0.1,), (1.0,)), ("+",))
    assert lower == upper == (0.1,)
    assert form.degree == (0,)
    assert form.tensor.item() == pytest.approx(0.01)


def test_fully_fixed_vertex_contributes_its_coefficient(monkeypatch):
    # x^2 on [1/10, 1] is increasing, so the monotone step fixes its only
    # axis; a bound that is not past the cutoff reaches it,
    # and the vertex contributes the face's one coefficient, p(1/10).
    # Contraction is off: every coefficient is above the threshold, so it
    # would close the box before the monotone step
    square = Polynomial(1, {(2,): Fraction(1)})
    weak = lambda bf, *args, **kwargs: RelaxationOutcome(bound=bf.minimum - 1)
    monkeypatch.setattr(bnb, "bound_at_level", weak)
    monkeypatch.setattr(contraction, "SWEEPS", 0)
    box = Box((Fraction(1, 10),), (Fraction(1),))
    res = branch_and_bound(square, (), box, BnbConfig(level="0", exact=True))
    assert res.stats.mono_count == 1 and res.stats.subdivisions == 1
    assert res.lower_bound == square.eval((Fraction(1, 10),)) == Fraction(1, 100)
    assert res.upper_bound == Fraction(1, 100) and res.witness == (Fraction(1, 10),)
    assert res.converged


def _samples(box, bf):
    """``sample_upper_bound`` of one box and its form, as tuples."""
    corners = np.array([[box.lower, box.upper]])
    return [tuple(row) for row in sample_upper_bound(corners, bf.numer[None]).tolist()]


def test_sample_upper_bound_center():
    square = Polynomial(1, {(2,): 1})
    box = Box((-1.0,), (1.0,))
    q, _ = to_unit_box(square, box)
    center, grid = _samples(box, to_bernstein(q, (2,)))
    assert center == (0.0,) and square.eval(center) == pytest.approx(0.0)
    assert grid == (0.0,)  # the middle coefficient, -1, is the smallest


def test_sample_upper_bound_grid_argmin():
    box = Box((-5.0, -5.0), (5.0, 5.0))
    q, _ = to_unit_box(himmelblau(), box)
    bf = to_bernstein(q, (4, 4))
    points = _samples(box, bf)
    assert points[0] == (0.0, 0.0) and len(points) == 2
    assert himmelblau().eval(points[1]) >= 0.0
    # the state takes the lower of the two, one at a time or as rows
    state = _RunState(himmelblau(), (), BnbConfig(max_boxes=10))
    for pt in points:
        state.offer(pt)
    assert state.incumbent == min(himmelblau().eval(pt) for pt in points)
    rows = _RunState(himmelblau(), (), BnbConfig(max_boxes=10))
    rows.offer_rows(np.array(points))
    assert (rows.incumbent, rows.witness) == (state.incumbent, state.witness)


def test_sample_upper_bound_infeasible():
    p = Polynomial(1, {(2,): 1})
    g = Polynomial(1, {(1,): 1, (0,): 1})  # x + 1 <= 0, never on [0,1]
    box = Box((0.0,), (1.0,))
    q, _ = to_unit_box(p, box)
    state = _RunState(p, (g,), BnbConfig(max_boxes=10))
    points = _samples(box, to_bernstein(q, (2,)))
    for pt in points:
        state.offer(pt)
    state.offer_rows(np.array(points))
    assert state.incumbent is None and state.witness is None


def test_offered_rows_take_the_first_lowest_feasible_point():
    # (x - 1)^2 subject to 1/4 - x <= 0: rows are offered in order, as one
    # point after another, so of two feasible points of equal value the
    # first is taken
    p = Polynomial(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0})
    g = Polynomial(1, {(0,): 0.25, (1,): -1.0})
    state = _RunState(p, (g,), BnbConfig(max_boxes=10))
    state.offer_rows(np.array([[0.0], [1.5], [0.5], [2.0]]))
    assert state.incumbent == 0.25 and state.witness == (1.5,)
    state.offer_rows(np.array([[0.5], [1.25]]))  # not lower, then lower
    assert state.incumbent == 0.0625 and state.witness == (1.25,)


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
    assert root.minimum < 0
    orthants = []
    for lower, upper, (bf,) in split_node(box.lower, box.upper, (root,), SPLIT_ZERO):
        orthants += split_node(lower, upper, (bf,), SPLIT_ZERO)
    assert sorted((lower, upper) for lower, upper, _ in orthants) == [
        ((-1.0, -1.0), (0.0, 0.0)), ((-1.0, 0.0), (0.0, 1.0)),
        ((0.0, -1.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)),
    ]
    assert all(bf.minimum == 0.0 for _, _, (bf,) in orthants)


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
        # the lower bound is the threshold of the final incumbent: a
        # contraction cut away a part above it
        den = 3802951800684688204490109616128
        assert on_floats.lower_bound == Fraction(-105641333453829440742515426141, den)
        assert on_floats.upper_bound == Fraction(-105637530502028756054483026781, den)
        assert on_floats.lower_bound == cutoff_threshold(on_floats.upper_bound, Fraction(1e-6))


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
        signs = tuple(_monotonicity_signs(box_form(p, box).numer[None])[0])
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
    # a face's sliced form is the conversion of p restricted to the face:
    # p with its pinned variables substituted, on the box of its free axes
    p = himmelblau_exact()
    box = Box((Fraction(1), Fraction(-2)), (Fraction(4), Fraction(3)))
    bf = box_form(p, box, exact=True)
    faces = (("+", "mixed"), ("-", "mixed"), ("mixed", "+"), ("mixed", "-"), ("-", "+"))
    for signs in faces:
        lower, upper, numer = _face(box.lower, box.upper, bf.numer, signs)
        form = BernsteinForm(numer, bf.den)
        assert form.degree == tuple(4 if s == "mixed" else 0 for s in signs)
        free = [r for r, s in enumerate(signs) if s == "mixed"]
        if not free:  # a vertex: its one coefficient is the value there
            assert lower == upper and form.tensor.item() == p.eval(lower)
            continue
        q = p
        for r in reversed(range(len(signs))):
            if r not in free:
                assert lower[r] == upper[r]
                q = restrict_facet(q, r, lower[r])
        sides = Box(tuple(lower[r] for r in free), tuple(upper[r] for r in free))
        want = box_tensor(q, sides, (4,) * len(free), exact=True)
        assert (form.tensor.reshape(want.shape) == want).all()


# x + y^4 - y^2 + z^4 - z^2 + 0.3yz on [0,1] x [-1,2]^2: increasing in x,
# so the main box closes on its x = 0 face, where boxes monotone in y or
# z close on faces of that face (depth 2)
NESTED_FACES_COUNTS = {  # (main, edge, mono, edge cutoffs) nodes per (exact, level)
    (False, "0"): (1, 40, 4, 9),
    (False, "1"): (1, 37, 5, 9),
    (False, "2"): (1, 37, 5, 16),
    (True, "0"): (1, 40, 4, 9),
    (True, "1"): (1, 37, 5, 9),
    (True, "2"): (1, 37, 5, 16),
}


@pytest.mark.parametrize("exact, level", list(NESTED_FACES_COUNTS))
def test_nested_faces(monkeypatch, exact, level):
    terms = {(1, 0, 0): 1, (0, 4, 0): 1, (0, 2, 0): -1, (0, 0, 4): 1, (0, 0, 2): -1}
    p = Polynomial(3, {**terms, (0, 1, 1): Fraction(3, 10)})
    box = Box((0, -1, -1), (1, 2, 2))
    depths = []
    real = bnb._solve_problem

    def recording(lower, upper, forms, cfg, state, stats, depth):
        depths.append(depth)
        return real(lower, upper, forms, cfg, state, stats, depth)

    monkeypatch.setattr(bnb, "_solve_problem", recording)
    res = branch_and_bound(p, (), box, BnbConfig(level=level, exact=exact))
    s = res.stats
    counts = (s.subdivisions, s.edge_subdivisions, s.mono_count, s.edge_cutoffs)
    assert counts == NESTED_FACES_COUNTS[exact, level]
    assert depths.count(2) > 0
    if not exact and level == "0":
        assert depths.count(2) == 3
    assert res.converged
    assert all(lo <= x <= hi for lo, x, hi in zip(box.lower, res.witness, box.upper))
    # the upper bound is the objective at the witness, in the run's field
    assert p.convert(Fraction if exact else float).eval(res.witness) == res.upper_bound
    assert res.lower_bound <= res.upper_bound


def _constrained_square():
    # minimise x^2 + y^2 - x on [-1,1]^2 subject to x + 1/2 <= 0
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0})
    g = Polynomial(2, {(1, 0): 1.0, (0, 0): 0.5})
    return p, g, Box((-1.0, -1.0), (1.0, 1.0))


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_infeasible_boxes_are_pruned(monkeypatch, level):
    # with contraction the constraint cuts the part where x > -1/2 off the
    # root box; without it, the boxes there close as infeasible
    p, g, box = _constrained_square()
    for sweeps in (contraction.SWEEPS, 0):
        monkeypatch.setattr(contraction, "SWEEPS", sweeps)
        res = branch_and_bound(p, (g,), box, BnbConfig(level=level, epsilon=1e-6))
        assert res.converged
        if sweeps:
            assert res.stats.contracted > 0 and res.stats.infeasible_count == 0
        else:
            assert res.stats.infeasible_count > 0 and res.stats.contracted == 0
        assert res.lower_bound <= 0.75 <= res.upper_bound <= 0.75 + 1e-6
        assert g.eval(res.witness) <= 0
        assert res.witness == pytest.approx((-0.5, 0.0), abs=1e-3)


@pytest.mark.parametrize("level", ["0", "first", "1", "2"])
def test_side_rows_are_built_only_for_lp_levels(monkeypatch, level):
    # levels 0 and first read no constraint row: an exact run builds none,
    # and levels 1 and 2 build one block per bounded box
    blocks = []
    real = bnb.constraint_rows

    def counting(forms):
        blocks.append(len(forms))
        return real(forms)

    monkeypatch.setattr(bnb, "constraint_rows", counting)
    p, g, box = _constrained_square()
    res = branch_and_bound(p, (g,), box, BnbConfig(level=level, epsilon=1e-3, exact=True))
    assert res.converged and res.upper_bound == Fraction(3, 4)
    assert (len(blocks) > 0) == (level in ("1", "2")) and set(blocks) <= {1}


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
    assert res.stats.lp_solves == 1  # a float verdict's exact check is part of the one solve


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


def _count_pushes(monkeypatch):
    """Record every heap push of the worklists, and the root of each
    worklist (``_solve_problem`` call), which starts the heap unpushed."""
    pushes, worklists = [], []
    real_solve = bnb._solve_problem

    def push(heap, entry):
        pushes.append(entry)
        heapq.heappush(heap, entry)

    def counted_worklist(*args, **kwargs):
        worklists.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bnb, "heapq", types.SimpleNamespace(heappush=push, heappop=heapq.heappop))
    monkeypatch.setattr(bnb, "_solve_problem", counted_worklist)
    return pushes, worklists


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("case", ["himmelblau", "constrained"])
def test_budget_running_out_inside_a_batch(monkeypatch, case, exact):
    # the budget grants only part of the batch a round asks for; the
    # entries it leaves on the heap are drained into the budget count and
    # the lower bound, and no popped entry goes unprocessed
    grants = []
    real_charge = _RunState.charge

    def charge(self, wanted):
        grants.append((wanted, real_charge(self, wanted)))
        return grants[-1][1]

    monkeypatch.setattr(_RunState, "charge", charge)
    pushes, worklists = _count_pushes(monkeypatch)
    if case == "himmelblau":
        # 1 + 2 + 4 + 8 boxes, an edge subproblem's 1 + 2 + 2 + 2 + 2, then
        # 6 of a round of 10; edge subproblems of that round start with no
        # budget left
        problem = load_problem(load_fixture("himmelblau"), exact)
        p, constraints, box, budget = problem.objective, (), problem.box, 30
    else:
        # the root, then 1 of a round of 2 (the whole run takes 3 boxes)
        p, g, box = _constrained_square()
        constraints, budget = (g,), 2
    res = branch_and_bound(p, constraints, box, BnbConfig(level="0", max_boxes=budget, exact=exact))
    s = res.stats
    assert any(0 < granted < wanted for wanted, granted in grants)
    assert grants[-1][1] == 0 and s.budget_count > 0
    popped = s.subdivisions + s.edge_subdivisions
    assert popped == sum(granted for _, granted in grants) == budget
    assert len(worklists) + len(pushes) == popped + s.budget_count
    assert res.lower_bound <= res.upper_bound
    assert res.converged is False
    assert isinstance(res.lower_bound, Fraction) == exact


def test_rounds_take_one_box_until_an_incumbent(monkeypatch):
    # x1 + 9 x0 x1^3 - 2/7 x0^2 x2^3 subject to 4/3 x2^2 <= 0: only the
    # face x2 = 0 is feasible, and no sample point is until the search
    # reaches it.  Rounds of 32 boxes from the start split every box they
    # pop and took 2 599 nodes; one box a round dives to the first
    # feasible point best-first, as a search one box at a time does (189)
    wanted = []
    real_charge = _RunState.charge

    def charge(self, count):
        wanted.append((count, self.threshold is None))
        return real_charge(self, count)

    monkeypatch.setattr(_RunState, "charge", charge)
    p = Polynomial(3, {(0, 1, 0): 1.0, (1, 3, 0): 9.0, (2, 0, 3): -2 / 7})
    g = Polynomial(3, {(0, 0, 2): 4 / 3})
    box = Box((-3.0, -1.5, 0.0), (-1.5, -0.5, 2.0))
    res = branch_and_bound(p, (g,), box, BnbConfig(level="0"))
    assert res.converged and res.upper_bound == 1.1875 and res.witness == (-1.5, -0.5, 0.0)
    assert all(count == 1 for count, unset in wanted if unset)
    assert any(count > 1 for count, unset in wanted if not unset)
    assert res.stats.subdivisions < 300


@pytest.mark.parametrize("exact", [False, True])
def test_heap_entries_own_their_numerators(monkeypatch, exact):
    # each child is copied out of its batch's stacked split: an entry that
    # held a view would keep the whole stack alive while it waits
    pushes, _ = _count_pushes(monkeypatch)
    problem = load_problem(load_fixture("himmelblau"), exact)
    cfg = BnbConfig(level="0", epsilon=problem.epsilon, exact=exact)
    assert branch_and_bound(problem.objective, (), problem.box, cfg).converged
    assert len(pushes) > 100
    for *_, lower, upper, block, dens in pushes:
        assert block.base is None and block.flags.owndata
        assert type(lower) is type(upper) is tuple and len(dens) == len(block) == 1


@pytest.mark.parametrize(
    "case, level, min_box_width",  # the width patches bnb.MIN_BOX_WIDTH
    [
        ("himmelblau", "0", 1e-12),
        ("himmelblau", "2", 1e-12),
        ("d2", "2", 1e-12),
        # without contraction the constrained repro closes boxes as infeasible
        ("d2_uncontracted", "2", 1e-12),
        ("himmelblau", "0", 0.5),
        # 50 nodes: the budget runs out inside an edge subproblem, and both
        # worklists drain
        ("himmelblau_budget", "0", 1e-12),
    ],
)
def test_every_popped_node_closes_for_one_reason_or_splits(monkeypatch, case, level, min_box_width):
    # a batch splits its open boxes together: each split pushes two
    # children, so the splits are half the pushes
    pushes, worklists = _count_pushes(monkeypatch)
    monkeypatch.setattr(bnb, "MIN_BOX_WIDTH", min_box_width)
    if case == "d2_uncontracted":
        monkeypatch.setattr(contraction, "SWEEPS", 0)
    if case.startswith("d2"):
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
        + s.contraction_closures
    )
    assert len(pushes) % 2 == 0
    assert s.subdivisions + s.edge_subdivisions == closures + len(pushes) // 2
    # every entry pushed (one root per worklist, two per split) was popped
    # or drained when the budget ran out
    pushed = len(worklists) + len(pushes)
    assert pushed == s.subdivisions + s.edge_subdivisions + s.budget_count
    assert (s.budget_count > 0) == limited
    assert (s.min_width_count > 0) == (min_box_width > 1e-12)
    if case == "d2":  # contraction cuts the infeasible part off the root box
        assert s.contracted > 0 and s.infeasible_count == 0
    elif case == "d2_uncontracted":
        assert s.infeasible_count > 0 and s.contracted == s.contraction_closures == 0
    else:
        assert s.contraction_closures > 0


@pytest.mark.parametrize("exact", [False, True])
def test_level0_closures_are_cutoff_closures(exact):
    # at level 0 a box whose smallest coefficient is a corner one is closed
    # by the cutoff: its grid point, offered before the bound, attains it;
    # bounds and witness are those of the former exact closures, which are
    # now counted with the cutoff closures (141 + 32 + 133 before batches
    # of boxes; batches moved the nodes from 437 + 206, contraction from
    # 433 + 184).  Both fields close the same boxes for the same reasons;
    # the lower bound is the threshold of the final incumbent
    problem = load_problem(load_fixture("himmelblau"), exact)
    cfg = BnbConfig(level="0", epsilon=problem.epsilon, exact=exact)
    res = branch_and_bound(problem.objective, (), problem.box, cfg)
    s = res.stats
    assert (s.subdivisions, s.edge_subdivisions) == (103, 48)
    assert (s.cutoff_count, s.edge_cutoffs, s.mono_count) == (19, 27, 15)
    assert (s.contracted, s.contraction_closures) == (80, 22)
    if exact:
        den = 10576895500643977583230644928524336637254474927428499508554380724390492659780981533203027367035444557561459392400373732868096
        assert res.lower_bound == Fraction(
            -10392339027590043413839859626646075200177523818643283336875928596404711539545370500542512900732492494223564395679663,
            den,
        )
        assert res.upper_bound == Fraction(
            184556473053934828136669764616413531494923621594057697843400015400581051648255446277606346262758755452750246539345,
            den,
        )
        assert res.witness == (
            Fraction(-299427836403945009894210967055, 79228162514264337593543950336),
            Fraction(-33295467584688446749929528962045, 10141204801825835211973625643008),
        )
    else:
        assert res.lower_bound == -9.82549070409732e-10
        assert res.upper_bound == 1.745092959026806e-11
        assert res.witness == (-3.7793106251837614, -3.283186587326773)
    assert res.lower_bound == cutoff_threshold(res.upper_bound, field(exact).of(problem.epsilon))
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
    # each batch of popped boxes offers its sample points, two a box, then
    # each box is bounded; a bound that ran to the end offers the nominal
    # point of its z next, and one that stopped at the cutoff offers nothing
    events = []
    real_offer, real_rows, real_bound = _RunState.offer, _RunState.offer_rows, bnb.bound_at_level
    real_sample = bnb.sample_upper_bound

    def offer(self, point):
        # a monotone box's vertex face offers its point from the worklist
        kind = "offer" if sys._getframe(1).f_code.co_name == "_bound_batch" else "vertex"
        events.append((kind, tuple(point)))
        real_offer(self, point)

    def offer_rows(self, points):
        events.append(("rows", len(points)))
        real_rows(self, points)

    def bound(bf, *args, **kwargs):
        out = real_bound(bf, *args, **kwargs)
        events.append(("bound", out, bf))
        return out

    def sample(corners, numer):
        events.append(("sample", corners, numer))
        return real_sample(corners, numer)

    monkeypatch.setattr(_RunState, "offer", offer)
    monkeypatch.setattr(_RunState, "offer_rows", offer_rows)
    monkeypatch.setattr(bnb, "bound_at_level", bound)
    monkeypatch.setattr(bnb, "sample_upper_bound", sample)
    res = branch_and_bound(himmelblau(), (), Box((-5.0, -5.0), (5.0, 5.0)), BnbConfig(level=level))
    assert res.converged
    offered = stopped = 0
    for i, event in enumerate(events):
        if event[0] == "sample":
            assert events[i + 1] == ("rows", 2 * len(event[1]))
        if event[0] != "bound":
            continue
        _, out, bf = event
        # the box is the one of the latest batch whose form this is
        _, corners, numer = next(e for e in reversed(events[:i]) if e[0] == "sample")
        (k,) = [k for k in range(len(numer)) if np.shares_memory(bf.numer, numer[k])]
        lower, upper = corners[k].tolist()
        after = events[i + 1] if i + 1 < len(events) else ("end",)
        if out.z is not None and not out.stopped:
            assert after[0] == "offer"
            # an edge subproblem's box is a face, in the problem's coordinates,
            # and z maps onto it with Box.point's arithmetic
            z = nominal_point(out.z, bf.degree, FLOAT)
            point = tuple(lo + (hi - lo) * zi for lo, hi, zi in zip(lower, upper, z))
            assert after == ("offer", point)
            offered += 1
        else:
            assert after[0] != "offer"
            stopped += out.stopped
    assert offered and stopped


def test_exact_split_reuses_the_objective_image(monkeypatch):
    # each node's form is the integer image of its objective, and a split
    # maps it to the children's images: only the root conversion computes
    # an image
    from bernpop import bernstein

    callers = []
    real = bernstein.integer_image

    def counting(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(values)

    monkeypatch.setattr(bernstein, "integer_image", counting)
    problem = load_problem(load_fixture("himmelblau"), True)
    cfg = BnbConfig(level="0", epsilon=problem.epsilon, exact=True)
    res = branch_and_bound(problem.objective, (), problem.box, cfg)
    assert res.converged and res.stats.subdivisions > 100
    assert callers == ["to_bernstein"]


@pytest.mark.parametrize("run", ["bnb", "lyapunov"])
def test_exact_splits_build_no_fraction_tensor(monkeypatch, run):
    # below the root, an exact level-0 B&B and an exact certification at
    # level first carry integer images (N, D) only: every split child holds
    # Python ints over a positive int, and none builds its Fraction tensor
    from bernpop.lyapunov import load_lyapunov_case, verify_lyapunov

    from bernpop import lyapunov

    pieces, forms, reads = [], [], []
    real_split, real_bound = bnb.subdivide, bnb.bound_at_level
    real_tensor = BernsteinForm.tensor.fget

    def reading(bf):
        reads.append(bf)
        return real_tensor(bf)

    def recording(numer, axis, t):
        out = real_split(numer, axis, t)
        pieces.append(out)
        return out

    def bounding(bf, *args, **kwargs):
        forms.append(bf)
        return real_bound(bf, *args, **kwargs)

    monkeypatch.setattr(bnb, "subdivide", recording)
    monkeypatch.setattr(bnb if run == "bnb" else lyapunov, "bound_at_level", bounding)
    monkeypatch.setattr(BernsteinForm, "tensor", property(reading))
    if run == "bnb":
        problem = load_problem(load_fixture("himmelblau"), True)
        cfg = BnbConfig(level="0", epsilon=problem.epsilon, exact=True)
        assert branch_and_bound(problem.objective, (), problem.box, cfg).converged
    else:
        verify_lyapunov(load_lyapunov_case(load_fixture("lyap7"), True), BnbConfig(level="first", exact=True))
    assert sum(len(left) for left, _, _ in pieces) > 20 and len(forms) > 40
    for left, right, factor in pieces:
        # one factor for one split point, one per member for a vector of them
        factors = np.broadcast_to(np.asarray(factor, dtype=object), len(left)).tolist()
        assert all(type(f) is int and f > 0 for f in factors)
        assert all(type(v) is int for v in left.ravel().tolist() + right.ravel().tolist())
    # every box's form, below the roots, is the image its parent's split
    # gave, and its Fraction tensor is never built
    for bf in forms[1:]:
        assert type(bf.den) is int and bf.den > 0
        assert all(type(v) is int for v in bf.numer.ravel().tolist())
    assert not {id(bf) for bf in reads} & {id(bf) for bf in forms[1:]}
    # the probe sees a read of a bounded form
    assert forms[-1].tensor.dtype == object and reads[-1] is forms[-1]


def test_exhausted_exact_run_reports_a_fraction_lower_bound():
    # the lower bound of an exhausted run is the smallest bound left on the
    # heap, kept in the run's field: here a box bound that a float key
    # would round above (-4675/192 before contraction)
    problem = load_problem(load_fixture("himmelblau"), True)
    cfg = BnbConfig(level="0", epsilon=1e-9, max_boxes=50, exact=True)
    res = branch_and_bound(problem.objective, (), problem.box, cfg)
    assert not res.converged
    assert isinstance(res.lower_bound, Fraction)
    assert res.lower_bound == Fraction(-50239638736642946698265215, 4835703278458516698824704)
    assert Fraction(float(res.lower_bound)) > res.lower_bound


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
