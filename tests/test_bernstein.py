import math
import random
from fractions import Fraction

import pytest

import numpy as np

from bernpop.bernstein import (
    EXACT,
    FLOAT,
    BernsteinForm,
    bernstein_eval,
    subdivide,
    to_bernstein,
    upper_bounds,
)
from bernpop.poly import Box, Polynomial, to_unit_box
from conftest import (
    bernstein_basis_polynomial,
    bernstein_to_polynomial,
    elevation_row,
    grid_min,
    himmelblau,
    himmelblau_exact,
    iter_indices,
    monomial_bernstein_row,
    motzkin3,
    random_polynomial,
    split_form,
    unit_grid_point,
)


def test_to_bernstein_square():
    bf = to_bernstein(Polynomial(1, {(2,): 1}), (2,))
    assert bf.tensor.tolist() == [0, 0, 1]


@pytest.mark.parametrize("exact", [False, True])
def test_to_bernstein_of_no_variables_is_a_scalar(exact):
    # a float form once came back with shape (1,), which no 0-variable point fits
    bf = to_bernstein(Polynomial(0, {(): Fraction(3) if exact else 3.0}), ())
    assert bf.numer.shape == () and bf.tensor.item() == 3


def test_to_bernstein_unit_partition():
    bf = to_bernstein(Polynomial.constant(2, 1), (2, 3))
    assert (bf.tensor == 1).all()


def test_to_bernstein_linear():
    bf = to_bernstein(Polynomial(1, {(1,): Fraction(1)}), (2,))
    assert bf.tensor.tolist() == [0, Fraction(1, 2), 1]


def test_to_bernstein_rejects_small_degree():
    with pytest.raises(ValueError):
        to_bernstein(Polynomial(1, {(3,): 1}), (2,))


def test_eval_constant():
    bf = to_bernstein(Polynomial.constant(2, 1), (2, 2))
    assert bernstein_eval(bf, (0.3, 0.9)) == pytest.approx(1.0)


def test_eval_symmetric_square():
    p, _ = to_unit_box(Polynomial(1, {(2,): 1}), Box((-1.0,), (1.0,)))
    bf = to_bernstein(p, (2,))
    assert bernstein_eval(bf, (0.5,)) == pytest.approx(0.0, abs=1e-12)


def test_eval_himmelblau_on_unit_box():
    q, _ = to_unit_box(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)))
    bf = to_bernstein(q, (4, 4))
    # z = (0.8, 0.7) maps to (3, 2), a global root
    assert bernstein_eval(bf, (0.8, 0.7)) == pytest.approx(0.0, abs=1e-6)
    assert q.eval((0.8, 0.7)) == pytest.approx(0.0, abs=1e-6)


def test_eval_rejects_outside_unit_box():
    bf = to_bernstein(Polynomial.constant(1, 1), (2,))
    with pytest.raises(ValueError):
        bernstein_eval(bf, (1.5,))


def test_roundtrip_random_points(rng):
    for _ in range(5):
        p = random_polynomial(rng, 2, 3)
        bf = to_bernstein(p)
        for _ in range(200):
            z = (rng.random(), rng.random())
            assert math.isclose(
                bernstein_eval(bf, z), p.eval(z), rel_tol=0, abs_tol=1e-9
            )


def test_roundtrip_exact_rational(rng):
    p = Polynomial(
        2, {(2, 1): Fraction(3, 7), (1, 0): Fraction(-1, 3), (0, 0): Fraction(2)}
    )
    bf = to_bernstein(p, (3, 2))
    for _ in range(30):
        z = (Fraction(rng.randint(0, 8), 8), Fraction(rng.randint(0, 8), 8))
        assert bernstein_eval(bf, z) == p.eval(z)
    assert bernstein_to_polynomial(bf).terms == p.terms


def test_enclosure_against_grid(rng):
    for _ in range(8):
        p = random_polynomial(rng, 2, 3)
        bf = to_bernstein(p)
        lo = bf.minimum
        hi = bf.tensor.max()
        sampled = grid_min(p, Box((0.0, 0.0), (1.0, 1.0)), 17)
        assert lo <= sampled + 1e-9
        sampled_max = -grid_min(p.scale(-1), Box((0.0, 0.0), (1.0, 1.0)), 17)
        assert hi >= sampled_max - 1e-9


def test_upper_bounds_univariate():
    assert upper_bounds((2,)).tolist() == [1.0, 0.5, 1.0]


def test_upper_bounds_product():
    u = upper_bounds((2, 2))
    # row-major position of (1,1) is 4
    assert u[4] == pytest.approx(0.25)
    corners = [0, 2, 6, 8]
    assert all(u[i] == 1.0 for i in corners)


def test_upper_bounds_range():
    u = upper_bounds((3, 4))
    assert all(0 < v <= 1 for v in u)


def test_elevation_identity():
    row = elevation_row((1, 2), (2, 3), (2, 3))
    expected = [0.0] * 12
    expected[1 * 4 + 2] = 1.0
    assert row == expected


def test_elevation_one_minus_x():
    # 1 - x at degree 2: beta_0 + beta_1 / 2
    row = elevation_row((0,), (1,), (2,), exact=True)
    assert row == [1, Fraction(1, 2), 0]


def test_elevation_rows_nonnegative_and_partition(rng):
    degree = (3, 2)
    for low in [(1, 1), (2, 0), (0, 2), (3, 2)]:
        col_sums = [Fraction(0)] * 12
        for idx in iter_indices(low):
            row = elevation_row(idx, low, degree, exact=True)
            assert all(v >= 0 for v in row)
            for pos, v in enumerate(row):
                col_sums[pos] += v
        assert all(s == 1 for s in col_sums)


def test_elevation_matches_expand_then_convert(rng):
    # independent route: expand B_{I,K} to monomials, then convert
    degree = (3, 2)
    for low in [(2, 1), (1, 2), (0, 0)]:
        for idx in iter_indices(low):
            row = elevation_row(idx, low, degree, exact=True)
            basis_poly = bernstein_basis_polynomial(idx, low)
            exact_poly = Polynomial(
                2, {i: Fraction(c) for i, c in basis_poly.terms.items()}
            )
            oracle = to_bernstein(exact_poly, degree)
            assert row == oracle.tensor.ravel().tolist()


def test_monomial_row_trivial_cases():
    assert monomial_bernstein_row((0, 0), (2, 2)) == [1.0] * 9
    row = monomial_bernstein_row((2, 2), (2, 2))
    assert row[-1] == 1.0 and sum(row) == 1.0


def test_monomial_row_matches_conversion():
    row = monomial_bernstein_row((1,), (2,), exact=True)
    assert row == [0, Fraction(1, 2), 1]
    for idx in [(1, 0), (2, 1), (0, 2)]:
        row = monomial_bernstein_row(idx, (2, 2), exact=True)
        mono = Polynomial(2, {idx: Fraction(1)})
        assert row == to_bernstein(mono, (2, 2)).tensor.ravel().tolist()


def test_min_coefficient_himmelblau():
    q, _ = to_unit_box(himmelblau_exact(), Box((Fraction(-5),) * 2, (Fraction(5),) * 2))
    bf = to_bernstein(q, (4, 4))
    assert bf.minimum == -1170
    assert unit_grid_point(bf) == (Fraction(3, 4),) * 2  # an inner index, not a corner


def test_min_coefficient_symmetric_square():
    p, _ = to_unit_box(Polynomial(1, {(2,): 1}), Box((-1.0,), (1.0,)))
    bf = to_bernstein(p, (2,))
    assert bf.minimum == pytest.approx(-1.0)
    assert unit_grid_point(bf) == (0.5,)


def test_min_coefficient_tie_break():
    # ties go to the first index in row-major order, (0, 1)
    bf = BernsteinForm(np.array([[0.5, 0.0], [0.0, 1.0]]))
    assert bf.minimum == 0.0 and unit_grid_point(bf) == (0.0, 1.0)


def test_linear_minimum_is_attained_at_its_corner():
    # a corner coefficient is the polynomial's value at that corner, so
    # the smallest coefficient's grid point attains it
    bf = to_bernstein(Polynomial(1, {(1,): 1}), (2,))
    assert bf.minimum == 0
    assert unit_grid_point(bf) == (0,)
    assert bernstein_eval(bf, unit_grid_point(bf)) == bf.minimum


def test_enclosure_gap_shrinks_with_degree():
    q, _ = to_unit_box(himmelblau(), Box((-5.0, -5.0), (5.0, 5.0)))
    true_min = 0.0
    errors = []
    for d in (4, 6, 10):
        bf = to_bernstein(q, (d, d))
        lo = bf.minimum
        errors.append(true_min - lo)
    assert errors[0] >= errors[1] >= errors[2] > 0


# ---------------------------------------------------------------------------
# subdivision: a split form must equal a fresh conversion on the sub-box


def _fresh_form(p, box):
    q, _ = to_unit_box(p, box)
    return to_bernstein(q)


def _descend(p, box, depth, rng, pick_t):
    """Follow a random path of ``depth`` splits from ``box``: a random axis,
    a split parameter from ``pick_t``, a random side.  Returns the last box
    and the coefficient tensor reached by de Casteljau splits alone."""
    bf = _fresh_form(p, box)
    for _ in range(depth):
        axis = rng.randrange(p.dimension)
        t = pick_t()
        lo, hi = box.lower[axis], box.upper[axis]
        side = rng.randrange(2)
        bf = split_form(bf, axis, t)[side]
        at = (lo + t * (hi - lo),)
        if side:
            box = Box(box.lower[:axis] + at + box.lower[axis + 1 :], box.upper)
        else:
            box = Box(box.lower, box.upper[:axis] + at + box.upper[axis + 1 :])
    return box, bf.tensor


def test_subdivide_univariate_square():
    left, right, factor = subdivide(np.array([[0, 0, 1]], dtype=object), 0, Fraction(1, 2))
    assert left.tolist() == [[0, 0, 1]] and right.tolist() == [[1, 2, 4]] and factor == 4
    left, right = split_form(BernsteinForm(np.array([0, 0, 1], dtype=object)), 0, Fraction(1, 2))
    assert list(left.tensor) == [0, 0, Fraction(1, 4)]
    assert list(right.tensor) == [Fraction(1, 4), Fraction(1, 2), 1]
    assert left.numer.tolist() == [0, 0, 1] and left.den == 4


def test_subdivide_keeps_constant_axis_exact(rng):
    # a tensor constant along axis 1 stays so at a non-dyadic split point
    col = np.array([rng.uniform(-5, 5) for _ in range(4)])
    bf = BernsteinForm(np.repeat(col[:, None], 3, axis=1))
    for half in split_form(bf, 1, 0.3) + split_form(bf, 0, 0.3):
        assert half.den == 1 and (np.diff(half.numer, axis=1) == 0).all()


@pytest.mark.parametrize("name", ["himmelblau", "motzkin3"])
def test_exact_descendant_equals_fresh_conversion(name):
    rng = random.Random(7)
    if name == "himmelblau":
        p, box = himmelblau_exact(), Box((Fraction(-5),) * 2, (Fraction(5),) * 2)
    else:
        m = motzkin3()
        p = Polynomial(3, {i: Fraction(c) for i, c in m.terms.items()})
        box = Box((Fraction(-1, 2),) * 3, (Fraction(1, 2),) * 3)

    def pick_t():  # halves as in bisection, other points as in zero-centred splits
        return Fraction(1, 2) if rng.random() < 0.5 else Fraction(rng.randint(1, 6), 7)

    leaf, tensor = _descend(p, box, 20, rng, pick_t)
    assert tensor.dtype == object
    assert (tensor == _fresh_form(p, leaf).tensor).all()


@pytest.mark.parametrize("name", ["himmelblau", "motzkin3"])
def test_float_descendant_drift(name):
    if name == "himmelblau":
        p, box = himmelblau(), Box((-5.0, -5.0), (5.0, 5.0))
    else:
        p, box = motzkin3(), Box((-0.5,) * 3, (0.5,) * 3)
    scale = np.abs(_fresh_form(p, box).tensor).max()
    for seed in range(5):
        rng = random.Random(seed)
        leaf, tensor = _descend(p, box, 40, rng, lambda: 0.5)
        assert tensor.dtype == float
        assert np.abs(tensor - _fresh_form(p, leaf).tensor).max() <= 1e-12 * scale


def test_normal_scales_each_row_by_a_power_of_two_only_when_huge():
    # two boxes of two forms: once some magnitude reaches 2^512, every row
    # and its number are scaled by 2^-e, e the frexp exponent of their
    # largest magnitude (0 for a row of zeros); ordinary rows, and every
    # exact row, are left alone
    rows = np.array([[[3e306, -5e306], [2.0**-40, 3.0]], [[0.0, 0.0], [-1e-300, 7e-301]]])
    extra = np.array([[-9e307, 0.0], [0.0, 1e-300]])
    scaled, scaled_extra = FLOAT.normal(rows, extra)
    for k in range(2):
        for j in range(2):
            top = max(abs(v) for v in rows[k, j].tolist() + [extra[k, j]])
            e = math.frexp(top)[1]
            assert scaled[k, j].tolist() == [math.ldexp(v, -e) for v in rows[k, j].tolist()]
            assert scaled_extra[k, j] == math.ldexp(extra[k, j], -e)
            assert top == 0 or 0.5 <= max(abs(scaled[k, j]).max(), abs(scaled_extra[k, j])) < 1
    small = rows / 2.0**600
    assert FLOAT.normal(small, extra * 0)[0] is small
    ints = np.array([[[10**400, -3]]], dtype=object)
    assert EXACT.normal(ints, ints[..., 0])[0] is ints
