import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop.poly import (
    Box,
    Polynomial,
    lie_derivative,
    parse_polynomial,
    restrict_facet,
    to_unit_box,
)
from conftest import himmelblau, random_box, random_polynomial


def test_eval_zero_case():
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    assert p.eval((0, 0)) == 0


def test_eval_himmelblau_root():
    assert himmelblau().eval((3, 2)) == 0


def test_eval_square():
    p = Polynomial(1, {(2,): 1})
    assert p.eval((0.5,)) == 0.25


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1}).eval((1,))


def test_mul_degree():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prod = x1 * x2
    assert prod.terms == {(1, 1): 1}
    assert prod.degree == (1, 1)


def test_difference_of_squares():
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    p = (x + one) * (x - one)
    assert p.terms == {(2,): 1, (0,): -1}


def test_scale():
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1}).scale(2)
    assert p.terms == {(2, 0): 2, (0, 2): 2}


def test_zero_coefficients_dropped():
    p = Polynomial(1, {(1,): 1}) - Polynomial(1, {(1,): 1})
    assert not p.terms
    assert p.degree == (0,)


def test_constructor_rejects_float_exponent():
    # once truncated to {(1,): 1.0}
    with pytest.raises(ValueError, match="non-negative integers"):
        Polynomial(1, {(1.5,): 1.0})


def test_constructor_rejects_bool_exponent():
    # once read as x
    with pytest.raises(ValueError, match="non-negative integers"):
        Polynomial(1, {(True,): 1.0})


def test_constructor_accepts_numpy_integer_exponents():
    p = Polynomial(2, {(np.int64(2), np.int32(0)): 1.0})
    assert p.terms == {(2, 0): 1.0} and all(type(e) is int for e in next(iter(p.terms)))


def test_derived_polynomials_equal_validated_ones(rng):
    # sums, products, negation, derivatives, scaling, conversion and the
    # unit-box map skip validation; each result is what the validating
    # constructor builds from its terms
    for _ in range(10):
        p, q = random_polynomial(rng, 2, 3), random_polynomial(rng, 2, 3)
        box = random_box(rng, 2)
        for r in (p + q, p - q, p * q, -p, p.derivative(1), p.scale(3), p.convert(Fraction),
                  to_unit_box(p, box)[0], p - p):
            again = Polynomial(r.dimension, r.terms)
            assert (r.terms, r.degree) == (again.terms, again.degree)
            assert all(c != 0 for c in r.terms.values())
            assert all(type(e) is int for idx in r.terms for e in idx)


def test_derivative_simple():
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    assert p.derivative(0).terms == {(1, 0): 2}


def test_derivative_constant():
    assert not Polynomial.constant(1, 3).derivative(0).terms


def test_derivative_himmelblau():
    # symbolic oracle: d/dx1 of the factored form, expanded by hand
    expected = Polynomial(
        2, {(3, 0): 4, (1, 1): 4, (1, 0): -42, (0, 2): 2, (0, 0): -14}
    )
    assert himmelblau().derivative(0).terms == expected.terms


def test_derivative_linearity_and_product_rule(rng):
    for _ in range(20):
        p = random_polynomial(rng, 2, 3)
        q = random_polynomial(rng, 2, 3)
        axis = rng.randint(0, 1)
        lin = (p + q).derivative(axis) - (p.derivative(axis) + q.derivative(axis))
        assert all(abs(c) < 1e-9 for c in lin.terms.values())
        prod = (p * q).derivative(axis) - (
            p.derivative(axis) * q + p * q.derivative(axis)
        )
        assert all(abs(c) < 1e-8 for c in prod.terms.values())


def test_lie_derivative_univariate():
    v = Polynomial(1, {(2,): 1})
    f = [Polynomial(1, {(1,): -1})]
    assert lie_derivative(v, f).terms == {(2,): -2}


def test_lie_derivative_constant():
    v = Polynomial.constant(2, 5)
    f = [Polynomial.variable(2, 0), Polynomial.variable(2, 1)]
    assert not lie_derivative(v, f).terms


def test_lie_derivative_first_ode_benchmark():
    # dx/dt = -12.5x + 2.5x^2 + 2.5y^2 + 10x^2y + 2.5y^3 ; dy/dt = -y - y^2
    # with V = 2x^2 + 5y^2; the flow derivative printed alongside that
    # system is 40x^3y + 10x^3 - 50x^2 + 10xy^3 + 10xy^2 - 10y^3 - 10y^2
    v = Polynomial(2, {(2, 0): 2, (0, 2): 5})
    f = [
        Polynomial(
            2,
            {(1, 0): -12.5, (2, 0): 2.5, (0, 2): 2.5, (2, 1): 10, (0, 3): 2.5},
        ),
        Polynomial(2, {(0, 1): -1, (0, 2): -1}),
    ]
    expected = parse_polynomial(
        "40x^3y+10x^3-50x^2+10xy^3+10xy^2-10y^3-10y^2", ("x", "y")
    )
    got = lie_derivative(v, f)
    assert set(got.terms) == set(expected)
    for idx, c in expected.items():
        assert math.isclose(got.terms[idx], float(c), abs_tol=1e-12)


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        Box((0.0,), (float("inf"),))
    with pytest.raises(ValueError, match="at least one side"):
        Box((), ())


def test_box_point():
    box = Box((-1.0, 0.0), (1.0, 4.0))
    assert box.point((0.5, 0.5)) == (0.0, 2.0)
    assert box.point((0, 1)) == (-1.0, 4.0)
    assert box.point((1, 0)) == (1.0, 0.0)
    # lo + (hi - lo) * z, in that order: one rounding per product and sum
    z = (0.1, 0.7)
    assert box.point(z) == (-1.0 + 2.0 * 0.1, 0.0 + 4.0 * 0.7)
    exact = Box((Fraction(-1), Fraction(1, 3)), (Fraction(1, 2), Fraction(2)))
    assert exact.point((Fraction(1, 3), 0)) == (Fraction(-1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        box.point((0.5,))


def test_to_unit_box_square():
    p = Polynomial(1, {(2,): 1})
    box = Box((-1.0,), (1.0,))
    q, same = to_unit_box(p, box)
    assert q.terms == {(2,): 4.0, (1,): -4.0, (0,): 1.0}
    assert same is box and box.width(0) == 2.0 and box.lower == (-1.0,)


def test_to_unit_box_identity():
    p = himmelblau()
    q, box = to_unit_box(p, Box((0.0, 0.0), (1.0, 1.0)))
    assert q.terms == p.terms
    assert box.point((0.25, 0.5)) == (0.25, 0.5)


def test_to_unit_box_preserves_range(rng):
    for _ in range(10):
        p = random_polynomial(rng, 2, 3)
        box = random_box(rng, 2)
        q, _ = to_unit_box(p, box)
        for _ in range(100):
            z = (rng.random(), rng.random())
            assert math.isclose(q.eval(z), p.eval(box.point(z)), rel_tol=0, abs_tol=1e-10)


def test_to_unit_box_exact_rational(rng):
    p = Polynomial(2, {(2, 1): Fraction(1, 3), (1, 0): Fraction(-2)})
    box = Box((Fraction(-1), Fraction(1, 2)), (Fraction(3), Fraction(2)))
    q, _ = to_unit_box(p, box)
    for _ in range(25):
        z = (Fraction(rng.randint(0, 16), 16), Fraction(rng.randint(0, 16), 16))
        assert q.eval(z) == p.eval(box.point(z))


def test_restrict_facet_simple():
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    assert restrict_facet(p, 0, 0).terms == {(2,): 1}
    q = Polynomial(2, {(1, 1): 1})
    assert restrict_facet(q, 1, 1).terms == {(1,): 1}


def test_restrict_facet_himmelblau():
    # substitution oracle: fix x2 = -5 in the factored form
    got = restrict_facet(himmelblau(), 1, -5)
    x = Polynomial.variable(1, 0)
    c = Polynomial.constant
    expected = (x * x - c(1, 16)) * (x * x - c(1, 16)) + (x + c(1, 18)) * (
        x + c(1, 18)
    )
    assert set(got.terms) == set(expected.terms)
    for idx, cf in expected.terms.items():
        assert math.isclose(got.terms[idx], cf, abs_tol=1e-9)


def test_restrict_facet_matches_eval(rng):
    for _ in range(20):
        p = random_polynomial(rng, 3, 3)
        axis = rng.randint(0, 2)
        val = rng.uniform(-2, 2)
        q = restrict_facet(p, axis, val)
        y = [rng.uniform(-1, 1) for _ in range(2)]
        full = y[:axis] + [val] + y[axis:]
        assert math.isclose(q.eval(y), p.eval(full), rel_tol=0, abs_tol=1e-8)


def test_parse_polynomial_roundtrip():
    terms = parse_polynomial("-20x^4+10x^3y-10x^3+5x^2y-15x^2+5xy^2-5y^2", ("x", "y"))
    assert terms[(4, 0)] == -20
    assert terms[(3, 1)] == 10
    assert terms[(1, 2)] == 5
    assert terms[(0, 2)] == -5
    assert len(terms) == 7


@pytest.mark.parametrize(
    "text",
    [" x^2+3y ", "x^2 + 3y", "x^2 +3y", "x^2+ 3y", "- x^2\t-\n3y", "x^2 − 3y"],
    ids=["at the ends", "around a sign", "before a sign", "after a sign", "tabs and newlines",
         "unicode minus"],
)
def test_parse_polynomial_allows_whitespace_at_ends_and_signs(text):
    want = parse_polynomial(text.replace(" ", "").replace("\t", "").replace("\n", ""), ("x", "y"))
    assert parse_polynomial(text, ("x", "y")) == want and len(want) == 2


@pytest.mark.parametrize(
    "text",
    ["2 3x", "x y", "3 x", "x ^2", "x^ 2", "1.5 y+x", "x+2\ty"],
    ids=["between digits", "between variables", "after a coefficient", "before a caret",
         "after a caret", "after a decimal", "a tab inside a term"],
)
def test_parse_polynomial_rejects_whitespace_inside_a_term(text):
    # these once read as 23x, xy, 3x, x^2, x^2, 1.5y + x and x + 2y
    with pytest.raises(ValueError, match="whitespace inside a term"):
        parse_polynomial(text, ("x", "y"))


def test_parse_polynomial_decimals_exact():
    terms = parse_polynomial("2.5409y^8-0.4325y^5", ("x", "y"))
    assert terms[(0, 8)] == Fraction("2.5409")
    assert terms[(0, 5)] == Fraction("-0.4325")
