"""The tensor kernels of bernstein.py and relax.py against their
per-coefficient loop versions (tests/conftest.py), in both fields.

Every kernel applies the loop's arithmetic in the loop's order (products
left to right, sums accumulated position by position in row-major
order), so every comparison here is ``==``, floats included, and
exactness holds in Fractions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop.bernstein import (
    BernsteinForm,
    bernstein_eval,
    field,
    min_coefficient,
    to_bernstein,
    upper_bounds,
)
from bernpop.poly import Polynomial
from bernpop.relax import _basis_values, _greedy_knapsack, _nominal_point, first_lp_bound
from conftest import (
    loop_basis_values,
    loop_bernstein_eval,
    loop_first_lp_bound,
    loop_greedy_knapsack,
    loop_min_coefficient,
    loop_nominal_point,
    loop_to_bernstein,
    loop_upper_bounds,
)

FIELDS = [False, True]


def _scalar(rng, exact):
    if exact:
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return rng.uniform(-5, 5)


def _cases(exact, seed=2024):
    """(polynomial, degree) pairs in 1 to 4 variables: random terms, axes of
    degree 0, elevated degrees, a single term and no term at all."""
    rng = random.Random(seed)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(6):
            top = [rng.randint(0, 3 if n < 4 else 2) for _ in range(n)]
            terms = {}
            for _ in range(rng.randint(1, 7)):
                terms[tuple(rng.randint(0, t) for t in top)] = _scalar(rng, exact)
            p = Polynomial(n, terms)
            elevated = tuple(d + rng.randint(0, 2) for d in p.degree)
            cases += [(p, p.degree), (p, elevated)]
        single = tuple(rng.randint(0, 3) for _ in range(n))
        cases.append((Polynomial(n, {single: _scalar(rng, exact)}), single))
        cases.append((Polynomial.zero(n), tuple(rng.randint(0, 2) for _ in range(n))))
    return cases


def _points(rng, n):
    """Corners, float and Fraction points, 0 and 1 among the coordinates."""
    pts = [(0.0,) * n, (1.0,) * n, (Fraction(0),) * n, (Fraction(1),) * n]
    for _ in range(3):
        pts.append(tuple(rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)))
        pts.append(tuple(Fraction(rng.randint(0, 7), 7) for _ in range(n)))
    return pts


def _flat(bf):
    return bf.tensor.ravel().tolist()


@pytest.mark.parametrize("exact", FIELDS)
def test_to_bernstein_matches_loop(exact):
    for p, degree in _cases(exact):
        bf = to_bernstein(p, degree, exact)
        assert bf.degree == degree
        assert bf.tensor.dtype == (object if exact else float)
        assert _flat(bf) == list(loop_to_bernstein(p, degree))
        if exact:
            assert all(isinstance(c, Fraction) for c in _flat(bf))


def test_to_bernstein_field_is_the_callers():
    # no term to guess from: the caller's field decides
    assert to_bernstein(Polynomial.zero(2), (1, 1), exact=True).tensor.dtype == object
    assert to_bernstein(Polynomial.zero(2), (1, 1)).tensor.dtype == float
    # Fraction coefficients in float64, floats in Fractions
    p = Polynomial(1, {(1,): Fraction(1, 3)})
    assert _flat(to_bernstein(p, (1,), exact=False)) == [0.0, float(Fraction(1, 3))]
    q = Polynomial(1, {(1,): 0.75})
    assert _flat(to_bernstein(q, (1,), exact=True)) == [0, Fraction(3, 4)]


def test_to_bernstein_rounds_large_binomials_once():
    # C(60,30)^2 exceeds 2^53: the binomial product is taken in integers
    # and rounded once, as the loop does
    p = Polynomial(2, {(30, 30): 0.1, (1, 0): 0.7})
    assert _flat(to_bernstein(p, (60, 60))) == list(loop_to_bernstein(p, (60, 60)))


@pytest.mark.parametrize("exact", FIELDS)
def test_bernstein_eval_matches_loop(exact):
    rng = random.Random(11)
    for p, degree in _cases(exact):
        bf = to_bernstein(p, degree, exact)
        for point in _points(rng, len(degree)):
            got = bernstein_eval(bf, point)
            assert got == loop_bernstein_eval(_flat(bf), degree, point)
            if exact and all(isinstance(x, Fraction) for x in point):
                assert got == p.eval(point) and isinstance(got, Fraction)


@pytest.mark.parametrize("exact", FIELDS)
def test_min_coefficient_matches_loop(exact):
    for p, degree in _cases(exact):
        bf = to_bernstein(p, degree, exact)
        assert min_coefficient(bf) == loop_min_coefficient(_flat(bf), degree)
    # ties go to the first index in row-major order
    ties = BernsteinForm(np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0]]))
    assert min_coefficient(ties) == (-1.0, (0, 1))


@pytest.mark.parametrize("exact", FIELDS)
def test_upper_bounds_match_loop(exact):
    for degree in [(0,), (3,), (2, 0, 3), (4, 4), (1, 2, 3, 2), (6,)]:
        u = upper_bounds(degree, exact)
        assert u.tolist() == loop_upper_bounds(degree, exact)
        if exact:
            assert all(isinstance(v, Fraction) for v in u.tolist())


@pytest.mark.parametrize("exact", FIELDS)
def test_basis_values_match_loop(exact):
    rng = random.Random(5)
    for degree in [(0,), (3,), (2, 0, 3), (4, 4), (1, 2, 3, 2)]:
        for point in _points(rng, len(degree)):
            if exact:
                point = tuple(Fraction(x) for x in point)
            got = _basis_values(point, degree, field(exact))
            assert got.tolist() == loop_basis_values(point, degree, exact)


def _probability_vectors(rng, size, exact):
    """Sparse and dense probability vectors, with negative dust in float."""
    vecs = []
    for density in (0.1, 0.5, 1.0):
        w = [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(size)]
        w[rng.randrange(size)] += 1
        if exact:
            vecs.append([Fraction(v, sum(w)) for v in w])
        else:
            z = [v / sum(w) for v in w]
            z[rng.randrange(size)] -= 1e-17
            vecs.append(z)
    return vecs


@pytest.mark.parametrize("exact", FIELDS)
def test_nominal_point_matches_loop(exact):
    rng = random.Random(9)
    for degree in [(0,), (3,), (2, 0, 3), (4, 4), (1, 2, 3, 2), (0, 0)]:
        size = int(np.prod([d + 1 for d in degree]))
        for z in _probability_vectors(rng, size, exact):
            assert _nominal_point(z, degree, field(exact)) == loop_nominal_point(z, degree, exact)


@pytest.mark.parametrize("exact", FIELDS)
def test_greedy_and_first_lp_match_loop(exact):
    # small integer coefficients make many ties, where only a stable order
    # agrees with the loop's sort on (c_i, i)
    rng = random.Random(3)
    for degree in [(0,), (2,), (2, 2), (3, 1, 2), (2, 2, 2, 1)]:
        u = upper_bounds(degree, exact)
        size = u.size
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(size)]
            coeffs = [Fraction(c) if exact else float(c) for c in coeffs]
            tensor = np.array(coeffs, dtype=object if exact else float)
            tensor = tensor.reshape([d + 1 for d in degree])
            want = loop_greedy_knapsack(coeffs, u.tolist(), exact)
            assert _greedy_knapsack(tensor, u, field(exact)) == want
            want = loop_first_lp_bound(coeffs, u.tolist())
            assert first_lp_bound(BernsteinForm(tensor), u) == want
