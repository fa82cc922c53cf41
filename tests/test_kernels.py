"""The tensor kernels of bernstein.py and relax.py, and the unit-box
map of poly.py, against their per-coefficient loop versions
(tests/conftest.py), in both fields, and
the exact kernels that run on integer images (subdivision, cut scans,
the incumbent's evaluation) against their Fraction oracles.

Every float kernel applies the loop's arithmetic in the loop's order
(products left to right, sums accumulated position by position in
row-major order), and every exact one computes the same rationals, so
every comparison here is ``==``, floats included."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bernpop.bernstein import (
    EXACT,
    FLOAT,
    BernsteinForm,
    bernstein_eval,
    field,
    integer_image,
    subdivide,
    to_bernstein,
    upper_bounds,
)
from bernpop.bnb import _evaluator, _monotonicity_signs
from bernpop.poly import Box, Polynomial, to_unit_box
from bernpop.relax import (
    _greedy_knapsack,
    build_cut_matrix,
    first_lp_bound,
    nominal_point,
    sample_upper_bound,
)
from conftest import (
    basis_values,
    form_of,
    loop_basis_values,
    loop_bernstein_eval,
    loop_first_lp_bound,
    loop_greedy_knapsack,
    loop_min_coefficient,
    loop_monotonicity_signs,
    loop_nominal_point,
    loop_subdivide,
    loop_to_bernstein,
    loop_to_unit_box,
    loop_upper_bounds,
    row_list,
    split_form,
    unit_grid_point,
)

FIELDS = [False, True]

# primes above every degree here, so no binomial C(d, j) shares a factor
# with these denominators, nor does a dyadic split point
COPRIME = (7919, 7907 * 7919)


def _scalar(rng, exact):
    if exact:
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return rng.uniform(-5, 5)


def _cases(exact, seed=2024):
    """(polynomial, degree) pairs in 1 to 4 variables: random terms, axes of
    degree 0, elevated degrees, a single term, no term at all, and
    coefficients over denominators coprime to every binomial."""
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
    coprime = random.Random(seed + 1)
    for n in (1, 2, 3):
        terms = {}
        for _ in range(4):
            c = Fraction(coprime.randint(1, 60) * coprime.choice((-1, 1)), coprime.choice(COPRIME))
            terms[tuple(coprime.randint(0, 3) for _ in range(n))] = c if exact else float(c)
        p = Polynomial(n, terms)
        cases += [(p, p.degree), (p, tuple(d + 1 for d in p.degree))]
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
        _assert_image(bf)
        assert _flat(bf) == list(loop_to_bernstein(p, degree))
        if exact:
            assert all(isinstance(c, Fraction) for c in _flat(bf))


def _boxes(rng, n, exact):
    """A random box and one whose lower bound is 0 on one axis (the loop
    skips the zero factors o^(e-t) there), in the field."""
    F = field(exact)
    lower = [F.ratio(rng.randint(-9, 9), rng.choice((1, 3, 7))) for _ in range(n)]
    width = [F.ratio(rng.randint(1, 9), rng.choice((1, 2, 7))) for _ in range(n)]
    zero = list(lower)
    zero[rng.randrange(n)] = F.zero
    return [Box(tuple(lo), tuple(a + w for a, w in zip(lo, width))) for lo in (lower, zero)]


@pytest.mark.parametrize("exact", FIELDS)
def test_to_unit_box_matches_loop(exact):
    # the same terms in the same order, with equal values, and the
    # polynomial's own degree
    rng = random.Random(13)
    cases = [p for p, _ in _cases(exact)]
    one = field(exact).one
    cases += [
        Polynomial(3, {(2, 0, 1): 3 * one, (0, 0, 3): -one, (1, 0, 0): one / 7}),  # a degree-0 axis
        Polynomial(2, {}),  # no term
    ]
    reached = skipped = 0
    for p in cases:
        for box in _boxes(rng, p.dimension, exact):
            q, same = to_unit_box(p, box)
            want, _ = loop_to_unit_box(p, box)
            assert same is box and q.degree == want.degree == p.degree
            assert list(q.terms.items()) == list(want.terms.items())
            if exact:
                assert all(type(c) is Fraction for c in q.terms.values())
            reached += len(q.terms)
            skipped += 0 in box.lower and len(q.terms) < math.prod(d + 1 for d in p.degree)
    assert reached and skipped


def test_conversions_overflow_to_inf_as_in_the_loop():
    # products beyond binary64 are inf, with no NaN where a skipped zero
    # factor (a zero lower bound, or off a monomial's slab) meets them, and
    # no numpy warning (an error under pytest here)
    cases = [
        (Polynomial(1, {(2,): 1e300, (1,): 1.0}), Box((1e10,), (2e10,))),
        (Polynomial(2, {(2, 1): 1e300, (0, 0): 1.0}), Box((1e10, 0.0), (2e10, 1.0))),
    ]
    for p, box in cases:
        q, _ = to_unit_box(p, box)
        assert list(q.terms.items()) == list(loop_to_unit_box(p, box)[0].terms.items())
        assert math.inf in q.terms.values()
        tensor = _flat(to_bernstein(q))
        assert tensor == list(loop_to_bernstein(q)) and not any(map(math.isnan, tensor))
    assert 1.0 in tensor  # off the infinite monomials' slabs


def test_conversions_work_in_small_blocks():
    # a dense degree-(8,8,8) polynomial: 729 terms times 729 positions,
    # about 4.3 MB for one unblocked float64 array
    rng = random.Random(17)
    p = Polynomial(3, {idx: rng.uniform(-1, 1) for idx in itertools.product(range(9), repeat=3)})
    box = Box((-1.0, 0.0, 0.5), (1.0, 2.0, 3.0))
    for convert in (lambda: to_bernstein(p), lambda: to_unit_box(p, box)):
        tracemalloc.start()
        try:
            convert()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert _flat(to_bernstein(p)) == list(loop_to_bernstein(p))


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


def test_large_binomials_are_rounded_once_on_every_axis():
    # asymmetric products C(60,30) C(61,29) and C(61,29) C(60,30) of 2^53
    # or more, each next to terms whose products stay below it
    for degree, big in [((60, 61), (30, 29)), ((61, 60), (29, 30))]:
        p = Polynomial(2, {(1, 0): 0.7, big: 0.1, (0, 2): -0.3})
        assert _flat(to_bernstein(p, degree)) == list(loop_to_bernstein(p, degree))


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
    # the smallest coefficient, and the grid point I/delta of its first index
    F = field(exact)
    for p, degree in _cases(exact):
        bf = to_bernstein(p, degree, exact)
        value, idx = loop_min_coefficient(_flat(bf), degree)
        assert bf.minimum == value
        assert unit_grid_point(bf) == tuple(F.ratio(i, d) if d else 0 for i, d in zip(idx, degree))
    # ties go to the first index in row-major order, here (0, 1)
    ties = BernsteinForm(np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0]]))
    assert ties.minimum == -1.0 and unit_grid_point(ties) == (0.0, 0.5)


def _profile(kind, n, rng):
    """n values along one axis: strictly increasing ('+') or decreasing
    ('-'), constant ('='), rising from a tie at the bottom ('t'), falling
    from a tie at the top ('T'), or small random integers ('~')."""
    steps = sorted(rng.sample(range(1, 30), n))
    return {
        "+": steps,
        "-": steps[::-1],
        "=": [steps[0]] * n,
        "t": steps[:1] + steps[:-1],
        "T": (steps[:1] + steps[:-1])[::-1],
        "~": [rng.randint(-2, 2) for _ in range(n)],
    }[kind]


def _shaped_tensors(exact, seed=5):
    """Tensors built as sums of per-axis profiles (``_profile``) and the
    field's sevenths: monotone, constant and tied axes, ties at the first
    smallest or largest coefficient, and degree-0 axes."""
    rng = random.Random(seed)
    F = field(exact)
    out = []
    for shape in [(1,), (4,), (1, 1), (3, 1), (1, 4), (3, 4), (2, 1, 3), (3, 3, 2), (2, 2, 2, 2)]:
        for _ in range(12):
            total = np.zeros(shape, dtype=int)
            for r, n in enumerate(shape):
                axis_shape = [1] * len(shape)
                axis_shape[r] = n
                values = _profile(rng.choice("+-=tT~"), n, rng)
                total = total + np.array(values).reshape(axis_shape)
            out.append(np.array([F.ratio(int(v), 7) for v in total.ravel()], dtype=F.dtype).reshape(shape))
    return out


@pytest.mark.parametrize("exact", FIELDS)
def test_monotonicity_signs_match_loop(exact):
    # on every case and every built tensor; the screen by the first
    # smallest and largest coefficients is a necessary condition for a
    # monotone axis, and both its outcomes occur: axes it rules out, and
    # axes it passes that the differences still find mixed
    tensors = [to_bernstein(p, degree, exact).tensor for p, degree in _cases(exact)]
    ruled_out = passed_mixed = decisive = 0
    for tensor in tensors + _shaped_tensors(exact):
        bf = form_of(tensor)
        got = tuple(_monotonicity_signs(bf.numer[None])[0])
        assert got == loop_monotonicity_signs(_flat(bf), bf.degree)
        coeffs = _flat(bf)
        low = loop_min_coefficient(coeffs, bf.degree)[1]
        high = np.unravel_index(coeffs.index(max(coeffs)), tensor.shape)
        for r, (sign, d) in enumerate(zip(got, bf.degree)):
            passes = (low[r], high[r]) in ((0, 0), (0, d), (d, 0))
            assert passes or sign == "mixed"
            ruled_out += not passes
            passed_mixed += passes and sign == "mixed"
            decisive += sign != "mixed"
    assert ruled_out and passed_mixed and decisive


@pytest.mark.parametrize("exact", FIELDS)
def test_stacked_monotonicity_signs_match_each_member(exact):
    # the built tensors of one shape, stacked: each member's numerators
    # over its own denominator, and each row is that member's signs alone
    by_shape = {}
    for tensor in _shaped_tensors(exact):
        by_shape.setdefault(tensor.shape, []).append(form_of(tensor))
    for forms in by_shape.values():
        stacked = _monotonicity_signs(np.stack([bf.numer for bf in forms]))
        assert stacked.shape == (len(forms), forms[0].dimension)
        for row, bf in zip(stacked, forms):
            assert tuple(row) == loop_monotonicity_signs(_flat(bf), bf.degree)


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
            got = basis_values(point, degree, field(exact))
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
            assert nominal_point(z, degree, field(exact)) == loop_nominal_point(z, degree, exact)


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
            assert first_lp_bound(form_of(tensor), u) == want


def test_integer_image():
    values = np.array([[Fraction(1, 6), Fraction(-3, 4)], [2, Fraction(5, 7919)]], dtype=object)
    numer, den = integer_image(values)
    assert den == 12 * 7919 and numer.shape == values.shape
    assert all(type(v) is int for v in numer.ravel())
    assert [Fraction(n, den) for n in numer.ravel()] == values.ravel().tolist()
    assert integer_image(np.array([], dtype=object))[1] == 1


def _split_points(exact):
    """t = 1/2, 1/3, 2/7, and the zero-centred t of [-2, 5], in the field."""
    F = field(exact)
    lo, hi = F.of(-2), F.of(5)
    return [F.half, F.ratio(1, 3), F.ratio(2, 7), (F.zero - lo) / (hi - lo)]


def _typed(tensor):
    return [(type(v), v) for v in tensor.ravel().tolist()]


def _assert_image(bf):
    """A form's image: float64 over 1, or Python ints over a positive int."""
    if bf.numer.dtype == object:
        assert type(bf.den) is int and bf.den > 0
        assert all(type(v) is int for v in bf.numer.ravel().tolist())
    else:
        assert bf.den == 1 and bf.numer.dtype == float


@pytest.mark.parametrize("exact", FIELDS)
def test_subdivide_matches_loop(exact):
    # every axis of every case, degree-0 axes and 1-D tensors included
    for p, degree in _cases(exact):
        bf = to_bernstein(p, degree, exact)
        for axis in range(bf.dimension):
            for t in _split_points(exact):
                want = loop_subdivide(bf.tensor, axis, t)
                for g, w in zip(split_form(bf, axis, t), want):
                    _assert_image(g)
                    assert g.degree == bf.degree and g.tensor.dtype == w.dtype
                    assert _typed(g.tensor) == _typed(w)


@pytest.mark.parametrize("exact", FIELDS)
def test_subdivide_chains_match_loop(exact):
    # 40 splits deep: denominators outgrow 64-bit integers
    rng = random.Random(31)
    cases = [c for c in _cases(exact) if c[0].terms and len(c[1]) < 4]
    bits = 0
    for p, degree in cases[::6]:
        got = to_bernstein(p, degree, exact)
        want = got.tensor
        for _ in range(40):
            axis, side = rng.randrange(len(degree)), rng.randrange(2)
            t = rng.choice(_split_points(exact))
            got, want = split_form(got, axis, t)[side], loop_subdivide(want, axis, t)[side]
            _assert_image(got)
            assert _typed(got.tensor) == _typed(want)
        if exact:
            bits = max(bits, max(v.denominator.bit_length() for v in got.tensor.ravel()))
    assert bits > 64 or not exact


def test_subdivide_needs_a_rational_split_point_on_an_exact_tensor():
    bf = to_bernstein(Polynomial(2, {(2, 1): Fraction(1, 3)}), (2, 1), exact=True)
    for t in (0.5, np.float64(0.25)):
        with pytest.raises(ValueError):
            subdivide(bf.numer[None], 0, t)
    left, right = split_form(bf, 1, Fraction(1, 2))
    assert _typed(left.tensor) == _typed(loop_subdivide(bf.tensor, 1, Fraction(1, 2))[0])


def _members(exact, seed=41):
    """Stacks of forms of one shape, one stack per case: the case's form
    and pieces of it from one to four splits deep, so in exact arithmetic
    the members have different denominators."""
    rng = random.Random(seed)
    stacks = []
    for p, degree in _cases(exact)[::3]:
        forms = [to_bernstein(p, degree, exact)]
        for depth in range(1, 5):
            bf = forms[0]
            for _ in range(depth):
                axis, t = rng.randrange(len(degree)), rng.choice(_split_points(exact))
                bf = split_form(bf, axis, t)[rng.randrange(2)]
            forms.append(bf)
        stacks.append(forms)
    return stacks


@pytest.mark.parametrize("exact", FIELDS)
def test_stacked_subdivide_matches_loop_on_every_member(exact):
    # every axis, t = 1/2 and a zero-centred t, stacks of one and of five
    # members of mixed depth: each member's pieces are loop_subdivide's, to
    # the bit in float; in exact arithmetic the numerators and denominators
    # are the member's own split's, and their values the loop's
    dens = set()
    for forms in _members(exact):
        for stack in (forms[:1], forms):
            numer = np.stack([bf.numer for bf in stack])
            for axis in range(forms[0].dimension):
                for t in (_split_points(exact)[0], _split_points(exact)[-1]):
                    left, right, factor = subdivide(numer, axis, t)
                    assert left.shape == right.shape == numer.shape
                    assert left.dtype == right.dtype == numer.dtype
                    for k, bf in enumerate(stack):
                        want = loop_subdivide(bf.tensor, axis, t)
                        if not exact:
                            assert factor == 1
                            assert left[k].tobytes() == want[0].tobytes()
                            assert right[k].tobytes() == want[1].tobytes()
                            continue
                        alone = subdivide(bf.numer[None], axis, t)
                        assert (left[k] == alone[0][0]).all() and (right[k] == alone[1][0]).all()
                        assert factor == alone[2] and type(factor) is int
                        for piece, w in zip((left[k], right[k]), want):
                            _assert_image(BernsteinForm(piece, bf.den * factor))
                            assert _typed(BernsteinForm(piece, bf.den * factor).tensor) == _typed(w)
            dens.update(bf.den for bf in stack)
    assert len(dens) > 5 or not exact


@pytest.mark.parametrize("exact", FIELDS)
def test_subdivide_takes_one_split_point_per_member(exact):
    # a vector of split points, 0 and 1 included, splits each member of a
    # stack at its own t: its pieces and factor are the ones a split of it
    # alone at that t gives (to the bit in float), and t = 0 keeps it whole
    # as its [t, 1] piece
    points = [field(exact).zero] + _split_points(exact) + [field(exact).one]
    zeros = 0
    for forms in _members(exact):
        numer = np.stack([bf.numer for bf in forms])
        for axis in range(forms[0].dimension):
            t = np.array([points[(k + axis) % len(points)] for k in range(len(forms))], dtype=numer.dtype)
            left, right, factors = subdivide(numer, axis, t)
            factors = np.broadcast_to(np.asarray(factors, dtype=object), len(forms)).tolist()
            for k, bf in enumerate(forms):
                alone = subdivide(bf.numer[None], axis, t[k])
                assert left[k].tolist() == alone[0][0].tolist() and right[k].tolist() == alone[1][0].tolist()
                assert factors[k] == alone[2]
                if t[k] == 0:
                    assert right[k].tolist() == bf.numer.tolist() and factors[k] == 1
                    zeros += 1
    assert zeros > 3


def _sample_rows(rng, n, exact, count=12):
    """Rows of sample points in the field: box centres, grid points and
    random points, with zeros, negatives and repeated coordinates."""
    F = field(exact)
    rows = [[F.zero] * n, [F.of(-2)] * n]
    for _ in range(count):
        rows.append([F.ratio(rng.randint(-40, 40), rng.choice((1, 2, 7, 16))) for _ in range(n)])
    if not exact:
        rows += [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(count)]
    return np.array(rows, dtype=F.dtype)


@pytest.mark.parametrize("exact", FIELDS)
def test_batched_sample_evaluation_matches_one_point_evaluation(exact):
    # seeded random 1-3-variable polynomials: the rows' values are
    # Polynomial.eval's to the bit in float and _evaluator's in exact
    # arithmetic, at every row of one array
    rng = random.Random(43)
    F = field(exact)
    for n in (1, 2, 3):
        for _ in range(15):
            terms = {
                tuple(rng.randint(0, 4) for _ in range(n)): _scalar(rng, exact)
                for _ in range(rng.randint(1, 8))
            }
            p = Polynomial(n, terms).convert(F.of)
            one, rows = _evaluator(p, F)
            points = _sample_rows(rng, n, exact)
            got = rows(points)
            assert got.dtype == F.dtype and got.shape == (len(points),)
            for point, value in zip(points.tolist(), got.tolist()):
                if exact:
                    want = one(point)
                    assert value == want and type(value) is Fraction
                else:
                    want = p.eval(point)
                    assert np.float64(value).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("exact", FIELDS)
def test_sample_points_are_box_centres_and_grid_points(exact):
    # a stack of boxes, faces with pinned axes among them: each box's
    # centre lo + (hi - lo) / 2 and its first smallest coefficient's grid
    # point, with Box.point's arithmetic on its corners
    rng = random.Random(47)
    F = field(exact)
    for p, degree in _cases(exact)[::4]:
        n = len(degree)
        boxes = [(box.lower, box.upper) for box in _boxes(rng, n, exact)]
        lower, upper = boxes[0]
        boxes.append((lower, lower[:1] + upper[1:]))  # a face: axis 0 pinned at its lower bound
        bf = to_bernstein(p, degree, exact)
        corners = np.array(boxes, dtype=F.dtype)
        points = sample_upper_bound(corners, np.stack([bf.numer] * len(boxes)))
        assert points.shape == (2 * len(boxes), n)
        _, idx = loop_min_coefficient(_flat(bf), degree)
        grid = tuple(F.ratio(i, d) if d else 0 for i, d in zip(idx, degree))
        for k, (lower, upper) in enumerate(boxes):
            centre = tuple(lo + (hi - lo) / 2 for lo, hi in zip(lower, upper))
            assert tuple(points[2 * k].tolist()) == centre
            assert tuple(points[2 * k + 1].tolist()) == tuple(
                lo + (hi - lo) * g for lo, hi, g in zip(lower, upper, grid)
            )


@pytest.mark.parametrize("degree", [(4,), (3, 2), (0, 3), (2, 1, 2)])
def test_exact_scan_matches_rows(degree):
    # each row materialized by CutMatrix.rows, dotted with z in Fractions;
    # a tolerance at the median excess drops some of the rows 0 finds
    rng = random.Random(23)
    cuts = build_cut_matrix(degree, exact=True)
    rows = row_list(cuts.rows(range(cuts.row_count)))
    size = math.prod(d + 1 for d in degree)
    found = 0
    for scale in (1, 3):
        for _ in range(2):
            z = [Fraction(rng.randint(0, 9), rng.choice((1, 7) + COPRIME)) for _ in range(size)]
            z[rng.randrange(size)] += 1
            z = [scale * v / sum(z) for v in z]
            excess = [sum(x * v for x, v in zip(a, z)) - b for a, b in rows]
            over = sorted(e for e in excess if e > 0)
            for tol in (0, Fraction(1, 7919)) + tuple(over[len(over) // 2:][:1]):
                want = [i for i, e in enumerate(excess) if e > tol]
                assert cuts.scan_violations(z, tol, set()) == want
                skip = set(rng.sample(range(cuts.row_count), cuts.row_count // 3))
                assert cuts.scan_violations(z, tol, skip) == [i for i in want if i not in skip]
            found += len(over)
    assert found


def test_offer_evaluation_matches_monomial_loop():
    # Fraction and int coefficients, constants and no term at all: the
    # value of Polynomial.eval at Fraction points, always as a Fraction
    rng = random.Random(37)
    polys = [p for p, _ in _cases(True)] + [
        Polynomial(2, {(2, 1): 3, (0, 1): -1, (0, 0): 4}),
        Polynomial(3, {(0, 0, 2): 1}),
        Polynomial.constant(2, 5),
        Polynomial.constant(2, Fraction(1, 3)),
        Polynomial.zero(3),
    ]
    for p in polys:
        evaluate = _evaluator(p, EXACT)[0]
        for _ in range(3):
            point = tuple(
                Fraction(rng.randint(-30, 30), rng.choice((1, 2, 7) + COPRIME))
                for _ in range(p.dimension)
            )
            got, want = evaluate(point), p.eval(point)
            assert got == want and type(got) is Fraction
    # float coefficients count at their exact ratios; float mode keeps the loop
    q = Polynomial(1, {(1,): 0.1, (0,): Fraction(1, 3)})
    point = (Fraction(1, 3),)
    got = _evaluator(q, EXACT)[0](point)
    assert got == q.convert(Fraction).eval(point) and type(got) is Fraction
    assert _evaluator(q, FLOAT)[0] == q.eval
