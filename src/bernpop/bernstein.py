"""Bernstein-basis machinery on the unit box.

Conversion from the monomial basis, de Casteljau evaluation and
subdivision, and the basis upper bounds B(I/delta).  A polynomial's
Bernstein form is its coefficient tensor of shape (delta_1+1, ...,
delta_n+1), held as one image (N, D) with the tensor N / D: N is the
float64 tensor and D is 1 in binary64, N an object array of Python ints
and D a positive int in exact arithmetic.  A ``Field`` carries what the
two differ in (dtype, constants, conversion, ratios, tolerances, the
integer image); the caller names it at an entry point (``to_bernstein``
infers it from the coefficients only when it is left out), and below
that it is read off N's dtype by ``field_of``.  Every kernel works on
the whole tensor with per-axis array operations (outer products of
per-axis vectors, de Casteljau steps on whole slices along one axis),
applied in the same arithmetic order as the per-coefficient formulas, so
both fields give the values those formulas give.  Flat positions, where
a caller needs them, are the tensor's row-major order.

Float conversion adds the terms' outer products a block of terms at a
time, one term after another, so each coefficient is the per-monomial
loop's to the bit.  Exact conversion contracts the integer image of the
coefficients with one integer matrix per axis, and subdivision maps a
stack of images (a leading batch axis) to its pieces' in one call, at
one split point or at one per member.
Orderings and signs read N, since D > 0, and
Fractions are built only for the values a caller asks for in the field.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Index, Polynomial, term_blocks

# float64 holds every integer below this exactly
_EXACT_INT = 2**53


@dataclass(frozen=True, eq=False)
class BernsteinForm:
    """A polynomial's coefficient tensor in the degree-delta basis, as
    ``numer / den``: a float64 ``numer`` over 1, or an object array of
    Python ints over one positive int."""

    numer: np.ndarray
    den: int = 1

    @property
    def degree(self) -> Index:
        return tuple(s - 1 for s in self.numer.shape)

    @property
    def dimension(self) -> int:
        return len(self.degree)

    @property
    def tensor(self) -> np.ndarray:
        """The coefficients in the field: ``numer`` itself in float, and
        in exact mode its Fractions, built on each read."""
        return np.asarray(field_of(self.numer).over(self.numer, self.den), dtype=self.numer.dtype)

    @property
    def minimum(self):
        """The smallest coefficient in the field, found on ``numer``."""
        return field_of(self.numer).over(self.numer.item(int(self.numer.argmin())), self.den)


# the two fields are singletons, equal and hashed by identity: the caches
# keyed on them would otherwise hash three Fractions a lookup
@dataclass(frozen=True, eq=False)
class Field:
    """One scalar field: binary64 on float64 arrays, or the rationals on
    object arrays of Fractions.  ``of`` converts a scalar into it, ``ratio(i,
    d)`` is i/d in it, ``array`` converts (nested) sequences, and ``tol(t)``
    is a float tolerance: t, or 0 in exact arithmetic.  ``image(a)`` is a
    pair (N, D) with a == N / D, D > 0 and N an array ordered as a is:
    float64 arrays over 1, Fractions as ``integer_image``; ``over(N, D)``
    is N / D in the field for an array or a number N (N itself in float,
    where D is 1).  ``finite(a)`` says that no entry of a is an infinity
    or a NaN (Fractions never are).  ``lowest(N, D)`` puts a stack of
    images, numerators (K, m, *shape) over denominators (K, m), in lowest
    terms (as they are in float).  ``normal(a, b)`` divides each row a[k,
    j] of a float stack (A, f, ...) and the number b[k, j] by one power of
    two, exactly, so that a few sums and products of its entries stay
    finite: to below 1 once some magnitude reaches 2^512, not at all
    before; ints cannot overflow, so exact ones are returned as they
    are."""

    exact: bool
    dtype: type
    zero: object
    one: object
    half: object
    of: Callable
    ratio: Callable
    array: Callable
    tol: Callable
    image: Callable
    over: Callable
    finite: Callable
    lowest: Callable
    normal: Callable


def lowest_terms(numer: np.ndarray, dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each image of an exact stack, numerators (K, m, *shape) of Python
    ints over denominators (K, m), divided by the gcd of its numerators
    and its denominator."""
    gcd = np.gcd(np.gcd.reduce(numer.reshape(numer.shape[:2] + (-1,)), axis=-1), dens)
    return numer // gcd.reshape(gcd.shape + (1,) * (numer.ndim - 2)), dens // gcd


def normal_rows(rows: np.ndarray, extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row rows[k, j] (of a float stack (A, f, ...)) and the number
    extra[k, j] times 2^-e, e the binary exponent of their largest
    magnitude (frexp's: that magnitude is then in [1/2, 1)); a row of
    zeros, infinities or NaNs keeps e = 0.  While every magnitude is below
    2^512, where sums and products of a few entries with small ints
    cannot overflow, both are returned as they are."""
    if np.abs(rows).max(initial=0.0) < 2.0**512 and np.abs(extra).max(initial=0.0) < 2.0**512:
        return rows, extra
    tops = np.abs(rows.reshape(extra.shape + (-1,))).max(axis=-1, initial=0.0)
    exponents = -np.frexp(np.maximum(tops, np.abs(extra)))[1]
    return np.ldexp(rows, exponents.reshape(extra.shape + (1,) * (rows.ndim - extra.ndim))), np.ldexp(extra, exponents)


def integer_image(values) -> tuple[np.ndarray, int]:
    """Numerators N (an object array of Python ints, shaped as ``values``)
    and one positive int D, the least common denominator, with values ==
    N / D exactly (Fractions, ints, or floats by their exact ratios)."""
    values = np.asarray(values, dtype=object)
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    den = math.lcm(*[d for _, d in ratios])
    numer = np.array([n * (den // d) for n, d in ratios], dtype=object)
    return numer.reshape(values.shape), den


_fractions = np.frompyfunc(Fraction, 1, 1)  # Fraction(v) elementwise over object arrays
_ratios = np.frompyfunc(Fraction, 2, 1)  # Fraction(n, d) elementwise, or of one pair
_numerators = np.frompyfunc(operator.attrgetter("numerator"), 1, 1)  # of rationals, elementwise
_denominators = np.frompyfunc(operator.attrgetter("denominator"), 1, 1)

FLOAT = Field(False, float, 0.0, 1.0, 0.5, of=float, ratio=operator.truediv,
              array=lambda v: np.asarray(v, dtype=float), tol=lambda t: t,
              image=lambda v: (np.asarray(v, dtype=float), 1), over=lambda v, d: v,
              finite=lambda v: bool(np.isfinite(v).all()), lowest=lambda n, d: (n, d),
              normal=normal_rows)
EXACT = Field(True, object, Fraction(0), Fraction(1), Fraction(1, 2), of=Fraction, ratio=Fraction,
              array=lambda v: _fractions(np.array(v, dtype=object)), tol=lambda t: 0,
              image=integer_image, over=_ratios, finite=lambda v: True, lowest=lowest_terms,
              normal=lambda a, b: (a, b))


def field(exact: bool) -> Field:
    """The field an entry point's ``exact`` flag names."""
    return EXACT if exact else FLOAT


def field_of(tensor: np.ndarray) -> Field:
    """The field of a tensor or a form's ``numer``: exact iff its dtype is object."""
    return EXACT if tensor.dtype == object else FLOAT


def field_of_scalars(values) -> Field:
    """The field a conversion picks when its caller names none: exact iff
    some value of the collection ``values`` is a Fraction."""
    samples = dict(zip(map(type, values), values)).values()  # one value of each type
    return field(any(isinstance(v, Fraction) for v in samples))


def to_bernstein(
    p: Polynomial, degree: Index | None = None, exact: bool | None = None
) -> BernsteinForm:
    """Bernstein coefficients b_I = sum_{J<=I} C(I,J)/C(delta,J) p_J.

    ``degree`` may elevate above the polynomial's own degree; it can never
    be smaller.  ``exact`` picks the field of the tensor; left out, it is
    exact iff some coefficient is a Fraction, so a polynomial with no
    terms gets float64 unless its caller says otherwise.

    In float, monomial p_J adds p_J / C(delta,J), rounded once, times the
    outer product of the per-axis rows C(i_l, j_l) of the binomial tables
    (``_binomials``) to the tensor, one monomial after another in term
    order; the outer products are built for a block of monomials at once
    (``poly.term_blocks``).  An outer product of 2^53 or more is taken in
    Python ints and rounded once.  Exact conversion is a
    contraction: on the dense integer image N / D of the coefficients,
    axis l applies the integer matrix C(i, j) L_l / C(delta_l, j), with
    L_l the lcm of the C(delta_l, j), and the form is (N', D prod_l L_l).
    """
    delta = tuple(degree) if degree is not None else p.degree
    if len(delta) != p.dimension:
        raise ValueError("degree vector length mismatch")
    if any(d < e for d, e in zip(delta, p.degree)):
        raise ValueError(f"degree {delta} below polynomial degree {p.degree}")
    if exact is None:
        exact = field_of_scalars(p.terms.values()).exact
    F = field(exact)
    shape = tuple(d + 1 for d in delta)
    if F.exact:
        numer, den = integer_image(list(p.terms.values()))
        dense = np.zeros(shape, dtype=object)
        for jdx, v in zip(p.terms, numer.tolist()):
            dense[jdx] = v
        for l, d in enumerate(delta):
            matrix, lcm = _contraction(d)
            dense = np.moveaxis(np.tensordot(matrix, dense, axes=([1], [l])), 0, l)
            den *= lcm
        return BernsteinForm(dense, den)
    count, n = len(p.terms), len(delta)
    exps = np.array(list(p.terms), dtype=np.intp).reshape(count, n)
    tables = [_binomials(d) for d in delta]
    binoms = np.ones(count, dtype=object)  # C(delta, J), in Python ints
    for (ints, _), column in zip(tables, exps.T):
        binoms = binoms * ints[column, -1]
    # a Fraction p_J is divided before it is converted, so each p_J / C(delta, J)
    # is rounded once
    scaled = np.array(list(map(operator.truediv, p.terms.values(), binoms.tolist())), dtype=float)
    big = binoms >= _EXACT_INT
    rows = [floats[exps[:, l]] for l, (_, floats) in enumerate(tables)]
    # off its slab a term's contribution is a signed zero, which adds nothing
    # to a sum that starts at +0, unless p_J is not finite; only then must
    # the slab mask it
    masked = not np.isfinite(scaled).all()
    total = np.zeros(math.prod(shape))
    # float overflow gives inf and inf - inf NaN, without a warning, as in Python
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in term_blocks(count, total.size):
            weights = _outer_rows([row[k0:k1] for row in rows], k1 - k0)
            for k in k0 + np.flatnonzero(big[k0:k1]):
                # an integer product of 2^53 or more is rounded once
                ints_row = outer_chain([ints[j] for (ints, _), j in zip(tables[::-1], exps[k][::-1])], object)
                weights[k - k0] = ints_row.astype(float).ravel()
            contributions = scaled[k0:k1, None] * weights
            if masked:
                contributions = np.where(weights != 0, contributions, 0)
            # one add per term, in term order as the loop adds them (faster
            # than np.add.accumulate, whose inner loop runs along the short
            # block axis)
            for contribution in contributions:
                total += contribution
    return BernsteinForm(total.reshape(shape[::-1]).T.copy())  # C order, shape () kept


def _outer_rows(rows: Sequence[np.ndarray], count: int) -> np.ndarray:
    """For each of ``count`` terms k (the first axis of every row array),
    the products 1 * rows[0][k, i_0] * rows[1][k, i_1] * ..., multiplied
    left to right, shaped (terms, positions) with the positions in
    column-major order (i_0 varies fastest): each product then broadcasts
    one axis's row over all the earlier axes at once, which is about a
    third faster than row-major broadcasting over the short last axis."""
    out = np.ones((count, 1))
    for row in rows:
        out = (out.reshape(count, 1, -1) * row.reshape(count, -1, 1)).reshape(count, -1)
    return out


@functools.lru_cache(maxsize=None)
def _binomials(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The table of C(i, j), row j and column i = 0..d (0 where i < j), as
    Python ints and as float64."""
    ints = np.array([[math.comb(i, j) for i in range(d + 1)] for j in range(d + 1)], dtype=object)
    floats = ints.astype(float)
    ints.flags.writeable = floats.flags.writeable = False  # shared by every call
    return ints, floats


@functools.lru_cache(maxsize=None)
def _contraction(d: int) -> tuple[np.ndarray, int]:
    """The integer matrix C(i, j) L / C(d, j), row i and column j, of exact
    conversion along an axis of degree d, and L = lcm_j C(d, j)."""
    lcm = math.lcm(*(math.comb(d, j) for j in range(d + 1)))
    matrix = _binomials(d)[0].T * np.array([lcm // math.comb(d, j) for j in range(d + 1)], dtype=object)
    matrix.flags.writeable = False  # shared by every call
    return matrix, lcm


def axis_view(tensor: np.ndarray, axis: int) -> np.ndarray:
    """The tensor as a 3-D array (the axes before ``axis`` flattened, then
    ``axis``, then the axes after it flattened): whole slices along one
    axis are then ``[:, i]``, whatever the axis."""
    shape = tensor.shape
    return tensor.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))


def subdivide(numer: np.ndarray, axis: int, t) -> tuple[np.ndarray, np.ndarray, object]:
    """De Casteljau split of a stack of numerators along ``axis`` at t in [0,1].

    ``numer`` holds forms' numerators along a leading batch axis, and
    ``axis`` counts a member's axes.  t is one split point for every
    member, or a vector of one per member.  Returns the stacks of the two
    pieces [0,t] and [t,1] of that axis, each on its own unit box, and the
    factor by which each member's ``den`` grows.  The steps run on whole
    slices of ``axis_view`` with the split axis first (the batch and the
    other axes folded behind it), so each member gets the values a split
    of it alone at its t gives.  Every float step is c_i + t (c_{i+1} -
    c_i), which keeps a tensor that is constant along an axis exactly
    constant, and a [t,1] piece at t = 0 exactly the member; the factor is
    1.  An exact stack needs rational split points t = p/q (ints or
    Fractions).  Each step r is then (q - p) N_i + p N_{i+1} on the
    numerators, over D q^r, and both pieces are scaled to one denominator
    D q^d, left unreduced: the factor is q^d, a number for one t and one
    per member for a vector.
    """
    shape, d = numer.shape, numer.shape[axis + 1] - 1
    # the split axis first, over the batch and the other axes folded: each
    # step then runs on whole contiguous slices
    rows = axis_view(numer, axis + 1).swapaxes(0, 1)
    t = np.asarray(t, dtype=numer.dtype)
    # a member's t, repeated over the slices it folds into the batch axis
    each = np.repeat(t, rows.shape[1] // max(len(numer), 1))[:, None] if t.ndim else t
    if field_of(numer).exact:
        if not all(isinstance(v, numbers.Rational) for v in t.ravel().tolist()):
            raise ValueError(f"split point {t!r} of an exact form is not rational")
        p, q = _numerators(each), _denominators(each)
        left, right = np.empty_like(rows), np.empty_like(rows)
        left[0], right[d] = rows[0] * q**d, rows[d] * q**d
        for r in range(1, d + 1):
            rows = (q - p) * rows[:-1] + p * rows[1:]
            scale = q ** (d - r)
            left[r], right[d - r] = rows[0] * scale, rows[-1] * scale
        factor = _denominators(t) ** d
    else:
        # step r overwrites indices 0..d-r in place and index d-r keeps it,
        # so the finished array is the right piece
        right = rows.copy()
        left = np.empty_like(right)
        left[0] = right[0]
        for r in range(1, d + 1):
            step = right[1 : d - r + 2] - right[: d - r + 1]
            step *= each
            right[: d - r + 1] += step
            left[r] = right[0]
        factor = 1
    return left.swapaxes(0, 1).reshape(shape), right.swapaxes(0, 1).reshape(shape), factor


def bernstein_eval(bf: BernsteinForm, point: Sequence) -> object:
    """De Casteljau evaluation, one tensor axis at a time, last axis first:
    each step is (1 - x) c_i + x c_{i+1} on whole trailing-axis slices.
    Requires x in [0,1]^n."""
    if len(point) != bf.dimension:
        raise ValueError("point length mismatch")
    for x in point:
        if x < 0 or x > 1:
            raise ValueError(f"point coordinate {x} outside [0,1]")
    vals = bf.tensor
    for x in reversed(point):
        a, b = 1 - x, x
        if vals.dtype != object:  # a Fraction times a float rounds the Fraction first
            a, b = float(a), float(b)
        for _ in range(vals.shape[-1] - 1):
            vals = a * vals[..., :-1] + b * vals[..., 1:]
        vals = vals[..., 0]
    return vals.item()


# ---------------------------------------------------------------------------
# basis upper bounds


def _beta_peak(i: int, d: int, F: Field):
    """max of beta_{i,d} on [0,1], attained at i/d; degree-0 axes give 1."""
    if d == 0 or i == 0 or i == d:
        return F.one
    t = F.ratio(i, d)
    return math.comb(d, i) * t**i * (1 - t) ** (d - i)


def outer_chain(per_axis: Sequence[Sequence], dtype) -> np.ndarray:
    """The tensor w_I = 1 * v_1[i_1] * ... * v_n[i_n] of per-axis vectors
    v_l, multiplied left to right (float64, or object for Python numbers)."""
    out = np.ones((), dtype=dtype)
    for v in per_axis:
        out = np.multiply.outer(out, np.array(v, dtype=dtype))
    return out


def upper_bounds(degree: Index, exact: bool = False) -> np.ndarray:
    """u_I = B_{I,delta}(I/delta) for all I, flat row-major."""
    F = field(exact)
    peaks = [[_beta_peak(i, d, F) for i in range(d + 1)] for d in degree]
    return outer_chain(peaks, F.dtype).ravel()

