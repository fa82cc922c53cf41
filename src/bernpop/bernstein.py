"""Bernstein-basis machinery on the unit box.

Conversion from the monomial basis, de Casteljau evaluation and
subdivision, and the basis upper bounds B(I/delta).  A polynomial's
Bernstein form is one coefficient tensor of shape (delta_1+1, ...,
delta_n+1): float64 for binary64 coefficients, or an
object array of Fractions for exact ones.  A ``Field`` carries what the
two differ in (dtype, constants, conversion, ratios, tolerances, the
integer image); the caller names it at an entry point (``to_bernstein``
infers it from the coefficients only when it is left out), and below
that it is read off the tensor's dtype by ``field_of``.  Every kernel
works on the whole tensor with per-axis array operations (outer products
of per-axis vectors, de Casteljau steps on whole slices along one axis),
applied in the same arithmetic order as the per-coefficient formulas, so
both fields give the values those formulas give.  Flat positions, where a
caller needs them, are the tensor's row-major order.

The tensor is Fractions, but exact kernels compute on its integer image
(``integer_image``: integer numerators over one common denominator):
conversion, subdivision, ordering and sign tests run on Python ints, and
Fractions are built only for what a kernel returns.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .poly import Index, Polynomial, multi_binom

# float64 holds every integer below this exactly
_EXACT_INT = 2**53


@dataclass(frozen=True, eq=False)
class BernsteinForm:
    """Coefficient tensor of a polynomial in the degree-delta basis."""

    tensor: np.ndarray
    degree: Index = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "degree", tuple(s - 1 for s in self.tensor.shape))

    @property
    def dimension(self) -> int:
        return len(self.degree)

    @functools.cached_property
    def image(self) -> tuple[np.ndarray, object]:
        """The tensor's ``Field.image`` (N, D), built once per form: the
        tensor itself over 1 in float, integer numerators over their least
        common denominator in exact mode.  N orders and signs as the
        tensor does, so the minimum and the monotonicity signs read it."""
        return field_of(self.tensor).image(self.tensor)

    @functools.cached_property
    def minimum(self) -> tuple[object, Index]:
        """Smallest coefficient and its lexicographically first index, found
        once per form (on the image)."""
        pos = int(self.image[0].argmin())
        idx = np.unravel_index(pos, self.tensor.shape)
        return self.tensor.item(pos), tuple(int(i) for i in idx)


@dataclass(frozen=True)
class Field:
    """One scalar field: binary64 on float64 arrays, or the rationals on
    object arrays of Fractions.  ``of`` converts a scalar into it, ``ratio(i,
    d)`` is i/d in it, ``array`` converts (nested) sequences, and ``tol(t)``
    is a float tolerance: t, or 0 in exact arithmetic.  ``image(a)`` is a
    pair (N, D) with a == N / D, D > 0 and N an array ordered as a is:
    float64 arrays over 1, Fractions as ``integer_image``.  ``finite(a)``
    says that no entry of a is an infinity or a NaN (Fractions never are)."""

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
    finite: Callable


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
_ratios = np.frompyfunc(Fraction, 2, 1)  # Fraction(n, d) elementwise


def _over(numer: np.ndarray, den: int) -> np.ndarray:
    """The Fractions N / D, as an object array shaped as N."""
    return np.asarray(_ratios(numer, den), dtype=object)

FLOAT = Field(False, float, 0.0, 1.0, 0.5, of=float, ratio=operator.truediv,
              array=lambda v: np.asarray(v, dtype=float), tol=lambda t: t,
              image=lambda v: (np.asarray(v), 1), finite=lambda v: bool(np.isfinite(v).all()))
EXACT = Field(True, object, Fraction(0), Fraction(1), Fraction(1, 2), of=Fraction, ratio=Fraction,
              array=lambda v: _fractions(np.array(v, dtype=object)), tol=lambda t: 0,
              image=integer_image, finite=lambda v: True)


def field(exact: bool) -> Field:
    """The field an entry point's ``exact`` flag names."""
    return EXACT if exact else FLOAT


def field_of(tensor: np.ndarray) -> Field:
    """The field of a coefficient tensor: exact iff its dtype is object."""
    return EXACT if tensor.dtype == object else FLOAT


def to_bernstein(
    p: Polynomial, degree: Index | None = None, exact: bool | None = None
) -> BernsteinForm:
    """Bernstein coefficients b_I = sum_{J<=I} C(I,J)/C(delta,J) p_J.

    ``degree`` may elevate above the polynomial's own degree; it can never
    be smaller.  ``exact`` picks the field of the tensor; left out, it is
    exact iff some coefficient is a Fraction, so a polynomial with no
    terms gets float64 unless its caller says otherwise.

    Monomial p_J adds p_J / C(delta,J) times the outer product of the
    per-axis vectors C(i_l, j_l), i_l = j_l..delta_l, to the slab
    [j_1:, ..., j_n:], one monomial after another in term order.  Exact
    conversion accumulates integers over L, the lcm of the terms'
    den(p_J) C(delta,J): monomial J adds num(p_J) L / (den(p_J) C(delta,J))
    times the same outer product, and b = N / L at the end.
    """
    delta = tuple(degree) if degree is not None else p.degree
    if len(delta) != p.dimension:
        raise ValueError("degree vector length mismatch")
    if any(d < e for d, e in zip(delta, p.degree)):
        raise ValueError(f"degree {delta} below polynomial degree {p.degree}")
    if exact is None:
        exact = any(isinstance(c, Fraction) for c in p.terms.values())
    F = field(exact)
    shape = tuple(d + 1 for d in delta)
    if F.exact:
        terms = [(jdx, Fraction(c), multi_binom(delta, jdx)) for jdx, c in p.terms.items()]
        den = math.lcm(*[c.denominator * b for _, c, b in terms])
        numer = np.zeros(shape, dtype=object)
        for jdx, c, b in terms:
            weights = outer_chain(_binomial_axes(jdx, delta), object)
            scaled = c.numerator * (den // (c.denominator * b))
            numer[tuple(slice(j, None) for j in jdx)] += scaled * weights
        return BernsteinForm(_over(numer, den))
    tensor = np.zeros(shape, dtype=float)
    for jdx, c in p.terms.items():
        axes = _binomial_axes(jdx, delta)
        # round once: a Fraction coefficient is divided before it is converted,
        # and binomial products of 2^53 or more are taken in Python ints
        in_float = math.prod(a[-1] for a in axes) < _EXACT_INT
        weights = outer_chain(axes, float if in_float else object).astype(float, copy=False)
        scaled = float(c / multi_binom(delta, jdx))
        tensor[tuple(slice(j, None) for j in jdx)] += scaled * weights
    return BernsteinForm(tensor)


def _binomial_axes(jdx: Index, delta: Index) -> list[list[int]]:
    """The per-axis vectors C(i, j_l), i = j_l..delta_l."""
    return [[math.comb(i, j) for i in range(j, d + 1)] for j, d in zip(jdx, delta)]


def axis_view(tensor: np.ndarray, axis: int) -> np.ndarray:
    """The tensor as a 3-D array (the axes before ``axis`` flattened, then
    ``axis``, then the axes after it flattened): whole slices along one
    axis are then ``[:, i]``, whatever the axis."""
    shape = tensor.shape
    return tensor.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))


def subdivide(tensor: np.ndarray, axis: int, t) -> tuple[np.ndarray, np.ndarray]:
    """De Casteljau split of a coefficient tensor along ``axis`` at t in (0,1).

    Returns the tensors of the two pieces [0,t] and [t,1] of that axis, each
    on its own unit box.  The steps run on whole slices of ``axis_view``.
    Every float step is c_i + t (c_{i+1} - c_i), which keeps a tensor that
    is constant along an axis exactly constant.  An exact tensor needs a rational t = p/q (an int or a Fraction): on the
    integer image N / D each step is (q - p) N_i + p N_{i+1}, step r lies
    over D q^r, and both pieces are returned over D q^d.
    """
    shape = tensor.shape
    d = shape[axis] - 1
    if field_of(tensor).exact:
        if not isinstance(t, numbers.Rational):
            raise ValueError(f"split point {t!r} of an exact tensor is not rational")
        p, q = t.numerator, t.denominator
        rows, den = integer_image(axis_view(tensor, axis))
        left, right = np.empty_like(rows), np.empty_like(rows)
        left[:, 0], right[:, d] = rows[:, 0] * q**d, rows[:, d] * q**d
        for r in range(1, d + 1):
            rows = (q - p) * rows[:, :-1] + p * rows[:, 1:]
            scale = q ** (d - r)
            left[:, r], right[:, d - r] = rows[:, 0] * scale, rows[:, -1] * scale
        den *= q**d
        return _over(left, den).reshape(shape), _over(right, den).reshape(shape)
    # step r overwrites indices 0..d-r in place and index d-r keeps it, so
    # the finished array is the right piece
    right = axis_view(tensor, axis).copy()
    left = np.empty_like(right)
    left[:, 0] = right[:, 0]
    for r in range(1, d + 1):
        step = right[:, 1 : d - r + 2] - right[:, : d - r + 1]
        step *= t
        right[:, : d - r + 1] += step
        left[:, r] = right[:, 0]
    return left.reshape(shape), right.reshape(shape)


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

