"""Sparse multivariate polynomials, boxes, and the change of variables
from a box onto the unit box.

Coefficients are generic scalars: ``float`` (binary64 mode) or
:class:`fractions.Fraction` (exact mode).  Every operation below works for
both, because all combinatorial factors are exact integers and the only
divisions performed are by integers (exact for Fractions).

Polynomials are immutable once built; they can be shared freely between
concurrent workers.  The public constructor validates its exponents; the
polynomials this module derives from valid ones (sums, products,
derivatives, conversions, the unit-box map) are built by
``Polynomial._derived``, which only drops zero coefficients.

``to_unit_box`` is an array kernel: a block of terms is expanded at once
into the products of per-axis table rows at the positions each term
reaches, and ``np.add.at`` sums them position by position in term order,
as the per-term expansion did, so float results are the loop's to the
bit.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

Index = tuple[int, ...]


def index_add(i: Index, j: Index) -> Index:
    return tuple(a + b for a, b in zip(i, j))


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial sum_I c_I x^I with a per-variable degree vector.

    ``terms`` maps exponent tuples to nonzero coefficients.  ``degree`` is
    the componentwise maximum of the exponents.  A relaxation at a higher
    degree elevates the Bernstein form, not the polynomial: see
    ``bernstein.to_bernstein``'s ``degree``, ``bnb.relaxation_tensors``'s
    ``degree`` and the CLI's ``--degree``.
    """

    dimension: int
    terms: Mapping[Index, object] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.terms.items():
            # plain ints pass the type test at once; numpy integers are Integral too
            if not {int}.issuperset(map(type, idx)) and not all(
                isinstance(e, numbers.Integral) and not isinstance(e, bool) for e in idx
            ):
                raise ValueError(f"exponents {tuple(idx)} must be non-negative integers")
            idx = tuple(map(int, idx))
            if len(idx) != self.dimension:
                raise ValueError(
                    f"exponent tuple {idx} does not match dimension {self.dimension}"
                )
            if any(e < 0 for e in idx):
                raise ValueError(f"negative exponent in {idx}")
            if coeff == 0:
                continue
            clean[idx] = clean.get(idx, 0) + coeff if idx in clean else coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _derived(cls, dimension: int, terms: Mapping) -> "Polynomial":
        """A polynomial built from a valid one: ``terms`` has distinct
        tuples of ``dimension`` non-negative ints as keys.  Zero
        coefficients are dropped; nothing else is checked."""
        clean = {idx: c for idx, c in terms.items() if c != 0}
        out = object.__new__(cls)
        object.__setattr__(out, "dimension", dimension)
        object.__setattr__(out, "terms", clean)
        return out

    @property
    def degree(self) -> Index:
        """The componentwise maximum of the exponents; zeros with no term."""
        return tuple(map(max, zip(*self.terms))) if self.terms else (0,) * self.dimension

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, axis: int) -> "Polynomial":
        exp = [0] * dimension
        exp[axis] = 1
        return cls(dimension, {tuple(exp): 1})

    # -- arithmetic ----------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, 0) + c
        return Polynomial._derived(self.dimension, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._derived(self.dimension, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms: dict[Index, object] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                idx = index_add(i1, i2)
                terms[idx] = terms.get(idx, 0) + c1 * c2
        return Polynomial._derived(self.dimension, terms)

    def scale(self, factor) -> "Polynomial":
        return Polynomial._derived(self.dimension, {i: factor * c for i, c in self.terms.items()})

    def convert(self, of) -> "Polynomial":
        """The same polynomial with every coefficient passed through ``of``
        (a field's ``of``: float, or Fraction, which converts exactly)."""
        return Polynomial._derived(self.dimension, {i: of(c) for i, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.dimension, 1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- evaluation & calculus -----------------------------------------

    def eval(self, point: Sequence) -> object:
        """Evaluate by direct monomial summation (exact for Fractions)."""
        if len(point) != self.dimension:
            raise ValueError(
                f"point of length {len(point)} for dimension {self.dimension}"
            )
        total = 0
        for idx, c in self.terms.items():
            term = c
            for x, e in zip(point, idx):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def eval_rows(self, points: np.ndarray) -> np.ndarray:
        """``eval`` at each row of a float64 point array, as one array
        evaluation with ``eval``'s arithmetic: each term is its coefficient
        times the powers x**e (Python's float power, one per axis and
        exponent) multiplied left to right, and the terms are added in term
        order to a sum that starts at 0, so each value is ``eval``'s to the
        bit.  A product or a sum that overflows is an inf, as in Python."""
        columns, powers = points.T.tolist(), {}
        total = np.zeros(len(points))
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, c in self.terms.items():
                term = c
                for axis, e in enumerate(idx):
                    if e:
                        if (axis, e) not in powers:
                            powers[axis, e] = np.array([x**e for x in columns[axis]])
                        term = term * powers[axis, e]
                total = total + term
        return total

    def derivative(self, axis: int) -> "Polynomial":
        """Formal partial derivative along ``axis`` (0-based)."""
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis {axis} out of range")
        terms: dict[Index, object] = {}
        for idx, c in self.terms.items():
            e = idx[axis]
            if e == 0:
                continue
            new = list(idx)
            new[axis] = e - 1
            terms[tuple(new)] = terms.get(tuple(new), 0) + e * c
        return Polynomial._derived(self.dimension, terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for idx in sorted(self.terms):
            mono = "*".join(
                f"x{l}^{e}" for l, e in enumerate(idx) if e
            )
            bits.append(f"{self.terms[idx]}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"


def lie_derivative(v: Polynomial, field_polys: Sequence[Polynomial]) -> Polynomial:
    """Derivative of ``v`` along the vector field dx/dt = f(x): sum_r dV/dx_r * f_r."""
    if len(field_polys) != v.dimension:
        raise ValueError("vector field length does not match dimension")
    out = Polynomial.zero(v.dimension)
    for r, f_r in enumerate(field_polys):
        v._check_dim(f_r)
        out = out + v.derivative(r) * f_r
    return out


@dataclass(frozen=True)
class Box:
    """An axis-aligned box with at least one side, each of strictly
    positive width: an input type.  The solvers hold a box as its corner
    tuples (lower, upper)."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(self.lower)
        hi = tuple(self.upper)
        if len(lo) != len(hi):
            raise ValueError("lower/upper length mismatch")
        if not lo:
            raise ValueError("a box needs at least one side")
        for a, b in zip(lo, hi):
            if isinstance(a, float) and not math.isfinite(a):
                raise ValueError("non-finite box bound")
            if isinstance(b, float) and not math.isfinite(b):
                raise ValueError("non-finite box bound")
            if not a < b:
                raise ValueError(f"degenerate box side [{a}, {b}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def width(self, axis: int):
        return self.upper[axis] - self.lower[axis]

    def point(self, z: Sequence) -> tuple:
        """The point lo + (hi - lo) * z of the box at unit coordinates z."""
        if len(z) != self.dimension:
            raise ValueError("point length mismatch")
        return tuple(lo + (hi - lo) * zi for lo, hi, zi in zip(self.lower, self.upper, z))


# at most this many entries (terms times the positions each reaches) in
# one block of a conversion kernel, so that its temporaries stay small
BLOCK_ENTRIES = 4096


def term_blocks(count: int, reach: int):
    """Runs (k0, k1) of consecutive terms, in term order, of at most
    ``BLOCK_ENTRIES`` entries for terms that reach at most ``reach``
    positions each."""
    step = max(1, BLOCK_ENTRIES // max(reach, 1))
    return ((k0, min(k0 + step, count)) for k0 in range(0, count, step))


def _expand(lead: np.ndarray, exps: np.ndarray, tables: Sequence[tuple]) -> tuple:
    """The products lead[k] * table_0[e_k0, t_0] * table_1[e_k1, t_1] *
    ..., multiplied left to right, at the flat row-major positions t where
    no factor is zero, term after term and row-major within a term (the
    order of a per-term loop that skips zero factors): (positions,
    products).  ``tables`` holds each axis's (table, table != 0)."""
    k = np.arange(len(lead))
    key, val = np.zeros(len(lead), dtype=np.intp), lead
    for j, (table, nonzero) in enumerate(tables):
        ent, t = np.nonzero(nonzero[exps[k, j]])
        k = k[ent]
        key, val = key[ent] * table.shape[1] + t, val[ent] * table[exps[k, j], t]
    return key, val


def to_unit_box(p: Polynomial, box: Box) -> tuple[Polynomial, Box]:
    """Rewrite ``p`` on ``box`` as a polynomial on [0,1]^n.

    Returns ``q`` with q(z) = p(box.point(z)), and the box.  Like every
    polynomial, ``q`` has its own terms' degree, which is at most ``p``'s,
    so a caller that needs one tensor shape passes its relaxation degree
    to ``to_bernstein`` (as ``bnb.relaxation_tensors`` does).  Substituting
    x_j = o_j + s_j z_j expands the term c x^e into c times the product of
    the per-axis rows C(e_j, t) s_j^t o_j^(e_j - t), t = 0..e_j, with exact
    integer binomials.  The expansion is Fractions when a coefficient or a
    bound is a Fraction, and float64 otherwise (``field_of_scalars``).

    Each axis has one table of those rows, computed with scalar
    arithmetic.  A block of terms (``term_blocks``) is expanded at once
    (``_expand``): each term's coefficient times its rows, left to right,
    at the positions where no factor is zero.  ``np.add.at`` adds the
    products position by position in that order, so each coefficient is
    summed and rounded as in a term-by-term loop, and the terms of ``q``
    are in the order that loop inserts them: by the first term that
    reaches them, then row-major.  Exact expansions run on integer images
    (numerators over one common denominator per table), and Fractions are
    built once, for the result.
    """
    from .bernstein import field_of_scalars  # bernstein imports this module

    if box.dimension != p.dimension:
        raise ValueError("box dimension does not match polynomial")
    F = field_of_scalars((*p.terms.values(), *box.lower, *box.upper))
    n, count = p.dimension, len(p.terms)
    exps = np.array(list(p.terms), dtype=np.intp).reshape(count, n)
    top = exps.max(axis=0).tolist() if count else [0] * n
    shape = tuple(d + 1 for d in top)
    coeffs, den = F.image(list(p.terms.values()))
    tables = []
    for j, d in enumerate(top):
        o, s = box.lower[j], box.width(j)
        s_pow, o_pow = [s**t for t in range(d + 1)], [o**t for t in range(d + 1)]
        table = [
            [math.comb(e, t) * s_pow[t] * o_pow[e - t] for t in range(e + 1)] + [0] * (d - e)
            for e in range(d + 1)
        ]
        numer, table_den = F.image(table)
        tables.append((numer, numer != 0))
        den *= table_den
    size = math.prod(shape)
    total = np.zeros(size, dtype=coeffs.dtype)
    first = np.full(size, np.iinfo(np.intp).max)  # each position's first product
    order, done = [np.zeros(0, dtype=np.intp)], 0  # positions by first product
    # float overflow gives inf and inf - inf NaN, without a warning, as in Python
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in term_blocks(count, int(np.prod(exps + 1, axis=1).max(initial=1))):
            key, val = _expand(coeffs[k0:k1], exps[k0:k1], tables)
            # unbuffered: a repeated position takes its products one by one
            np.add.at(total, key, val)
            index = np.arange(done, done + len(key))
            np.minimum.at(first, key, index)
            order.append(key[first[key] == index])
            done += len(key)
    order = np.concatenate(order)
    keys = map(tuple, np.indices(shape).reshape(n, size).T[order].tolist())
    terms = dict(zip(keys, F.over(total[order], den).tolist()))
    return Polynomial._derived(n, terms), box


def restrict_facet(p: Polynomial, axis: int, value) -> Polynomial:
    """Substitute x_axis = value and drop the variable (dimension n-1)."""
    if not 0 <= axis < p.dimension:
        raise ValueError(f"axis {axis} out of range")
    terms: dict[Index, object] = {}
    for idx, c in p.terms.items():
        e = idx[axis]
        coeff = c * value**e if e else c
        key = idx[:axis] + idx[axis + 1 :]
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial._derived(p.dimension - 1, terms)


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?(?P<coeff>\d+(?:\.\d+)?|\.\d+)?(?P<vars>(?:[a-zA-Z](?:\^\d+)?)*)"
)


def parse_polynomial(text: str, variables: Sequence[str]) -> dict[Index, Fraction]:
    """Parse a plain-text polynomial like ``"40x^3y+10x^3-50x^2"``.

    Returns exponent-tuple -> Fraction (coefficients read exactly from the
    decimal literals).  Variables must be single letters listed in order,
    each with an optional ``^`` and digits.  A term has a coefficient or a
    variable, and ends at the next sign or at the end of the text.
    Whitespace may stand at the ends and next to a sign, never inside a
    term (``"2 3x"`` is not ``23x``).
    """
    var_pos = {v: i for i, v in enumerate(variables)}
    text = text.replace("−", "-").replace("**", "^")
    if re.search(r"[^+\-\s]\s+[^+\-\s]", text):
        raise ValueError(f"whitespace inside a term of polynomial {text!r}")
    text = "".join(text.split())
    if not text:
        return {}
    terms: dict[Index, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not (m.group("coeff") or m.group("vars")) or text[m.end():m.end() + 1] not in "+-":
            raise ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        exps = [0] * len(variables)
        body = m.group("vars") or ""
        for vm in re.finditer(r"([a-zA-Z])(?:\^(\d+))?", body):
            name, power = vm.group(1), vm.group(2)
            if name not in var_pos:
                raise ValueError(f"unknown variable {name!r}")
            exps[var_pos[name]] += int(power) if power else 1
        idx = tuple(exps)
        terms[idx] = terms.get(idx, Fraction(0)) + sign * coeff
        pos = m.end()
    return {i: c for i, c in terms.items() if c != 0}
