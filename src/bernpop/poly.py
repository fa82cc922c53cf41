"""Sparse multivariate polynomials, boxes, and the change of variables
from a box onto the unit box.

Coefficients are generic scalars: ``float`` (binary64 mode) or
:class:`fractions.Fraction` (exact mode).  Every operation below works for
both, because all combinatorial factors are exact integers and the only
divisions performed are by integers (exact for Fractions).

Polynomials are immutable once built; they can be shared freely between
concurrent workers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

Index = tuple[int, ...]


def index_add(i: Index, j: Index) -> Index:
    return tuple(a + b for a, b in zip(i, j))


def multi_binom(i: Index, j: Index) -> int:
    """Product of per-axis binomial coefficients C(i_l, j_l)."""
    out = 1
    for a, b in zip(i, j):
        out *= math.comb(a, b)
    return out


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial sum_I c_I x^I with a per-variable degree vector.

    ``terms`` maps exponent tuples to nonzero coefficients.  ``degree`` is
    the componentwise maximum of the exponents, or a user-supplied
    elevation of it (never smaller).
    """

    dimension: int
    terms: Mapping[Index, object] = field(default_factory=dict)
    degree: Index = ()

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.terms.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != self.dimension:
                raise ValueError(
                    f"exponent tuple {idx} does not match dimension {self.dimension}"
                )
            if any(e < 0 for e in idx):
                raise ValueError(f"negative exponent in {idx}")
            if coeff == 0:
                continue
            clean[idx] = clean.get(idx, 0) + coeff if idx in clean else coeff
        natural = tuple(
            max((idx[l] for idx in clean), default=0) for l in range(self.dimension)
        )
        if self.degree == ():
            deg = natural
        else:
            deg = tuple(int(d) for d in self.degree)
            if len(deg) != self.dimension or any(d < n for d, n in zip(deg, natural)):
                raise ValueError(f"degree {deg} is below the terms' degree {natural}")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degree", deg)

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
        return Polynomial(self.dimension, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dimension, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms: dict[Index, object] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                idx = index_add(i1, i2)
                terms[idx] = terms.get(idx, 0) + c1 * c2
        return Polynomial(self.dimension, terms)

    def scale(self, factor) -> "Polynomial":
        return Polynomial(
            self.dimension, {i: factor * c for i, c in self.terms.items()}
        )

    def convert(self, of) -> "Polynomial":
        """The same polynomial with every coefficient passed through ``of``
        (a field's ``of``: float, or Fraction, which converts exactly)."""
        return Polynomial(self.dimension, {i: of(c) for i, c in self.terms.items()}, self.degree)

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
        return Polynomial(self.dimension, terms)

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
    """An axis-aligned box with strictly positive widths."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(self.lower)
        hi = tuple(self.upper)
        if len(lo) != len(hi):
            raise ValueError("lower/upper length mismatch")
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

    def widest_axis(self) -> int:
        """Index of the widest side; lowest index wins ties."""
        best, best_w = 0, self.width(0)
        for j in range(1, self.dimension):
            w = self.width(j)
            if w > best_w:
                best, best_w = j, w
        return best

    def center(self) -> tuple:
        return tuple(
            lo + (hi - lo) / 2 for lo, hi in zip(self.lower, self.upper)
        )

    def split(self, axis: int, at) -> tuple["Box", "Box"]:
        """The halves of the box below and above ``at`` on ``axis``.  They
        skip ``__post_init__``: a point strictly between finite, ordered
        bounds leaves them finite and ordered."""
        lo, hi = self.lower, self.upper
        if not lo[axis] < at < hi[axis]:
            raise ValueError("split point outside the open interval")
        left, right = object.__new__(Box), object.__new__(Box)
        object.__setattr__(left, "lower", lo)
        object.__setattr__(left, "upper", hi[:axis] + (at,) + hi[axis + 1 :])
        object.__setattr__(right, "lower", lo[:axis] + (at,) + lo[axis + 1 :])
        object.__setattr__(right, "upper", hi)
        return left, right

    def point(self, z: Sequence) -> tuple:
        """The point lo + (hi - lo) * z of the box at unit coordinates z."""
        if len(z) != self.dimension:
            raise ValueError("point length mismatch")
        return tuple(lo + (hi - lo) * zi for lo, hi, zi in zip(self.lower, self.upper, z))


def to_unit_box(p: Polynomial, box: Box) -> tuple[Polynomial, Box]:
    """Rewrite ``p`` on ``box`` as a polynomial on [0,1]^n.

    Returns ``q`` with q(z) = p(box.point(z)), and the box.  The
    substitution is expanded one variable at a time with exact integer
    binomials, so the only rounding in float mode comes from coefficient
    products and sums.
    """
    if box.dimension != p.dimension:
        raise ValueError("box dimension does not match polynomial")
    terms: dict[Index, object] = {}
    for idx, coeff in p.terms.items():
        # partial maps exponent tuples of the already-substituted prefix
        partial: dict[Index, object] = {(): coeff}
        for j, e in enumerate(idx):
            o, s = box.lower[j], box.width(j)
            # (o + s z)^e expanded once per axis
            expansion = [
                math.comb(e, t) * (s**t) * (o ** (e - t)) for t in range(e + 1)
            ]
            nxt: dict[Index, object] = {}
            for pre, c in partial.items():
                for t, w in enumerate(expansion):
                    if w == 0:
                        continue
                    key = pre + (t,)
                    val = c * w
                    nxt[key] = nxt.get(key, 0) + val
            partial = nxt
        for key, c in partial.items():
            terms[key] = terms.get(key, 0) + c
    # keep the source degree vector: substitution cannot raise it, and the
    # Bernstein machinery expects the same tensor shape on every box
    return Polynomial(p.dimension, terms, degree=p.degree), box


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
    return Polynomial(p.dimension - 1, terms)


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
