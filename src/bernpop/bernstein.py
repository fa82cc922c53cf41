"""Bernstein-basis machinery on the unit box.

Conversion from the monomial basis, de Casteljau evaluation and
subdivision, the basis upper bounds B(I/delta), univariate degree
elevation, and the vertex condition.  Everything is scalar-generic:
Fractions give exact coefficients, floats give binary64 ones.  Tensors are
stored flat in row-major order, i.e. the linear position of index I is
sum_j i_j * prod_{l>j}(delta_l + 1); ``coefficient_tensor`` reshapes them
into numpy arrays (float64, or object arrays of Fractions) for subdivision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .poly import Index, Polynomial, multi_binom

# ---------------------------------------------------------------------------
# index helpers


def tensor_size(degree: Index) -> int:
    size = 1
    for d in degree:
        size *= d + 1
    return size


def strides(degree: Index) -> tuple[int, ...]:
    out = [1] * len(degree)
    for j in range(len(degree) - 2, -1, -1):
        out[j] = out[j + 1] * (degree[j + 1] + 1)
    return tuple(out)


def iter_indices(degree: Index) -> Iterator[Index]:
    """All I <= degree in row-major (lexicographic) order."""
    return itertools.product(*(range(d + 1) for d in degree))


# ---------------------------------------------------------------------------
# conversion and evaluation


@dataclass(frozen=True)
class BernsteinForm:
    """Dense coefficient tensor of a polynomial in the degree-delta basis."""

    degree: Index
    coeffs: tuple
    source_degree: Index

    def __post_init__(self):
        if len(self.coeffs) != tensor_size(self.degree):
            raise ValueError("coefficient tensor size does not match degree")

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "BernsteinForm":
        """Flat view of a coefficient tensor shaped (delta_1+1, ..., delta_n+1)."""
        degree = tuple(s - 1 for s in tensor.shape)
        return cls(degree, tuple(tensor.ravel().tolist()), degree)

    @property
    def dimension(self) -> int:
        return len(self.degree)


def to_bernstein(p: Polynomial, degree: Index | None = None) -> BernsteinForm:
    """Bernstein coefficients b_I = sum_{J<=I} C(I,J)/C(delta,J) p_J.

    ``degree`` may elevate above the polynomial's own degree; it can never
    be smaller.
    """
    delta = tuple(degree) if degree is not None else p.degree
    if len(delta) != p.dimension:
        raise ValueError("degree vector length mismatch")
    if any(d < e for d, e in zip(delta, p.degree)):
        raise ValueError(f"degree {delta} below polynomial degree {p.degree}")
    st = strides(delta)
    coeffs = [0] * tensor_size(delta)
    for jdx, c in p.terms.items():
        scaled = c / multi_binom(delta, jdx)
        axis_binoms = [
            [math.comb(i, j) for i in range(j, d + 1)]
            for j, d in zip(jdx, delta)
        ]
        base = sum(j * s for j, s in zip(jdx, st))
        for offs in itertools.product(*(range(len(ab)) for ab in axis_binoms)):
            w = 1
            pos = base
            for l, t in enumerate(offs):
                w *= axis_binoms[l][t]
                pos += t * st[l]
            coeffs[pos] += scaled * w
    return BernsteinForm(delta, tuple(coeffs), p.degree)


def coefficient_tensor(bf: BernsteinForm) -> np.ndarray:
    """The coefficients as an array of shape (delta_1+1, ..., delta_n+1):
    an object array when any coefficient is a Fraction, float64 otherwise."""
    exact = any(isinstance(c, Fraction) for c in bf.coeffs)
    shape = tuple(d + 1 for d in bf.degree)
    return np.array(bf.coeffs, dtype=object if exact else float).reshape(shape)


def subdivide(tensor: np.ndarray, axis: int, t) -> tuple[np.ndarray, np.ndarray]:
    """De Casteljau split of a coefficient tensor along ``axis`` at t in (0,1).

    Returns the tensors of the two pieces [0,t] and [t,1] of that axis, each
    on its own unit box.  Every step is c_i + t (c_{i+1} - c_i), which keeps
    a tensor that is constant along an axis exactly constant.
    """
    rows = np.moveaxis(tensor, axis, 0)
    d = rows.shape[0] - 1
    left = np.empty_like(rows)
    right = np.empty_like(rows)
    left[0], right[d] = rows[0], rows[d]
    for r in range(1, d + 1):
        rows = rows[:-1] + t * (rows[1:] - rows[:-1])
        left[r], right[d - r] = rows[0], rows[-1]
    return np.moveaxis(left, 0, axis), np.moveaxis(right, 0, axis)


def bernstein_eval(bf: BernsteinForm, point: Sequence) -> object:
    """De Casteljau evaluation, one tensor axis at a time.  Requires x in [0,1]^n."""
    if len(point) != bf.dimension:
        raise ValueError("point length mismatch")
    for x in point:
        if x < 0 or x > 1:
            raise ValueError(f"point coordinate {x} outside [0,1]")
    vals = list(bf.coeffs)
    shape = [d + 1 for d in bf.degree]
    # reduce the trailing (contiguous) axis repeatedly
    for axis in range(bf.dimension - 1, -1, -1):
        m = shape[axis]
        x = point[axis]
        lead = 1
        for s in shape[:axis]:
            lead *= s
        new = [0] * lead
        for blk in range(lead):
            row = vals[blk * m : (blk + 1) * m]
            for r in range(m - 1):
                row = [
                    (1 - x) * row[i] + x * row[i + 1] for i in range(len(row) - 1)
                ]
            new[blk] = row[0]
        vals = new
    return vals[0]


# ---------------------------------------------------------------------------
# bounds, elevation, vertex condition


def _beta_peak(i: int, d: int, exact: bool):
    """max of beta_{i,d} on [0,1], attained at i/d; degree-0 axes give 1."""
    if d == 0:
        return Fraction(1) if exact else 1.0
    if i == 0 or i == d:
        return Fraction(1) if exact else 1.0
    t = Fraction(i, d) if exact else i / d
    return math.comb(d, i) * t**i * (1 - t) ** (d - i)


def upper_bounds(degree: Index, exact: bool = False) -> list:
    """u_I = B_{I,delta}(I/delta) for all I, flat row-major."""
    per_axis = [
        [_beta_peak(i, d, exact) for i in range(d + 1)] for d in degree
    ]
    out = []
    for idx in iter_indices(degree):
        w = Fraction(1) if exact else 1.0
        for l, i in enumerate(idx):
            w *= per_axis[l][i]
        out.append(w)
    return out


def univariate_elevation(k: int, m: int, exact: bool = False) -> list[list]:
    """Rows e[i][j] expressing beta_{i,k} = sum_j e[i][j] beta_{j,m} (k <= m)."""
    if k > m:
        raise ValueError("cannot elevate to a smaller degree")
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(m + 1):
            num = math.comb(k, i) * math.comb(m - k, j - i) if i <= j <= i + m - k else 0
            if num == 0:
                row.append(Fraction(0) if exact else 0.0)
            else:
                den = math.comb(m, j)
                row.append(Fraction(num, den) if exact else num / den)
        rows.append(row)
    return rows


def monomial_bernstein_row(idx: Index, degree: Index, exact: bool = False) -> list:
    """Coefficients of x^I in the degree-delta basis: C(J,I)/C(delta,I) for J >= I."""
    if not all(i <= d for i, d in zip(idx, degree)):
        raise ValueError("index exceeds degree")
    den = multi_binom(degree, idx)
    out = []
    for jdx in iter_indices(degree):
        if all(j >= i for i, j in zip(idx, jdx)):
            num = multi_binom(jdx, idx)
            out.append(Fraction(num, den) if exact else num / den)
        else:
            out.append(Fraction(0) if exact else 0.0)
    return out


def min_coefficient(bf: BernsteinForm) -> tuple[object, Index]:
    """Smallest Bernstein coefficient and its lexicographically first index."""
    best = None
    best_idx: Index = ()
    for pos, idx in enumerate(iter_indices(bf.degree)):
        c = bf.coeffs[pos]
        if best is None or c < best:
            best, best_idx = c, idx
    return best, best_idx


def vertex_condition(bf: BernsteinForm, idx: Index) -> bool:
    """True iff every coordinate of ``idx`` sits at 0 or at delta_j."""
    if not all(i <= d for i, d in zip(idx, bf.degree)):
        raise ValueError("index exceeds degree")
    return all(i == 0 or i == d for i, d in zip(idx, bf.degree))


def vertex_point(idx: Index, degree: Index) -> tuple:
    """Unit-box corner matching a vertex index (0 -> 0, delta_j -> 1)."""
    return tuple(0 if (i == 0 or d == 0) else 1 for i, d in zip(idx, degree))
