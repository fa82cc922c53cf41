"""Bernstein contraction: cut a stack of boxes to where the cutoff and
the constraints can still hold.

A form that must be <= 0 somewhere on a box (the objective minus the
incumbent's cutoff threshold, or a constraint g with g <= 0) can be so,
by the convex-hull property of its Bernstein coefficients, only where
the lower hull of the points (i/d, m_i) along each axis is <= 0, m_i the
smallest coefficient with index i there (Sherbrooke and Patrikalakis's
projected-polyhedron step; the prune of Nataraj and Arounassalame's
Bernstein branch and prune).  ``contract`` reads that interval off every
box of a stack, rounds it outward to the grid 1/``GRID``, closes a box
where it is empty and restricts one where it keeps less than ``RATIO``
of a side, ``SWEEPS`` times.  Every end of a cut lies on the grid, so
restricting a side of degree d to [a/G, b/G] is one fixed matrix M(a,
b), built from two cached tables a degree (``_grid_tables``).  Both
fields run the same code on the forms' images: floats, or
cross-multiplied Python ints with floor divisions and integer tables.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bernstein import Field, field_of

# a side is cut to the grid 1/GRID, outward, when that keeps less than
# RATIO of it (0 restricts no box); the axes are swept SWEEPS times a round
GRID = 64
RATIO = 0.9
SWEEPS = 2


def contract(corners: np.ndarray, numer: np.ndarray, dens: np.ndarray, threshold) -> tuple:
    """Cut a stack of boxes to where their forms can still be <= 0, in place.

    The forms are p - ``threshold`` (once there is one) and each
    constraint, read off ``numer`` (K, m, *shape) over ``dens`` (K, m);
    ``corners`` (K, 2, n) holds the boxes.  Along an axis r of positive
    width and degree d >= 1, let m_i be the smallest coefficient of a
    form with index i on r (``_axis_minima``).  The form can be <= 0 only
    on the interval [t0, t1] of the side where the lower hull of the
    points (i/d, m_i) is <= 0 (``_hull_intervals``).  The forms'
    intervals are intersected, and a box with an empty one closes.  One
    whose kept share t1 - t0 is less than ``RATIO`` is restricted to it:
    its forms by one matrix product per cut axis, its corners to match,
    its denominators by the matrices' factors (``_restrict``).  A sweep
    computes every axis's interval from the same forms and then cuts the
    axes in turn; each of the ``SWEEPS`` sweeps reads only the boxes the
    previous one cut.  The sign of a coefficient of p - threshold is that
    of N D' - N' D for p's N / D and the threshold's N' / D'; in float,
    each form's minima and its threshold are first divided by one power
    of two (``Field.normal``), so that huge coefficients cannot overflow.
    Returns the boxes left open and the boxes cut (K booleans each)."""
    F, count = field_of(numer), len(numer)
    degrees = np.array(numer.shape[2:]) - 1
    kept, cut = np.ones(count, dtype=bool), np.zeros(count, dtype=bool)
    first = 1 if threshold is None else 0  # the first form tested
    if first == numer.shape[1] or not degrees.any():
        return kept, cut
    if threshold is not None:
        shift, scale = F.image([threshold])
    active = np.arange(count)  # the boxes whose forms the sweep reads
    flat = degrees == 0
    for _ in range(SWEEPS):
        minima = _axis_minima(numer[active, first:])
        offsets = np.zeros(minima.shape[:2], dtype=numer.dtype)  # what each form subtracts
        if threshold is not None:
            minima[:, 0] *= scale
            offsets[:, 0] = shift[0] * dens[active, 0].astype(numer.dtype)
        minima, offsets = F.normal(minima, offsets)
        minima -= offsets[:, :, None, None]
        starts, ends = _hull_intervals(minima, degrees)
        lo, hi = np.maximum(starts.max(axis=1), 0), np.minimum(ends.min(axis=1), GRID)
        # a side of zero width or of degree 0 is kept whole
        box = corners[active]
        whole = (box[:, 1] <= box[:, 0]) | flat
        empty = ((lo > hi) & ~whole).any(axis=1)
        shrink = (hi - lo < RATIO * GRID) & ~(whole | empty[:, None])
        gone = active[empty]
        kept[gone], cut[gone] = False, True
        on = np.flatnonzero(shrink.any(axis=1))
        if not len(on):
            break
        active, shrink = active[on], shrink[on]
        cut[active] = True
        # a side not cut keeps [0, 1]
        lo, hi = np.where(shrink, lo[on], 0), np.where(shrink, hi[on], GRID)
        _restrict(corners, numer, dens, active, lo, hi)
    return kept, cut


def _axis_minima(stack: np.ndarray) -> np.ndarray:
    """The smallest entry of each form with index i on axis r, for a stack
    (A, f, *shape): an (A, f, n, D + 1) array, D the largest degree, with
    1 past an axis's own degree.  The forms go last in one transposed
    copy, so each reduction runs over whole contiguous rows of them, and
    each axis's reduction starts from the previous one's."""
    count, forms, shape = len(stack), stack.shape[1], stack.shape[2:]
    tail = count * forms
    rows = np.ascontiguousarray(stack.reshape(tail, -1).T).reshape(shape + (tail,))
    out = np.ones((len(shape), max(shape), tail), dtype=stack.dtype)
    for r, size in enumerate(shape):
        out[r, :size] = rows.min(axis=tuple(range(1, rows.ndim - 1)))
        rows = rows.min(axis=0)
    return out.transpose(2, 0, 1).reshape(count, forms, len(shape), max(shape))


def _hull_intervals(minima: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid intervals [t0, t1] where the lower convex hull of the points
    (i/d, m_i) is <= 0, for minima m (A, f, n, D + 1) along axes of
    ``degrees`` d: the smallest and the largest of the grid points i/d
    with m_i <= 0 and of the zero crossings (j m_i - i m_j) / (d (m_i -
    m_j)) of the segments from a point with m_i > 0 to one with m_j <= 0,
    in units of 1/``GRID``, t0 rounded down and t1 up (floor
    divisions, in integers on an exact stack).  Returns (A, f, n) int
    arrays t0 and t1; a form with no point <= 0 gets t0 > t1."""
    grid = GRID
    real, floors, ceils = _grid_points(tuple(degrees.tolist()), grid)
    below = (minima <= 0) & real
    starts = np.where(below, floors, grid + 1).min(axis=-1)
    ends = np.where(below, ceils, -1).max(axis=-1)
    *rows, i, j = np.nonzero(((minima > 0) & real)[..., :, None] & below[..., None, :])
    if len(i):
        # int64 indices times an object array give Python ints
        mi, mj = minima[(*rows, i)], minima[(*rows, j)]
        num, den = (grid * j) * mi - (grid * i) * mj, degrees[rows[-1]] * (mi - mj)
        np.minimum.at(starts, tuple(rows), (num // den).astype(np.int64))
        np.maximum.at(ends, tuple(rows), (-(-num // den)).astype(np.int64))
    return starts, ends


@functools.lru_cache(maxsize=None)
def _grid_points(degrees: tuple, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For axes of ``degrees`` d, padded to the largest: which indices i
    are the axis's own, and the grid point i/d in units of 1/``grid``
    rounded down and up, each (n, D + 1)."""
    index, per = np.arange(max(degrees) + 1), np.maximum(degrees, 1)[:, None]
    steps = index * grid
    points = index <= np.array(degrees)[:, None], steps // per, -(-steps // per)
    for array in points:
        array.flags.writeable = False  # shared by every call
    return points


def _restrict(corners, numer, dens, boxes, starts, ends) -> None:
    """Restrict the ``boxes`` of a stack to [t0, t1] on each side, in
    place, with t0 = a/G and t1 = b/G for the grid G, ``starts`` a and
    ``ends`` b (k, n) ints.  Along each axis that some box cuts, the
    forms of the boxes that cut it are multiplied by each box's matrix
    M(a, b), in one broadcast product over the axis (``_grid_tables``).
    The corners of a cut side move to lo + (hi - lo) t0 and lo + (hi -
    lo) t1 (hi where t = 1), and the denominators ``dens`` (K, m) grow by
    G^d for each cut axis of degree d (1 in float)."""
    F, grid = field_of(numer), GRID
    stack, grows = numer[boxes], np.ones(len(boxes), dtype=object)
    cuts = (starts > 0) | (ends < grid)
    for axis in range(starts.shape[1]):
        # the boxes that cut this axis, split apart from the others when not all do
        on = np.flatnonzero(cuts[:, axis])
        if not len(on):
            continue
        part = stack if len(on) == len(stack) else stack[on]
        d = part.shape[axis + 2] - 1
        left, right, factor = _grid_tables(F, d)
        # M_ij = sum_l left[b, i, l] right[a, i, l, j], one row vector product per i
        matrices = (left[ends[on, axis], :, None] @ right[starts[on, axis]])[:, :, 0]
        rows = part.reshape(len(on), -1, d + 1, math.prod(part.shape[axis + 3:]))
        stack[on] = (matrices[:, None] @ rows).reshape(part.shape)
        grows[on] *= factor
    numer[boxes], dens[boxes] = F.lowest(stack, dens[boxes] * grows[:, None])
    # lo + (hi - lo) t on the images of the corners and of the grid points
    # (ints in exact mode, t = y / G), so each exact corner is one Fraction
    box = corners[boxes]
    image, den = F.image(box)
    lower, upper = image.transpose(1, 0, 2)
    ratios, scale = _grid_ratios(F, grid)
    ts = np.stack((starts, ends))  # t0 and t1 in units of 1/G
    moved = F.over(lower * scale + (upper - lower) * ratios[ts], den * scale)  # lower where t0 = 0
    # upper itself where t0 or t1 is 1: a float lo + (hi - lo) may round past hi
    moved = np.where(ts == grid, box[:, 1], moved)
    corners[boxes] = moved.transpose(1, 0, 2)


@functools.lru_cache(maxsize=None)
def _grid_tables(F: Field, d: int) -> tuple[np.ndarray, np.ndarray, object]:
    """The restriction of a degree-d axis to [a/G, b/G], for the grid G:
    coefficient i of the restricted form is sum_j M_ij c_j, M the blossom
    at b/G i times and a/G d - i times, so that M_ij = sum_{l + m = j}
    B^i_l(b/G) B^{d-i}_m(a/G).  Returns the tables left[b, i, l] = C(i, l)
    b^l (G - b)^(i - l) / G^d and right[a, i, l, j] = C(d - i, m) a^m (G
    - a)^(d - i - m) at m = j - l (0 where m is not in 0, ..., d - i), so
    that M_ij = sum_l left[b, i, l] right[a, i, l, j] over the factor
    returned last, by which a denominator grows.  Exact tables hold ints,
    G^d moved into the factor; float ones hold binary64 over 1, exact for
    d <= 8, where every entry of M is an integer below 2^53 times the
    power of two G^-d."""
    grid = GRID
    points = np.arange(grid + 1, dtype=F.dtype)[:, None]
    # powers[y, i] holds the coefficients of ((G - y) + y z)^i, one power after another
    powers = np.zeros((grid + 1, d + 1, d + 1), dtype=F.dtype)
    powers[:, 0, 0] = 1
    for i in range(d):
        powers[:, i + 1] = (grid - points) * powers[:, i]
        powers[:, i + 1, 1:] += points * powers[:, i, :-1]
    # the image of 1 / G^d: G^-d over 1 in float, 1 over G^d exact
    (unit,), factor = F.image([F.ratio(1, grid**d)])
    # row l of right[a, i] is powers[a, d - i] shifted l places; past column d it
    # only meets l > i, where left[b, i, l] is 0
    right = np.zeros((grid + 1, d + 1, d + 1, 2 * d + 1), dtype=F.dtype)
    for shift in range(d + 1):
        right[:, :, shift, shift : shift + d + 1] = powers[:, ::-1]
    tables = powers * unit, np.ascontiguousarray(right[..., : d + 1])
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return *tables, factor


@functools.lru_cache(maxsize=None)
def _grid_ratios(F: Field, grid: int) -> tuple[np.ndarray, object]:
    """The image of the grid points y/``grid``, y = 0, ..., ``grid``, in
    the field: the points over 1 in float, the ints y over ``grid``
    exact."""
    ratios, scale = F.image([F.ratio(y, grid) for y in range(grid + 1)])
    ratios.flags.writeable = False  # shared by every call
    return ratios, scale
