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
of a side, ``SWEEPS`` times.  Both fields run the same code on the
forms' images: floats, or cross-multiplied Python ints with floor
divisions and rational split points on the grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .bernstein import Field, field_of, subdivide

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
    its forms by two stacked ``subdivide`` calls per axis, its corners to
    match, its denominators by their factors (``_restrict``).  A sweep
    computes every axis's interval from the same forms and then cuts the
    axes in turn; each of the ``SWEEPS`` sweeps reads only the boxes the
    previous one cut.  The sign of a coefficient of p - threshold is that
    of N D' - N' D for p's N / D and the threshold's N' / D'.  Returns
    the boxes left open and the boxes cut (K booleans each)."""
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
        if threshold is not None:
            den = dens[active, 0].astype(numer.dtype)
            minima[:, 0] = minima[:, 0] * scale - shift[0] * den[:, None, None]
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
    place, with t0 = starts/G and t1 = ends/G for the grid G, (k, n) ints:
    along each axis that some box cuts, the forms' [t0, 1] piece at t0,
    then that piece's [0, s] one at s = (t1 - t0) / (1 - t0), taken as
    the [1 - s, 1] piece of the form reversed along the axis, so that a
    side a box keeps splits at t = 0, which changes nothing.  The corners
    of a cut side move to lo + (hi - lo) t0 and lo + (hi - lo) t1 (hi
    where t = 1), and the denominators ``dens`` (K, m) grow by the
    splits' factors."""
    F, grid = field_of(numer), GRID
    ratios = _grid_ratios(F, grid)
    stack, grows = numer[boxes], np.ones(len(boxes), dtype=object)
    for axis in range(starts.shape[1]):
        # the boxes that cut this axis, split apart from the others when not all do
        on = np.flatnonzero((starts[:, axis] > 0) | (ends[:, axis] < grid))
        if not len(on):
            continue
        part = stack if len(on) == len(stack) else stack[on]
        a, b = starts[on, axis], ends[on, axis]
        if a.any():
            _, part, factor = subdivide(part, axis + 1, ratios[a])
            grows[on] *= factor
        if (b < grid).any():
            # a side kept as the point t0 = t1 = 1 (x = 0) splits at 0
            rests, keeps = (grid - a).tolist(), (grid - b).tolist()
            shares = [F.ratio(y, x) if x else F.zero for x, y in zip(rests, keeps)]
            flipped = np.flip(part, axis + 2)
            _, flipped, factor = subdivide(flipped, axis + 1, np.array(shares, dtype=F.dtype))
            part = np.flip(flipped, axis + 2)
            grows[on] *= factor
        stack[on] = part
    numer[boxes], dens[boxes] = F.lowest(stack, dens[boxes] * grows[:, None])
    lower, upper = corners[boxes].transpose(1, 0, 2)
    moved = lower + (upper - lower) * ratios[np.stack((starts, ends))]  # lower itself where t0 = 0
    # upper itself where t0 or t1 is 1: a float lo + (hi - lo) may round past hi
    moved = np.where(np.stack((starts, ends)) == grid, upper, moved)
    corners[boxes] = moved.transpose(1, 0, 2)


@functools.lru_cache(maxsize=None)
def _grid_ratios(F: Field, grid: int) -> np.ndarray:
    """The grid points y/``grid``, y = 0, ..., ``grid``, in the field."""
    ratios = np.array([F.ratio(y, grid) for y in range(grid + 1)], dtype=F.dtype)
    ratios.flags.writeable = False  # shared by every call
    return ratios
