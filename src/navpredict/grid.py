"""One cell grid over axis-aligned boxes; a point is a box of zero size.

Each item is listed in every cell its box touches, by one stable sort of
uint16 cell keys: cell ``(i, j)`` holds ``order[starts[k]:starts[k+1]]``,
``k = i * ny + j``, ascending. Cells are the caller's minimum, widened to
keep to about 2**14 (at most ``3 * 2**14 + 1``). A centre ``c``'s box
has reach ``max(half, 2**-511)`` plus a band of ``2**-40 * (|c| + reach
+ extent)``, ``extent`` the items' largest coordinate magnitude. It holds
each item whose computed per-axis offsets from ``c`` to a point of its
box are at most ``max(half, 2**-511)``, each a few roundings of numbers
below ``|c| + reach + extent`` off: the band covers those and the box
edges' roundings, and items and boxes get cells by one monotone
``floor((x - origin) / cell)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CellGrid", "MIN_REACH"]

_MAX_CELLS = 2 ** 14
# Smallest reach and cell: 2**-511 squared is the smallest normal float64.
MIN_REACH = 2.0 ** -511
_BAND = 2.0 ** -40
# ``c + reach * _SIDES`` is ``c - reach`` and ``c + reach``, bit for bit.
_SIDES = np.array([-1.0, 1.0]).reshape(2, 1, 1)


class CellGrid:
    """Boxes given by their corners ``lo`` and ``hi``, ``(2, n)`` arrays of
    x and y rows, over ``shape = (nx, ny)`` cells from ``origin``."""

    __slots__ = ("origin", "cell", "shape", "starts", "order", "_extent")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, min_cell: float):
        n = lo.shape[1]
        origin, top = ((lo.min(axis=1), hi.max(axis=1)) if n
                       else (np.zeros(2), np.zeros(2)))
        width, height = (top - origin).tolist()
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError("grid coordinates must be finite")
        cell = max(min_cell,
                   math.sqrt(width) * math.sqrt(height / _MAX_CELLS),
                   max(width, height) / _MAX_CELLS, MIN_REACH)
        nx, ny = math.floor(width / cell) + 1, math.floor(height / cell) + 1
        first = np.floor((lo - origin[:, None]) / cell)
        # Points pass one array as both corners; their cells take one pass.
        last = first if hi is lo else np.floor((hi - origin[:, None]) / cell)
        key = first[0] * ny + first[1]
        one_cell = np.array_equal(last, first)
        if not one_cell:
            # List each item once per cell of its box: entry k of an item
            # is the cell k // rows columns and k % rows rows on from its
            # first. In-place steps keep few entry-sized arrays alive.
            spans = (last - first + 1).astype(np.intp)
            del first, last
            counts = spans[0] * spans[1]
            item = np.repeat(np.arange(n), counts)
            k = np.arange(len(item))
            k -= (counts.cumsum() - counts).take(item)
            rows = spans[1].take(item)
            del spans, counts
            column = k // rows
            k -= column * rows
            column *= ny
            column += k
            del k, rows
            key = key.take(item)
            key += column
            del column
        # A uint16 key takes numpy's radix sort.
        key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
        starts = np.zeros(nx * ny + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=nx * ny), out=starts[1:])
        self.origin, self.cell, self.shape = origin, cell, np.array([nx, ny])
        self.starts = starts
        self.order = order if one_cell else item.take(order)
        self._extent = float(np.abs([origin, top]).max())

    def _reach(self, magnitude, half):
        """A box's reach: ``half`` plus the band, for ``|c|`` given as a
        float or an array; ``half`` is at least ``MIN_REACH``."""
        return half + (magnitude + (half + self._extent)) * _BAND

    def cells(self, centers: np.ndarray, half: float) -> np.ndarray:
        """The cells of the boxes of ``(n, 2)`` centres, ``(2, n, 2)``:
        ``[0]`` holds each box's first cell along x and y, and ``[1]`` one
        past its last. A box misses the grid where the two are equal."""
        half = max(half, MIN_REACH)
        # Offsets past the float range become infinities, which clip.
        with np.errstate(over="ignore"):
            reach = self._reach(np.abs(centers), half)
            box = np.floor((centers + reach * _SIDES - self.origin)
                           / self.cell)
        box[1] += 1.0
        return box.clip(0, self.shape).astype(np.intp)

    def box(self, x: float, y: float, half: float) -> tuple[int, ...]:
        """:meth:`cells` of the one centre ``(x, y)`` as ``(x0, x1, y0,
        y1)``, bit for bit, in float arithmetic without numpy calls."""
        half = max(half, MIN_REACH)
        (ox, oy), (nx, ny) = self.origin.tolist(), self.shape.tolist()
        return (*self._span(x, ox, nx, half), *self._span(y, oy, ny, half))

    def _span(self, c: float, origin: float, n: int, half: float):
        """The first cell and one past the last of a box along one axis."""
        reach = self._reach(abs(c), half)
        first = (c - reach - origin) / self.cell
        last = (c + reach - origin) / self.cell
        # Clipped as ``cells`` clips, and math.floor never sees infinity:
        # floor(v) clipped to [0, n] is floor of v clipped to [0, n], and
        # floor(v) + 1 clipped to [0, n] is 1 + floor of v clipped to
        # [-1, n - 1].
        return (0 if first < 0.0 else n if first >= n else math.floor(first),
                0 if last < -1.0 else n if last >= n - 1
                else math.floor(last) + 1)
