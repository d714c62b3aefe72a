"""Directed navigation graph with an HD-map-style query API.

A :class:`NavGraph` holds geographic nodes and directed road-segment
edges as arrays. :func:`localize` projects it into a city frame in one
array pass and indexes its chords in a :class:`navpredict.grid.CellGrid`,
after which road segments can be queried by radius and walked via
successor/predecessor relations, mirroring the query surface of a
lane-level HD map API. No Python object is made per node until one is
read through ``NavGraph.nodes`` or ``LocalNavGraph.local``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .geo import (CityFrame, GeoPoint, InvalidCoordinateError, LocalPoint,
                  geo_to_local_arrays)
from .grid import CellGrid

__all__ = [
    "EdgeId",
    "NavGraph",
    "LocalNavGraph",
    "RoadSegment",
    "UnknownEdgeError",
    "GraphFormatError",
    "localize",
    "resample_polyline",
    "save_graph",
    "load_graph",
]

# An edge is identified by its (src, dst) node pair; the pair is unique
# and survives serialization, unlike positional indices.
EdgeId = tuple[int, int]

_GRID_CELL = 100.0  # meters; the index's minimum cell size
# Most resample intervals a step may give over a graph's edges (or one
# chord): a polyline point takes 16 bytes, so this keeps the points of a
# query over the whole graph to 256 MB.
MAX_RESAMPLE_INTERVALS = 2 ** 24
# Relative width of the band around a query radius in which the scalar
# hit test decides: far wider than the last-bit gap between np.hypot and
# math.hypot.
_BORDER_BAND = 1e-9
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class UnknownEdgeError(KeyError):
    """Queried edge id is not part of the graph."""


class GraphFormatError(ValueError):
    """A serialized graph file violates the line format."""


class _RecordError(ValueError):
    """A record breaks a NavGraph rule; ``index`` is its place in the
    input."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class _NodeError(_RecordError):
    """A node breaks a NavGraph rule."""


class _EdgeError(_RecordError):
    """An edge breaks a NavGraph rule."""


def _int64_ids(ids: list) -> np.ndarray:
    """``ids`` as an int64 array; a ValueError names one outside int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        nid = next(v for v in ids if not _INT64_MIN <= v <= _INT64_MAX)
        raise ValueError(f"node id {nid} is outside int64") from None


def _repeats(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``keys``, and a mask of each key that
    repeats an earlier one: one that follows an equal key in that order."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
    return order, repeat


def _point_arrays(nodes: Mapping) -> tuple[np.ndarray, ...]:
    """The int64 ids of an id -> point mapping, in its order, with the
    ``lat`` and ``lon`` of each point as float arrays."""
    points = nodes.values()
    return (_int64_ids(list(nodes)),
            np.fromiter((p.lat for p in points), float, len(points)),
            np.fromiter((p.lon for p in points), float, len(points)))


class NavGraph:
    """Directed road graph in geographic coordinates, held as arrays.

    ``ids`` holds the node ids, ascending int64, with their WGS84 ``lat``
    and ``lon`` in degrees beside them. Row i of the ``(E, 2)`` array
    ``edge_nodes`` holds the positions in ``ids`` of edge i's src and
    dst. ``nodes`` is a read-only id -> ``GeoPoint`` view of the nodes,
    and ``edges`` the tuple of ``(src, dst)`` ids in edge order.

    Every node has finite, in-range coordinates and a unique id; each edge
    joins two distinct nodes, and no edge repeats. A fault raises at the
    first faulty node, else at the first faulty edge, in input order.
    """

    __slots__ = ("ids", "lat", "lon", "edge_nodes", "_by_id", "_edges",
                 "_positions")

    def __init__(self, nodes: Mapping[int, GeoPoint], edges):
        self._set(*_point_arrays(nodes),
                  _int64_ids(list(itertools.chain.from_iterable(edges)))
                  .reshape(-1, 2))

    @classmethod
    def _from_arrays(cls, ids, lat, lon, pairs) -> NavGraph:
        """The graph of int64 node ``ids`` at float ``lat`` and ``lon``
        and of the ``(E, 2)`` int64 ``pairs`` of edge end ids, each in
        input order."""
        graph = cls.__new__(cls)
        graph._set(ids, lat, lon, pairs)
        return graph

    def _set(self, ids, lat, lon, pairs):
        """Check the records and hold them sorted; ``edges`` is built from
        the arrays when first read."""
        n = len(ids)
        # A repeated node is named before its coordinates are checked.
        order, repeat = _repeats(ids)
        keys = ids[order]
        in_range = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (
            lon < 180.0)
        faults = np.flatnonzero(repeat | ~in_range)
        if len(faults):
            i = int(faults[0])
            if repeat[i]:
                raise _NodeError(i, f"repeated node {ids[i]}")
            try:
                GeoPoint(float(lat[i]), float(lon[i]))
            except InvalidCoordinateError as exc:
                raise _NodeError(i, str(exc)) from None
        ends = np.searchsorted(keys, pairs)
        found = (keys.take(ends, mode="clip") == pairs if n
                 else np.zeros(pairs.shape, dtype=bool))
        missing = ~found.all(axis=1)
        loop = pairs[:, 0] == pairs[:, 1]
        # Edge keys sort in edge-id order, the order LocalNavGraph indexes in.
        by_id, repeat = _repeats(ends[:, 0] * n + ends[:, 1])
        faults = np.flatnonzero(missing | loop | repeat)
        if len(faults):
            i = int(faults[0])
            src, dst = pairs[i].tolist()
            raise _EdgeError(i, f"edge ({src}, {dst}) references missing "
                                f"node" if missing[i] else
                                f"self-loop edge at node {src}" if loop[i]
                                else f"repeated edge ({src}, {dst})")
        self.ids, self.lat, self.lon = keys, lat[order], lon[order]
        self.edge_nodes, self._by_id = ends, by_id
        for array in (self.ids, self.lat, self.lon, ends, by_id):
            array.flags.writeable = False
        self._edges, self._positions = None, {}

    @property
    def nodes(self) -> Mapping[int, GeoPoint]:
        return _PointView(self.ids, GeoPoint, (self.lat, self.lon),
                          self._positions)

    @property
    def edges(self) -> tuple[EdgeId, ...]:
        if self._edges is None:
            src, dst = self.ids[self.edge_nodes].T.tolist()
            self._edges = tuple(zip(src, dst))
        return self._edges

    def __repr__(self):
        return (f"NavGraph({len(self.ids)} nodes, "
                f"{len(self.edge_nodes)} edges)")


class _PointView(Mapping):
    """Read-only id -> point view of int64 ``ids`` and the arrays in
    ``columns`` beside them: the point at position i, built each time one
    is read, is ``point`` of each column's item i. ``positions`` is the
    id -> position dict, filled on first use; views of one graph share
    it."""

    __slots__ = ("ids", "point", "columns", "_positions")

    def __init__(self, ids: np.ndarray, point, columns: tuple,
                 positions: dict):
        self.ids, self.point, self.columns = ids, point, columns
        self._positions = positions

    def _position(self) -> dict[int, int]:
        if not self._positions:
            self._positions.update(zip(self.ids.tolist(),
                                       range(len(self.ids))))
        return self._positions

    def __getitem__(self, nid):
        i = self._position()[nid]
        return self.point(*[column.item(i) for column in self.columns])

    def __contains__(self, nid):
        return nid in self._position()

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self):
        return len(self.ids)


class RoadSegment:
    """One directed edge with its resampled centerline.

    ``points`` is a read-only ``(n+1, 2)`` float64 array of the resampled
    chord. ``src`` and ``dst`` are the two parts of ``edge_id``.
    ``polyline`` holds the same values as ``points`` as ``LocalPoint``s;
    it is built on first access. Two segments are equal iff their edge ids
    and every coordinate match.
    """

    __slots__ = ("edge_id", "points", "_polyline")

    def __init__(self, edge_id: EdgeId, points: np.ndarray):
        self.edge_id = edge_id
        self.points = points

    @property
    def src(self) -> int:
        return self.edge_id[0]

    @property
    def dst(self) -> int:
        return self.edge_id[1]

    @property
    def polyline(self) -> tuple[LocalPoint, ...]:
        try:
            return self._polyline
        except AttributeError:
            self._polyline = tuple(LocalPoint(x, y)
                                   for x, y in self.points.tolist())
            return self._polyline

    def __eq__(self, other):
        if not isinstance(other, RoadSegment):
            return NotImplemented
        return (self.edge_id == other.edge_id
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash(self.edge_id)

    def __repr__(self):
        return f"RoadSegment(edge_id={self.edge_id!r}, points={self.points!r})"


class LocalNavGraph:
    """A NavGraph projected into a city frame, ready for queries.

    ``x`` and ``y`` hold the nodes' frame coordinates by position in
    ``graph.ids``; ``local`` is their read-only id -> ``LocalPoint`` view.
    Construction builds the index. ``_edges`` holds the edge ids in
    ascending order, so an edge's position is found by bisection; row i of
    ``_ends`` is edge i's chord as ``x0 y0 x1 y1`` and ``_intervals[i]``
    its resample interval count. ``_index`` lists edge positions by the
    cells, at least 100 m wide, that each chord's box touches. ``_out``
    and ``_in`` map a node id to the edges leaving and entering it, runs
    of the edges sorted by source and by destination. ``_edge_set``
    answers membership: a set lookup, which the walks make once per step,
    is one memory access cheaper than a dict lookup.
    """

    __slots__ = ("graph", "frame", "x", "y", "resample_step", "_edges",
                 "_edge_set", "_out", "_in", "_ends", "_intervals", "_index")

    def __init__(self, graph: NavGraph, frame: CityFrame, x: np.ndarray,
                 y: np.ndarray, resample_step: float):
        _check_positive("resample step", resample_step)
        if not x.shape == y.shape == (len(graph.ids),):
            raise ValueError(f"{len(graph.ids)} nodes need coordinates of "
                             f"shape ({len(graph.ids)},), got x {x.shape} "
                             f"and y {y.shape}")
        self.graph, self.frame, self.resample_step = graph, frame, resample_step
        self.x, self.y = x, y
        ends = graph.edge_nodes[graph._by_id]      # in edge-id order
        self._edges = edges = tuple(map(graph.edges.__getitem__,
                                        graph._by_id.tolist()))
        self._edge_set = set(edges)
        self._out = _runs(edges, ends[:, 0], 0)
        into = np.argsort(ends[:, 1], kind="stable")
        self._in = _runs(tuple(map(edges.__getitem__, into.tolist())),
                         ends[into, 1], 1)
        self._ends = chords = np.column_stack([x, y])[ends].reshape(-1, 4)
        self._intervals = _interval_counts(chords[:, 2:] - chords[:, :2],
                                           resample_step)
        self._index = CellGrid(np.minimum(chords.T[:2], chords.T[2:]),
                               np.maximum(chords.T[:2], chords.T[2:]),
                               _GRID_CELL)

    @property
    def local(self) -> Mapping[int, LocalPoint]:
        return _PointView(self.graph.ids, LocalPoint, (self.x, self.y),
                          self.graph._positions)

    def _check_edge(self, edge_id: EdgeId):
        if edge_id not in self._edge_set:
            raise UnknownEdgeError(edge_id)

    def segment(self, edge_id: EdgeId) -> RoadSegment:
        self._check_edge(edge_id)
        position = bisect.bisect_left(self._edges, edge_id)
        return _segments(self, np.array([position]))[0]


def _runs(edges: tuple, nodes: np.ndarray, side: int) -> dict:
    """``{node id: edges}`` for ``edges`` whose ``side`` end is at the
    ascending node positions ``nodes``; each value is a slice."""
    starts = np.flatnonzero(np.diff(nodes, prepend=-1)).tolist()
    return {edges[lo][side]: edges[lo:hi]
            for lo, hi in zip(starts, starts[1:] + [len(edges)])}


def resample_polyline(src: LocalPoint, dst: LocalPoint,
                      step: float) -> list[LocalPoint]:
    """Uniformly resample the src-dst chord, keeping both endpoints.

    Produces n+1 points with n = max(1, ceil(length / step)), so the
    spacing length/n never exceeds the step. A zero-length segment yields
    the two coincident endpoints.
    """
    _check_positive("resample step", step)
    ends = np.array([[src.x, src.y, dst.x, dst.y]])
    (points,) = _resample_chords(
        ends, _interval_counts(ends[:, 2:] - ends[:, :2], step))
    return [LocalPoint(x, y) for x, y in points.tolist()]


def _interval_counts(deltas: np.ndarray, step: float) -> np.ndarray:
    """n = max(1, ceil(length / step)) per ``(k, 2)`` chord delta row,
    with the length taken by ``math.hypot``.

    Raises ``ValueError`` naming the step when the counts add up to more
    than ``MAX_RESAMPLE_INTERVALS``, before any is cast to an integer.
    """
    # A tiny step may take a quotient or the total past the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        quotients = np.hypot(deltas[:, 0], deltas[:, 1]) / step
        # np.hypot and math.hypot can differ in the last bit, which
        # moves the quotient by a few ulps: where that could cross an
        # integer, and so move n, math.hypot decides.
        near = np.abs(quotients - np.rint(quotients)) <= 16 * np.spacing(
            quotients)
        for i in np.flatnonzero(near).tolist():
            quotients[i] = math.hypot(*deltas[i].tolist()) / step
        counts = np.maximum(1.0, np.ceil(quotients))
        total = counts.sum()
    if not total <= MAX_RESAMPLE_INTERVALS:
        raise ValueError(f"resample step {step} gives {total:.4g} "
                         f"intervals, more than the "
                         f"{MAX_RESAMPLE_INTERVALS} allowed")
    return counts.astype(np.int64)


def _resample_chords(ends: np.ndarray, n: np.ndarray) -> list[np.ndarray]:
    """Resample ``(k, 4)`` chord rows ``x0 y0 x1 y1`` into ``n`` intervals.

    Point i of a chord with n intervals is ``p0 + (p1 - p0) * (i / n)``,
    each operation rounded once, in that order. Returns one ``(n+1, 2)``
    array per chord, read-only views of one shared buffer.
    """
    if len(ends) == 0:
        return []
    origins = ends[:, :2]
    deltas = ends[:, 2:] - origins
    counts = n + 1
    stops = np.cumsum(counts)
    starts = stops - counts
    i = np.arange(stops[-1]) - np.repeat(starts, counts)
    t = i / np.repeat(n, counts)
    points = (np.repeat(origins, counts, axis=0)
              + np.repeat(deltas, counts, axis=0) * t[:, None])
    points.flags.writeable = False
    return [points[lo:hi] for lo, hi in zip(starts.tolist(), stops.tolist())]


def _segments(g: LocalNavGraph, positions: np.ndarray) -> list[RoadSegment]:
    """The segments of the edges at ascending ``positions`` of the index."""
    edges = g._edges
    chords = _resample_chords(g._ends[positions], g._intervals[positions])
    return [RoadSegment(edges[p], points)
            for p, points in zip(positions.tolist(), chords)]


def _check_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def localize(g: NavGraph, frame: CityFrame,
             resample_step: float = 2.0) -> LocalNavGraph:
    """Project every node into the frame and build the spatial index.

    The nodes are projected by one :func:`geo_to_local_arrays` call. A
    frame's northings hold one hemisphere, so a graph with nodes on both
    sides of the equator raises ``InvalidCoordinateError``.
    """
    south = g.lat < 0.0
    if south.any() and not south.all():
        s, n = int(np.argmax(south)), int(np.argmin(south))
        raise InvalidCoordinateError(
            f"graph spans the equator: node {g.ids[s]} at latitude "
            f"{g.lat[s].item()} and node {g.ids[n]} at latitude "
            f"{g.lat[n].item()} need frames of two hemispheres")
    x, y = geo_to_local_arrays(g.lat, g.lon, frame)
    return LocalNavGraph(g, frame, x, y, resample_step)


def point_segment_distance(px: float, py: float, a: LocalPoint,
                           b: LocalPoint) -> float:
    """Euclidean distance from a point to the straight segment a-b."""
    abx = b.x - a.x
    aby = b.y - a.y
    apx = px - a.x
    apy = py - a.y
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(apx - t * abx, apy - t * aby)


def _chord_distances(px: float, py: float, ends: np.ndarray) -> np.ndarray:
    """:func:`point_segment_distance` to each ``(k, 4)`` chord row.

    The same operations in the same order, with ``t = 0`` on a
    zero-length chord, except that ``np.hypot`` can differ from
    ``math.hypot`` in the last bit.
    """
    ax, ay, bx, by = ends.T
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    denom = abx * abx + aby * aby
    t = np.divide(apx * abx + apy * aby, denom, out=np.zeros_like(denom),
                  where=denom != 0.0)
    t = np.minimum(1.0, np.maximum(0.0, t))
    return np.hypot(apx - t * abx, apy - t * aby)


def segments_in_radius(g: LocalNavGraph, center: LocalPoint,
                       radius: float) -> list[RoadSegment]:
    """All edges whose chord comes within ``radius`` of ``center``.

    Distance is measured to the straight src-dst chord, as by
    :func:`point_segment_distance`; results carry the resampled polyline
    and are ordered by edge id for determinism.

    The index's box holds every edge the scalar test keeps (see
    :mod:`navpredict.grid`): its offsets to the point at the clamped
    ``t``, in the chord's box, are at most its distance, a hypot.
    """
    _check_positive("radius", radius)
    index = g._index
    x0, x1, y0, y1 = index.box(center.x, center.y, radius)
    starts, order, ny = index.starts, index.order, int(index.shape[1])
    # One run of the index per cell column of the box; ``order[:0]``
    # keeps the concatenation typed when there is none.
    runs = [order[starts[x * ny + y0]:starts[x * ny + y1]]
            for x in range(x0, x1)]
    # Ascending and without repeats, which is edge-id order. np.unique
    # does the same, slower on a few hundred positions.
    candidates = np.sort(np.concatenate([order[:0], *runs]))
    candidates = candidates[np.diff(candidates, prepend=-1) != 0]
    distance = _chord_distances(center.x, center.y, g._ends[candidates])
    inside = distance <= radius
    # Where the two hypots could disagree about the border, the scalar
    # test decides, so membership is exactly point_segment_distance's.
    for i in np.flatnonzero(
            np.abs(distance - radius) <= _BORDER_BAND * radius).tolist():
        ax, ay, bx, by = g._ends[candidates[i]].tolist()
        inside[i] = point_segment_distance(
            center.x, center.y, LocalPoint(ax, ay), LocalPoint(bx, by)
        ) <= radius
    return _segments(g, candidates[inside])


def successors(g: LocalNavGraph, edge_id: EdgeId) -> set[EdgeId]:
    """Edges continuing from this edge's destination, minus the U-turn."""
    g._check_edge(edge_id)
    src, dst = edge_id
    walk = set(g._out.get(dst, ()))
    walk.discard((dst, src))
    return walk


def predecessors(g: LocalNavGraph, edge_id: EdgeId) -> set[EdgeId]:
    """Edges arriving at this edge's source, minus the U-turn."""
    g._check_edge(edge_id)
    src, dst = edge_id
    walk = set(g._in.get(src, ()))
    walk.discard((dst, src))
    return walk


def save_graph(g: NavGraph, path):
    """Write the line-oriented text format: ``N id lat lon`` / ``E src dst``.

    Nodes come in id order and edges in edge order. Coordinates use
    exactly 9 fractional digits so output is bit-exact across platforms.
    """
    # Each id is formatted once; edges take their ends' strings.
    names = list(map(str, g.ids.tolist()))
    src, dst = g.edge_nodes.T.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([
            f"N {nid} {lat:.9f} {lon:.9f}\n" for nid, lat, lon
            in zip(names, g.lat.tolist(), g.lon.tolist())]))
        fh.write("".join([f"E {names[a]} {names[b]}\n"
                          for a, b in zip(src, dst)]))


def load_graph(path) -> NavGraph:
    """Read a graph written by :func:`save_graph`.

    ``E`` lines may come before the ``N`` lines of their nodes. The first
    line of the file that breaks the format or a node rule of
    :class:`NavGraph`, or holds an id outside int64, is named; each line's
    ids are checked against int64 as it is read, once its tokens parse.
    Only when there is none are the edges checked, naming the first faulty
    edge's line.
    """
    ids, lat, lon, node_lines = [], [], [], []
    src, dst, edge_lines = [], [], []
    fault = None            # (line number, message) of the line that broke
    lo, hi = _INT64_MIN, _INT64_MAX      # local names: read on every line
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "N" and len(parts) == 4:
                    nid = int(parts[1])
                    try:
                        y, x = float(parts[2]), float(parts[3])
                    except ValueError:
                        # A repeat is reported before the coordinates.
                        if nid in ids:
                            raise ValueError(f"repeated node {nid}") from None
                        raise
                    if not lo <= nid <= hi:
                        raise ValueError(f"node id {nid} is outside int64")
                    ids.append(nid)
                    lat.append(y)
                    lon.append(x)
                    node_lines.append(lineno)
                elif parts[0] == "E" and len(parts) == 3:
                    a, b = int(parts[1]), int(parts[2])
                    if not (lo <= a <= hi and lo <= b <= hi):
                        nid = b if lo <= a <= hi else a
                        raise ValueError(f"node id {nid} is outside int64")
                    src.append(a)
                    dst.append(b)
                    edge_lines.append(lineno)
                else:
                    raise ValueError("unrecognized record")
            except ValueError as exc:
                fault = lineno, str(exc)
                break
    # The edges are checked only when no line broke.
    pairs = (np.array([src, dst], dtype=np.int64).T if fault is None
             else np.zeros((0, 2), dtype=np.int64))
    try:
        graph = NavGraph._from_arrays(np.array(ids, dtype=np.int64),
                                      np.array(lat, dtype=float),
                                      np.array(lon, dtype=float), pairs)
    except _NodeError as exc:
        fault = node_lines[exc.index], str(exc)
    except _EdgeError as exc:
        raise GraphFormatError(
            f"{path}:{edge_lines[exc.index]}: {exc}") from None
    if fault is not None:
        lineno, message = fault
        with open(path, encoding="utf-8") as fh:
            line = next(itertools.islice(fh, lineno - 1, None)).strip()
        raise GraphFormatError(
            f"{path}:{lineno}: bad graph line {line!r} ({message})")
    return graph
