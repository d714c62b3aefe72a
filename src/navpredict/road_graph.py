"""Directed navigation graph with an HD-map-style query API.

A :class:`NavGraph` stores geographic nodes and directed road-segment
edges. :func:`localize` projects it into a city frame and indexes its
chords in a :class:`navpredict.grid.CellGrid`, after which road segments
can be queried by radius and walked via successor/predecessor relations,
mirroring the query surface of a lane-level HD map API.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .geo import CityFrame, GeoPoint, LocalPoint, geo_to_local_arrays
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


class UnknownEdgeError(KeyError):
    """Queried edge id is not part of the graph."""


class GraphFormatError(ValueError):
    """A serialized graph file violates the line format."""


class _EdgeError(ValueError):
    """An edge breaks a NavGraph rule; ``index`` is its place in ``edges``."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class NavGraph:
    """Directed road graph in geographic coordinates.

    Each edge joins two distinct nodes, and no edge repeats.
    """

    nodes: dict[int, GeoPoint]
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        seen = set()
        for index, (src, dst) in enumerate(self.edges):
            if src not in self.nodes or dst not in self.nodes:
                raise _EdgeError(index, f"edge ({src}, {dst}) references "
                                        f"missing node")
            if src == dst:
                raise _EdgeError(index, f"self-loop edge at node {src}")
            if (src, dst) in seen:
                raise _EdgeError(index, f"repeated edge ({src}, {dst})")
            seen.add((src, dst))


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


def _index_field():
    # Built by __post_init__ from the other fields, which determine it.
    return field(init=False, repr=False, compare=False)


@dataclass
class LocalNavGraph:
    """A NavGraph projected into a city frame, ready for queries.

    Construction builds the index. ``_edges`` holds the edge ids in
    ascending order, so an edge's position is found by bisection; row i of
    ``_ends`` is edge i's chord as ``x0 y0 x1 y1`` and ``_intervals[i]``
    its resample interval count. ``_index`` lists edge positions by the
    cells, at least 100 m wide, that each chord's box touches.
    ``_edge_set`` answers membership: a set lookup, which the walks make
    once per step, is one memory access cheaper than a dict lookup.
    """

    graph: NavGraph
    frame: CityFrame
    local: dict[int, LocalPoint]
    resample_step: float = 2.0
    _out: dict[int, list[EdgeId]] = _index_field()
    _in: dict[int, list[EdgeId]] = _index_field()
    _edges: list[EdgeId] = _index_field()
    _edge_set: set[EdgeId] = _index_field()
    _ends: np.ndarray = _index_field()
    _intervals: np.ndarray = _index_field()
    _index: CellGrid = _index_field()

    def __post_init__(self):
        _check_positive("resample step", self.resample_step)
        self._edge_set = set(self.graph.edges)
        self._out = {}
        self._in = {}
        for eid in self.graph.edges:
            self._out.setdefault(eid[0], []).append(eid)
            self._in.setdefault(eid[1], []).append(eid)
        self._edges = edges = sorted(self.graph.edges)
        local = self.local
        coords = itertools.chain.from_iterable(
            (local[src].x, local[src].y, local[dst].x, local[dst].y)
            for src, dst in edges)
        self._ends = ends = np.fromiter(coords, float,
                                        4 * len(edges)).reshape(-1, 4)
        self._intervals = _interval_counts(ends[:, 2:] - ends[:, :2],
                                           self.resample_step)
        self._index = CellGrid(np.minimum(ends.T[:2], ends.T[2:]),
                               np.maximum(ends.T[:2], ends.T[2:]), _GRID_CELL)

    def _check_edge(self, edge_id: EdgeId):
        if edge_id not in self._edge_set:
            raise UnknownEdgeError(edge_id)

    def segment(self, edge_id: EdgeId) -> RoadSegment:
        self._check_edge(edge_id)
        position = bisect.bisect_left(self._edges, edge_id)
        return _segments(self, np.array([position]))[0]


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
    """n = max(1, ceil(length / step)) per ``(k, 2)`` chord delta row.

    Raises ``ValueError`` naming the step when the counts add up to more
    than ``MAX_RESAMPLE_INTERVALS``, before any is cast to an integer.
    """
    # math.hypot, not np.hypot: the two can differ in the last bit, which
    # moves n when length / step sits on an integer. Mapping over the
    # columns, not over .tolist(), holds no list of every delta.
    lengths = np.fromiter(map(math.hypot, deltas[:, 0], deltas[:, 1]),
                          float, len(deltas))
    # A tiny step may take a quotient or the total past the float range.
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(lengths / step))
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
    """Project every node into the frame and build the spatial index."""
    points = g.nodes.values()
    x, y = geo_to_local_arrays(
        np.fromiter(map(operator.attrgetter("lat"), points), float,
                    len(points)),
        np.fromiter(map(operator.attrgetter("lon"), points), float,
                    len(points)),
        frame)
    local = dict(zip(g.nodes, map(LocalPoint, x.tolist(), y.tolist())))
    return LocalNavGraph(graph=g, frame=frame, local=local,
                         resample_step=resample_step)


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
    (x0, y0), (x1, y1) = index.cells(np.array([[center.x, center.y]]),
                                     radius)[:, 0].tolist()
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
        src, dst = g._edges[candidates[i]]
        inside[i] = point_segment_distance(
            center.x, center.y, g.local[src], g.local[dst]) <= radius
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

    Coordinates use exactly 9 fractional digits so output is bit-exact
    across platforms.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for nid in sorted(g.nodes):
            p = g.nodes[nid]
            fh.write(f"N {nid} {p.lat:.9f} {p.lon:.9f}\n")
        for src, dst in g.edges:
            fh.write(f"E {src} {dst}\n")


def load_graph(path) -> NavGraph:
    """Read a graph written by :func:`save_graph`.

    ``E`` lines may come before the ``N`` lines of their nodes. The edges
    are checked by :class:`NavGraph` once the whole file has been read.
    """
    nodes: dict[int, GeoPoint] = {}
    edges: list[EdgeId] = []
    edge_lines: list[int] = []           # the file line of each edge
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "N" and len(parts) == 4:
                    nid = int(parts[1])
                    if nid in nodes:
                        raise ValueError(f"repeated node {nid}")
                    nodes[nid] = GeoPoint(float(parts[2]), float(parts[3]))
                elif parts[0] == "E" and len(parts) == 3:
                    edges.append((int(parts[1]), int(parts[2])))
                    edge_lines.append(lineno)
                else:
                    raise ValueError("unrecognized record")
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: bad graph line {line!r} ({exc})"
                ) from exc
    try:
        return NavGraph(nodes=nodes, edges=tuple(edges))
    except _EdgeError as exc:
        raise GraphFormatError(
            f"{path}:{edge_lines[exc.index]}: {exc}") from exc
