"""Directed navigation graph with an HD-map-style query API.

A :class:`NavGraph` stores geographic nodes and directed road-segment
edges. :func:`localize` projects it into a city frame and builds a
uniform-grid spatial index, after which road segments can be queried by
radius and walked via successor/predecessor relations, mirroring the
query surface of a lane-level HD map API.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geo import CityFrame, GeoPoint, LocalPoint, geo_to_local

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

_GRID_CELL = 100.0  # meters; index cell size


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


@dataclass(frozen=True, eq=False)
class RoadSegment:
    """One directed edge with its resampled centerline.

    ``points`` is a read-only ``(n+1, 2)`` float64 array of the resampled
    chord. ``polyline`` holds the same values as ``LocalPoint``s; it is
    built on first access. Two segments are equal iff their edge ids and
    every coordinate match.
    """

    edge_id: EdgeId
    src: int
    dst: int
    points: np.ndarray

    @functools.cached_property
    def polyline(self) -> tuple[LocalPoint, ...]:
        return tuple(LocalPoint(x, y) for x, y in self.points.tolist())

    def __eq__(self, other):
        if not isinstance(other, RoadSegment):
            return NotImplemented
        return (self.edge_id == other.edge_id
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash(self.edge_id)


@dataclass
class LocalNavGraph:
    """A NavGraph projected into a city frame, ready for queries."""

    graph: NavGraph
    frame: CityFrame
    local: dict[int, LocalPoint]
    resample_step: float = 2.0
    _out: dict[int, list[EdgeId]] = field(default_factory=dict, repr=False)
    _in: dict[int, list[EdgeId]] = field(default_factory=dict, repr=False)
    _grid: dict[tuple[int, int], list[EdgeId]] = field(
        default_factory=dict, repr=False
    )
    _edge_set: set[EdgeId] = field(default_factory=set, repr=False)

    def __post_init__(self):
        _check_positive("resample step", self.resample_step)

    def _check_edge(self, edge_id: EdgeId):
        if edge_id not in self._edge_set:
            raise UnknownEdgeError(edge_id)

    def segment(self, edge_id: EdgeId) -> RoadSegment:
        self._check_edge(edge_id)
        return _segments(self, [edge_id])[0]


def resample_polyline(src: LocalPoint, dst: LocalPoint,
                      step: float) -> list[LocalPoint]:
    """Uniformly resample the src-dst chord, keeping both endpoints.

    Produces n+1 points with n = max(1, ceil(length / step)), so the
    spacing length/n never exceeds the step. A zero-length segment yields
    the two coincident endpoints.
    """
    _check_positive("resample step", step)
    (points,) = _resample_chords(np.array([[src.x, src.y, dst.x, dst.y]]),
                                 step)
    return [LocalPoint(x, y) for x, y in points.tolist()]


def _resample_chords(ends: np.ndarray, step: float) -> list[np.ndarray]:
    """Resample chords given as ``(k, 4)`` rows ``x0 y0 x1 y1`` in one pass.

    Point i of a chord with n intervals is ``p0 + (p1 - p0) * (i / n)``,
    each operation rounded once, in that order. Returns one ``(n+1, 2)``
    array per chord, read-only views of one shared buffer.
    """
    if len(ends) == 0:
        return []
    origins = ends[:, :2]
    deltas = ends[:, 2:] - origins
    # math.hypot, not np.hypot: the two can differ in the last bit, which
    # moves n when length / step sits on an integer.
    lengths = np.fromiter(map(math.hypot, *deltas.T.tolist()), float,
                          len(ends))
    n = np.maximum(1.0, np.ceil(lengths / step)).astype(np.int64)
    counts = n + 1
    stops = np.cumsum(counts)
    starts = stops - counts
    i = np.arange(stops[-1]) - np.repeat(starts, counts)
    t = i / np.repeat(n, counts)
    points = (np.repeat(origins, counts, axis=0)
              + np.repeat(deltas, counts, axis=0) * t[:, None])
    points.flags.writeable = False
    return [points[lo:hi] for lo, hi in zip(starts.tolist(), stops.tolist())]


def _segments(g: LocalNavGraph, eids) -> list[RoadSegment]:
    local = g.local
    ends = np.array([(local[src].x, local[src].y, local[dst].x, local[dst].y)
                     for src, dst in eids]).reshape(-1, 4)
    return [RoadSegment(eid, eid[0], eid[1], points) for eid, points
            in zip(eids, _resample_chords(ends, g.resample_step))]


def _check_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _cell(x: float, y: float) -> tuple[int, int]:
    return (math.floor(x / _GRID_CELL), math.floor(y / _GRID_CELL))


def localize(g: NavGraph, frame: CityFrame,
             resample_step: float = 2.0) -> LocalNavGraph:
    """Project every node into the frame and build the spatial index."""
    local = {nid: geo_to_local(p, frame) for nid, p in g.nodes.items()}
    lg = LocalNavGraph(graph=g, frame=frame, local=local,
                       resample_step=resample_step)
    lg._edge_set = set(g.edges)
    for eid in g.edges:
        src, dst = eid
        lg._out.setdefault(src, []).append(eid)
        lg._in.setdefault(dst, []).append(eid)
        a = local[src]
        b = local[dst]
        cx0, cy0 = _cell(min(a.x, b.x), min(a.y, b.y))
        cx1, cy1 = _cell(max(a.x, b.x), max(a.y, b.y))
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                lg._grid.setdefault((cx, cy), []).append(eid)
    return lg


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


def segments_in_radius(g: LocalNavGraph, center: LocalPoint,
                       radius: float) -> list[RoadSegment]:
    """All edges whose chord comes within ``radius`` of ``center``.

    Distance is measured to the straight src-dst chord; results carry
    the resampled polyline and are ordered by edge id for determinism.
    """
    _check_positive("radius", radius)
    cx0, cy0 = _cell(center.x - radius, center.y - radius)
    cx1, cy1 = _cell(center.x + radius, center.y + radius)
    n_cells = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
    if n_cells <= len(g._grid):
        buckets = (g._grid.get((cx, cy), ())
                   for cx in range(cx0, cx1 + 1)
                   for cy in range(cy0, cy1 + 1))
    else:
        # The query box covers more cells than the index holds; walking
        # the occupied cells directly is cheaper.
        buckets = (bucket for (cx, cy), bucket in g._grid.items()
                   if cx0 <= cx <= cx1 and cy0 <= cy <= cy1)
    hits = set()
    for bucket in buckets:
        for eid in bucket:
            if eid in hits:
                continue
            a = g.local[eid[0]]
            b = g.local[eid[1]]
            if point_segment_distance(center.x, center.y, a, b) <= radius:
                hits.add(eid)
    return _segments(g, sorted(hits))


def successors(g: LocalNavGraph, edge_id: EdgeId) -> set[EdgeId]:
    """Edges continuing from this edge's destination, minus the U-turn."""
    g._check_edge(edge_id)
    src, dst = edge_id
    return {eid for eid in g._out.get(dst, ()) if eid != (dst, src)}


def predecessors(g: LocalNavGraph, edge_id: EdgeId) -> set[EdgeId]:
    """Edges arriving at this edge's source, minus the U-turn."""
    g._check_edge(edge_id)
    src, dst = edge_id
    return {eid for eid in g._in.get(src, ()) if eid != (dst, src)}


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
