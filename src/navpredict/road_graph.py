"""Directed navigation graph with an HD-map-style query API.

A :class:`NavGraph` stores geographic nodes and directed road-segment
edges. :func:`localize` projects it into a city frame and builds a
uniform-grid spatial index, after which road segments can be queried by
radius and walked via successor/predecessor relations, mirroring the
query surface of a lane-level HD map API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class NavGraph:
    """Directed road graph in geographic coordinates."""

    nodes: dict[int, GeoPoint]
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        seen = set()
        for src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src}, {dst}) references missing node")
            if src == dst:
                raise ValueError(f"self-loop edge at node {src}")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))


@dataclass(frozen=True)
class RoadSegment:
    """One directed edge with its resampled centerline polyline."""

    edge_id: EdgeId
    src: int
    dst: int
    polyline: tuple[LocalPoint, ...]


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

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return self.graph.edges

    def _check_edge(self, edge_id: EdgeId):
        if edge_id not in self._edge_set:
            raise UnknownEdgeError(edge_id)

    def segment(self, edge_id: EdgeId) -> RoadSegment:
        self._check_edge(edge_id)
        src, dst = edge_id
        polyline = resample_polyline(
            self.local[src], self.local[dst], self.resample_step
        )
        return RoadSegment(edge_id, src, dst, tuple(polyline))


def resample_polyline(src: LocalPoint, dst: LocalPoint,
                      step: float) -> list[LocalPoint]:
    """Uniformly resample the src-dst chord, keeping both endpoints.

    Produces n+1 points with n = max(1, ceil(length / step)), so the
    spacing length/n never exceeds the step. A zero-length segment yields
    the two coincident endpoints.
    """
    _check_positive("resample step", step)
    length = math.hypot(dst.x - src.x, dst.y - src.y)
    n = max(1, math.ceil(length / step))
    dx = dst.x - src.x
    dy = dst.y - src.y
    return [
        LocalPoint(src.x + dx * (i / n), src.y + dy * (i / n))
        for i in range(n + 1)
    ]


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
    return [g.segment(eid) for eid in sorted(hits)]


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
    """Read a graph written by :func:`save_graph`."""
    nodes: dict[int, GeoPoint] = {}
    edges: list[EdgeId] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "N" and len(parts) == 4:
                    nodes[int(parts[1])] = GeoPoint(float(parts[2]),
                                                    float(parts[3]))
                elif parts[0] == "E" and len(parts) == 3:
                    edges.append((int(parts[1]), int(parts[2])))
                else:
                    raise ValueError("unrecognized record")
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: bad graph line {line!r} ({exc})"
                ) from exc
    return NavGraph(nodes=nodes, edges=tuple(edges))
