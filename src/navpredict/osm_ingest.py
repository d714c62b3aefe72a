"""OSM XML parsing and navigation-graph construction.

Only the XML flavor is supported (PBF is out of scope); unknown elements
and tags are ignored. Graph construction keeps only ways whose
``highway`` tag is one of the 13 car-accessible road types and expands
each retained way into per-pair directed edges, honoring ``oneway``.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from xml.parsers import expat

import numpy as np

from .geo import InvalidCoordinateError
from .road_graph import (_INT64_MAX, _INT64_MIN, NavGraph, _int64_ids,
                         _NodeError, _point_arrays, _PointView, _repeats)

__all__ = [
    "OsmNode",
    "OsmWay",
    "ROAD_TYPE_WHITELIST",
    "OsmParseError",
    "DuplicateNodeError",
    "parse_osm",
    "build_nav_graph",
]

log = logging.getLogger(__name__)

# Car-accessible highway values retained in the navigation graph.
ROAD_TYPE_WHITELIST = frozenset({
    "motorway", "trunk", "primary", "secondary", "tertiary",
    "unclassified", "residential", "motorway_link", "trunk_link",
    "primary_link", "secondary_link", "tertiary_link", "living_street",
})


class OsmParseError(ValueError):
    """Malformed OSM XML or a bad element; the message names its line and
    column."""


class DuplicateNodeError(OsmParseError):
    """Two ``<node>`` elements share the same id."""


@dataclass(frozen=True)
class OsmNode:
    id: int
    lat: float
    lon: float


@dataclass(frozen=True)
class OsmWay:
    id: int
    node_refs: tuple[int, ...]
    tags: dict[str, str] = field(default_factory=dict)


def parse_osm(source) -> tuple[Mapping[int, OsmNode], list[OsmWay]]:
    """Stream-parse an ``.osm`` document (path or binary file object).

    Returns the nodes and the ways, each in document order. The nodes are
    a read-only id -> ``OsmNode`` view, of the kind ``NavGraph.nodes``
    is, over int64 ids and float lat and lon arrays: no Python object is
    made per node, and an ``OsmNode`` is built only when one is read. A
    way's refs and tags are its direct ``<nd>`` and ``<tag>`` children.
    Elements other than ``<node>`` and ``<way>`` (relations, bounds, ...)
    are skipped. A node id or ``nd`` ref must fit in int64.

    The first fault in the document raises an ``OsmParseError``.
    Malformed XML names expat's line, column and message, as
    ElementTree does; a bad attribute or a repeated node id
    (``DuplicateNodeError``) names the line and column at which its
    element's start tag begins.
    """
    ids, lat, lon = array("q"), array("d"), array("d")
    seen: set[int] = set()
    ways: list[OsmWay] = []
    open_ways = []  # (depth, id, refs, tags) of each open <way>
    # Every start tag raises the depth. End tags lower it only inside a
    # <way>, the one place depths are compared, so the end handler is set
    # only there and no <node> outside pays for a call to it.
    depth = 0
    # ElementTree's separator, so namespaced names and texts stay its own.
    parser = expat.ParserCreate(None, "}")

    def where():
        return (f"line {parser.CurrentLineNumber}, "
                f"column {parser.CurrentColumnNumber}")

    def start(name, attrs):
        nonlocal depth
        depth += 1
        try:
            if name == "node":
                nid = int(attrs["id"])
                if not _INT64_MIN <= nid <= _INT64_MAX:
                    raise ValueError(f"node id {nid} is outside int64")
                if nid in seen:
                    raise DuplicateNodeError(f"duplicate node id {nid}")
                seen.add(nid)
                ids.append(nid)
                lat.append(float(attrs["lat"]))
                lon.append(float(attrs["lon"]))
            elif name == "way":
                if not open_ways:
                    parser.EndElementHandler = end
                open_ways.append((depth, int(attrs["id"]), [], {}))
            elif open_ways and open_ways[-1][0] == depth - 1:
                if name == "nd":
                    ref = int(attrs["ref"])
                    if not _INT64_MIN <= ref <= _INT64_MAX:
                        raise ValueError(f"nd ref {ref} is outside int64")
                    open_ways[-1][2].append(ref)
                elif name == "tag":
                    open_ways[-1][3][attrs["k"]] = attrs["v"]
        except DuplicateNodeError as exc:
            raise DuplicateNodeError(
                f"OSM element at {where()}: {exc}") from None
        except (KeyError, ValueError) as exc:
            raise OsmParseError(f"OSM element at {where()}: bad OSM element "
                                f"attributes: {exc}") from exc

    def end(name):
        nonlocal depth
        depth -= 1
        if name == "way":
            _, wid, refs, tags = open_ways.pop()
            ways.append(OsmWay(id=wid, node_refs=tuple(refs), tags=tags))
            if not open_ways:
                parser.EndElementHandler = None

    def skipped(entity, is_parameter_entity):
        # ElementTree rejects a reference in content to an entity that
        # an external DTD it does not read might declare.
        if not is_parameter_entity:
            at = where()
            raise OsmParseError(f"malformed OSM XML at {at}: undefined "
                                f"entity &{entity};: {at}")

    parser.StartElementHandler = start
    parser.SkippedEntityHandler = skipped
    try:
        with (contextlib.nullcontext(source) if hasattr(source, "read")
              else open(source, "rb")) as fh:
            while chunk := fh.read(1 << 16):
                parser.Parse(chunk, False)
            parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise OsmParseError(f"malformed OSM XML at line {exc.lineno}, "
                            f"column {exc.offset}: {exc}") from exc
    finally:
        # The handlers read the parser's position, so they and the parser
        # refer to each other: drop them, and ``seen`` is freed on return
        # rather than by a later cycle collection.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.SkippedEntityHandler = None
    arrays = (np.frombuffer(ids, np.int64), np.frombuffer(lat, float),
              np.frombuffer(lon, float))
    for values in arrays:
        values.flags.writeable = False
    return _PointView(arrays[0], OsmNode, arrays, {}), ways


def _way_directions(way: OsmWay) -> tuple[bool, bool]:
    """(forward, backward) edge emission for a way's ``oneway`` tag."""
    oneway = way.tags.get("oneway", "")
    if oneway in ("yes", "true", "1"):
        return True, False
    if oneway == "-1":
        return False, True
    return True, True


def build_nav_graph(nodes: Mapping[int, OsmNode], ways) -> NavGraph:
    """Filter ways to the road-type whitelist and expand them into edges.

    ``nodes`` is the mapping ``parse_osm`` returns, or any id ->
    ``OsmNode`` mapping with ids in int64, such as a dict; the latter is
    first made into the same arrays. Every ref of a whitelisted way is
    resolved by one binary search over the sorted node ids. Ways
    referencing nodes absent from ``nodes`` are skipped whole with a
    warning, as are ways of fewer than 2 refs; nodes not used by any
    retained way are dropped. Each consecutive ref pair gives its forward
    edge, then its backward one, as ``oneway`` allows; the pairs of all
    retained ways are expanded in one array pass, in way order. Self-loops
    are dropped, and so is each edge that repeats an earlier one: by
    ``NavGraph``'s rule, one that follows an equal edge in the stable sort
    of the edges, so the first of each repeat stays, in way order.
    """
    if isinstance(nodes, _PointView) and nodes.point is OsmNode:
        ids, lat, lon = nodes.columns
    else:
        ids, lat, lon = _point_arrays(nodes)
    order = np.argsort(ids, kind="stable")
    keys = ids[order]
    roads = [way for way in ways
             if way.tags.get("highway") in ROAD_TYPE_WHITELIST]
    refs = _int64_ids(list(itertools.chain.from_iterable(
        way.node_refs for way in roads)))
    sizes = np.fromiter((len(way.node_refs) for way in roads), np.intp,
                        len(roads))
    at = np.searchsorted(keys, refs)
    found = (keys.take(at, mode="clip") == refs if len(keys)
             else np.zeros(len(refs), dtype=bool))
    missing = np.bincount(np.repeat(np.arange(len(roads)), sizes)[~found],
                          minlength=len(roads))
    kept = np.zeros(len(roads), dtype=bool)
    for i, (way, unresolved, size) in enumerate(
            zip(roads, missing.tolist(), sizes.tolist())):
        if unresolved:
            log.warning("skipping way %d: unresolved node reference", way.id)
        elif size < 2:
            log.warning("skipping way %d: fewer than 2 node refs", way.id)
        else:
            kept[i] = True
    # From here a ref is its node's position in the sorted ids.
    at, sizes = at[np.repeat(kept, sizes)], sizes[kept]
    # Pair k joins refs k and k + 1, unless ref k ends its way.
    joined = np.ones(max(len(at) - 1, 0), dtype=bool)
    joined[np.cumsum(sizes)[:-1] - 1] = False
    a, b = at[:-1][joined], at[1:][joined]
    directions = np.array([_way_directions(way) for way in roads],
                          dtype=bool).reshape(-1, 2)[kept]
    emitted = np.repeat(directions, sizes - 1, axis=0)
    ends = np.stack([a, b, b, a], axis=1).reshape(-1, 2, 2)[emitted]
    ends = ends[ends[:, 0] != ends[:, 1]]
    # The graph's nodes are those its edges use, in id order.
    used = np.zeros(len(keys), dtype=bool)
    used[ends] = True
    ends = (np.cumsum(used) - 1)[ends]
    _, repeat = _repeats(ends[:, 0] * len(keys) + ends[:, 1])
    graph_ids, at = keys[used], order[used]
    try:
        return NavGraph._from_arrays(graph_ids, lat[at], lon[at],
                                     graph_ids[ends[~repeat]])
    except _NodeError as exc:
        raise InvalidCoordinateError(str(exc)) from None
