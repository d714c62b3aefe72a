"""OSM XML parsing and navigation-graph construction.

Only the XML flavor is supported (PBF is out of scope); unknown elements
and tags are ignored. Graph construction keeps only ways whose
``highway`` tag is one of the 13 car-accessible road types and expands
each retained way into per-pair directed edges, honoring ``oneway``.
"""

from __future__ import annotations

import itertools
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .geo import InvalidCoordinateError
from .road_graph import _INT64_MAX, _INT64_MIN, NavGraph, _NodeError

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
    """Malformed OSM XML; message carries line/column when available."""


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


def parse_osm(source) -> tuple[dict[int, OsmNode], list[OsmWay]]:
    """Stream-parse an ``.osm`` document (path or binary file object).

    Returns nodes keyed by id plus ways in document order. Elements other
    than ``<node>`` and ``<way>`` (relations, bounds, ...) are skipped. A
    node id or ``nd`` ref must fit in int64.
    """
    nodes: dict[int, OsmNode] = {}
    ways: list[OsmWay] = []
    try:
        for _event, elem in ET.iterparse(source, events=("end",)):
            if elem.tag == "node":
                nid = int(elem.attrib["id"])
                if not _INT64_MIN <= nid <= _INT64_MAX:
                    raise ValueError(f"node id {nid} is outside int64")
                if nid in nodes:
                    raise DuplicateNodeError(f"duplicate node id {nid}")
                nodes[nid] = OsmNode(
                    id=nid,
                    lat=float(elem.attrib["lat"]),
                    lon=float(elem.attrib["lon"]),
                )
                elem.clear()
            elif elem.tag == "way":
                refs = []
                tags = {}
                for child in elem:
                    if child.tag == "nd":
                        refs.append(int(child.attrib["ref"]))
                    elif child.tag == "tag":
                        tags[child.attrib["k"]] = child.attrib["v"]
                if refs and not (_INT64_MIN <= min(refs)
                                 and max(refs) <= _INT64_MAX):
                    ref = next(r for r in refs
                               if not _INT64_MIN <= r <= _INT64_MAX)
                    raise ValueError(f"nd ref {ref} is outside int64")
                ways.append(OsmWay(id=int(elem.attrib["id"]),
                                   node_refs=tuple(refs), tags=tags))
                elem.clear()
            elif elem.tag in ("osm", "relation", "bounds"):
                elem.clear()
    except ET.ParseError as exc:
        line, col = exc.position
        raise OsmParseError(
            f"malformed OSM XML at line {line}, column {col}: {exc.msg}"
        ) from exc
    except (KeyError, ValueError) as exc:
        if isinstance(exc, OsmParseError):
            raise
        raise OsmParseError(f"bad OSM element attributes: {exc}") from exc
    return nodes, ways


def _way_directions(way: OsmWay) -> tuple[bool, bool]:
    """(forward, backward) edge emission for a way's ``oneway`` tag."""
    oneway = way.tags.get("oneway", "")
    if oneway in ("yes", "true", "1"):
        return True, False
    if oneway == "-1":
        return False, True
    return True, True


def build_nav_graph(nodes: dict[int, OsmNode], ways) -> NavGraph:
    """Filter ways to the road-type whitelist and expand them into edges.

    Ways referencing nodes absent from the document are skipped whole
    with a warning; nodes not used by any retained way are dropped. Each
    consecutive ref pair gives its forward edge, then its backward one, as
    ``oneway`` allows; self-loops and repeats of an earlier edge are
    dropped. The pairs of all retained ways are expanded in one array
    pass, in way order.
    """
    kept = []
    for way in ways:
        if way.tags.get("highway") not in ROAD_TYPE_WHITELIST:
            continue
        if any(ref not in nodes for ref in way.node_refs):
            log.warning("skipping way %d: unresolved node reference", way.id)
            continue
        if len(way.node_refs) < 2:
            log.warning("skipping way %d: fewer than 2 node refs", way.id)
            continue
        kept.append(way)
    refs = np.fromiter(itertools.chain.from_iterable(
        way.node_refs for way in kept), np.int64)
    sizes = np.fromiter((len(way.node_refs) for way in kept), np.intp,
                        len(kept))
    # Pair k joins refs k and k + 1, unless ref k ends its way.
    joined = np.ones(max(len(refs) - 1, 0), dtype=bool)
    joined[np.cumsum(sizes)[:-1] - 1] = False
    a, b = refs[:-1][joined], refs[1:][joined]
    directions = np.array([_way_directions(way) for way in kept],
                          dtype=bool).reshape(-1, 2)
    emitted = np.repeat(directions, sizes - 1, axis=0)
    edges = np.stack([a, b, b, a], axis=1).reshape(-1, 2, 2)[emitted]
    edges = edges[edges[:, 0] != edges[:, 1]]
    ids = np.unique(edges)
    ends = np.searchsorted(ids, edges)
    _, first = np.unique(ends[:, 0] * len(ids) + ends[:, 1],
                         return_index=True)
    points = [nodes[nid] for nid in ids.tolist()]
    try:
        return NavGraph._from_arrays(
            ids, np.fromiter((p.lat for p in points), float, len(points)),
            np.fromiter((p.lon for p in points), float, len(points)),
            edges[np.sort(first)])
    except _NodeError as exc:
        raise InvalidCoordinateError(str(exc)) from None
