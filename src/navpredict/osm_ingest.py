"""OSM XML parsing and navigation-graph construction.

Only the XML flavor is supported (PBF is out of scope); unknown elements
and tags are ignored. Graph construction keeps only ways whose
``highway`` tag is one of the 13 car-accessible road types and expands
each retained way into per-pair directed edges, honoring ``oneway``.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .geo import GeoPoint
from .road_graph import EdgeId, NavGraph

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
    than ``<node>`` and ``<way>`` (relations, bounds, ...) are skipped.
    """
    nodes: dict[int, OsmNode] = {}
    ways: list[OsmWay] = []
    try:
        for _event, elem in ET.iterparse(source, events=("end",)):
            if elem.tag == "node":
                nid = int(elem.attrib["id"])
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
    with a warning; nodes not used by any retained way are dropped.
    """
    edges: list[EdgeId] = []
    edge_set: set[EdgeId] = set()
    used: set[int] = set()

    def add(src: int, dst: int):
        if src == dst:
            return
        eid = (src, dst)
        if eid in edge_set:
            return
        edge_set.add(eid)
        edges.append(eid)
        used.add(src)
        used.add(dst)

    for way in ways:
        if way.tags.get("highway") not in ROAD_TYPE_WHITELIST:
            continue
        if any(ref not in nodes for ref in way.node_refs):
            log.warning("skipping way %d: unresolved node reference", way.id)
            continue
        if len(way.node_refs) < 2:
            log.warning("skipping way %d: fewer than 2 node refs", way.id)
            continue
        forward, backward = _way_directions(way)
        for a, b in zip(way.node_refs, way.node_refs[1:]):
            if forward:
                add(a, b)
            if backward:
                add(b, a)

    graph_nodes = {
        nid: GeoPoint(nodes[nid].lat, nodes[nid].lon) for nid in sorted(used)
    }
    return NavGraph(nodes=graph_nodes, edges=tuple(edges))
