import io
import pathlib
import random

import pytest

from navpredict.osm_ingest import (
    ROAD_TYPE_WHITELIST,
    DuplicateNodeError,
    OsmNode,
    OsmParseError,
    OsmWay,
    build_nav_graph,
    parse_osm,
)
from navpredict.road_graph import load_graph, save_graph

FIXTURE = pathlib.Path(__file__).parent / "data" / "fixture.osm"

# Documented fixture content: 50 nodes; 12 ways of which 8 are
# whitelisted and resolvable (way 110 has a dangling ref, ways
# 103/108/112 are non-car types), yielding 23 graph nodes and 25 edges.
FIXTURE_NODES = 50
FIXTURE_WAYS = 12
FIXTURE_GRAPH_NODES = 23
FIXTURE_GRAPH_EDGES = 25


def _doc(body: str) -> io.BytesIO:
    return io.BytesIO(
        f'<?xml version="1.0"?><osm>{body}</osm>'.encode("utf-8")
    )


MINIMAL = (
    '<node id="1" lat="25.8" lon="-80.2"/>'
    '<node id="2" lat="25.801" lon="-80.201"/>'
    '<way id="10"><nd ref="1"/><nd ref="2"/>'
    '<tag k="highway" v="residential"/></way>'
)


def test_whitelist_is_exactly_the_13_road_types():
    assert len(ROAD_TYPE_WHITELIST) == 13
    assert "residential" in ROAD_TYPE_WHITELIST
    assert "footway" not in ROAD_TYPE_WHITELIST


def test_parse_minimal_document():
    nodes, ways = parse_osm(_doc(MINIMAL))
    assert len(nodes) == 2
    assert len(ways) == 1
    assert ways[0].node_refs == (1, 2)
    assert ways[0].tags["highway"] == "residential"


def test_relations_are_ignored():
    nodes, ways = parse_osm(_doc(
        MINIMAL + '<relation id="5"><member type="way" ref="10"/></relation>'
    ))
    assert len(nodes) == 2
    assert len(ways) == 1


def test_unknown_tags_ignored():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0" visible="true"/>'
        '<bounds minlat="0" minlon="0" maxlat="1" maxlon="1"/>'
    ))
    assert len(nodes) == 1
    assert ways == []


def test_malformed_xml_reports_position():
    with pytest.raises(OsmParseError, match=r"line \d+, column \d+"):
        parse_osm(io.BytesIO(b"<osm><node id='1'"))


def test_duplicate_node_id_rejected():
    with pytest.raises(DuplicateNodeError):
        parse_osm(_doc(
            '<node id="1" lat="0" lon="0"/><node id="1" lat="1" lon="1"/>'
        ))


def test_fixture_counts():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    assert len(nodes) == FIXTURE_NODES
    assert len(ways) == FIXTURE_WAYS
    assert ways[0].tags["name"] == "way 101"


def test_fixture_graph():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    assert len(graph.nodes) == FIXTURE_GRAPH_NODES
    assert len(graph.edges) == FIXTURE_GRAPH_EDGES
    # oneway=yes way 102: forward only
    assert (4, 5) in graph.edges and (5, 4) not in graph.edges
    # oneway=-1 way 104: reverse only
    assert (10, 9) in graph.edges and (9, 10) not in graph.edges
    # skipped way 110: no edge from node 24
    assert all(24 not in edge for edge in graph.edges)


def test_bidirectional_default_expansion():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<node id="3" lat="0" lon="0.002"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/><nd ref="3"/>'
        '<tag k="highway" v="residential"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert set(graph.edges) == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_non_whitelisted_way_yields_empty_graph():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/>'
        '<tag k="highway" v="footway"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert graph.nodes == {}
    assert graph.edges == ()


def test_oneway_single_edge():
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/>'
        '<tag k="highway" v="motorway"/><tag k="oneway" v="yes"/></way>'
    ))
    graph = build_nav_graph(nodes, ways)
    assert graph.edges == ((1, 2),)


def test_missing_ref_skips_way_whole(caplog):
    nodes, ways = parse_osm(_doc(
        '<node id="1" lat="0" lon="0"/><node id="2" lat="0" lon="0.001"/>'
        '<way id="7"><nd ref="1"/><nd ref="2"/><nd ref="99"/>'
        '<tag k="highway" v="residential"/></way>'
    ))
    with caplog.at_level("WARNING"):
        graph = build_nav_graph(nodes, ways)
    assert graph.edges == ()
    assert any("unresolved" in rec.message for rec in caplog.records)


def test_edge_count_formula_on_fixture():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    expected = 0
    for way in ways:
        if way.tags.get("highway") not in ROAD_TYPE_WHITELIST:
            continue
        if any(ref not in nodes for ref in way.node_refs):
            continue
        per_pair = 1 if way.tags.get("oneway") in ("yes", "true", "1", "-1") \
            else 2
        expected += (len(way.node_refs) - 1) * per_pair
    assert len(graph.edges) == expected


def test_referential_integrity():
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    for src, dst in graph.edges:
        assert src in graph.nodes
        assert dst in graph.nodes


def test_save_load_round_trip(tmp_path):
    with open(FIXTURE, "rb") as fh:
        nodes, ways = parse_osm(fh)
    graph = build_nav_graph(nodes, ways)
    path = tmp_path / "graph.txt"
    save_graph(graph, path)
    reloaded = load_graph(path)
    assert set(reloaded.nodes) == set(graph.nodes)
    assert set(reloaded.edges) == set(graph.edges)
    # serialization is deterministic
    path2 = tmp_path / "graph2.txt"
    save_graph(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()


GOLDEN = pathlib.Path(__file__).parent / "data" / "fixture-graph.txt"


def test_fixture_graph_round_trips_the_golden_file(tmp_path):
    # fixture-graph.txt is `navpredict ingest tests/data/fixture.osm
    # --frame miami` as the per-node loader wrote it.
    with open(FIXTURE, "rb") as fh:
        graph = build_nav_graph(*parse_osm(fh))
    save_graph(graph, tmp_path / "built.txt")
    assert (tmp_path / "built.txt").read_bytes() == GOLDEN.read_bytes()
    save_graph(load_graph(GOLDEN), tmp_path / "loaded.txt")
    assert (tmp_path / "loaded.txt").read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("body,what", [
    ('<node id="9223372036854775808" lat="0" lon="0"/>',
     "node id 9223372036854775808 is outside int64"),
    ('<node id="-9223372036854775809" lat="0" lon="0"/>',
     "node id -9223372036854775809 is outside int64"),
    ('<node id="1" lat="0" lon="0"/><way id="7"><nd ref="1"/>'
     '<nd ref="99999999999999999999"/><tag k="highway" v="residential"/>'
     '</way>', "nd ref 99999999999999999999 is outside int64"),
], ids=["node", "negative-node", "nd-ref"])
def test_ids_outside_int64_rejected(body, what):
    with pytest.raises(OsmParseError, match=what):
        parse_osm(_doc(body))


def test_negative_and_extreme_int64_ids_accepted():
    lo, hi = -2 ** 63, 2 ** 63 - 1
    nodes, ways = parse_osm(_doc(
        f'<node id="{lo}" lat="0" lon="0"/><node id="-2" lat="0" '
        f'lon="0.001"/><node id="{hi}" lat="0" lon="0.002"/>'
        f'<way id="7"><nd ref="{hi}"/><nd ref="-2"/><nd ref="{lo}"/>'
        f'<tag k="highway" v="residential"/></way>'))
    graph = build_nav_graph(nodes, ways)
    assert list(graph.nodes) == [lo, -2, hi]
    assert graph.edges == ((hi, -2), (-2, hi), (-2, lo), (lo, -2))


def _reference_edges(nodes, ways):
    """The per-pair expansion the array pass must reproduce in order."""
    edges = []
    for way in ways:
        refs = way.node_refs
        if (way.tags.get("highway") not in ROAD_TYPE_WHITELIST
                or any(ref not in nodes for ref in refs) or len(refs) < 2):
            continue
        oneway = way.tags.get("oneway", "")
        forward = oneway != "-1"
        backward = oneway not in ("yes", "true", "1")
        for a, b in zip(refs, refs[1:]):
            for keep, edge in ((forward, (a, b)), (backward, (b, a))):
                if keep and a != b and edge not in edges:
                    edges.append(edge)
    return edges


def test_build_matches_per_pair_expansion():
    # Random ways over few nodes: repeated pairs, self-loops, one-way
    # tags, unresolved refs, single-ref ways and non-car roads.
    rng = random.Random(5)
    nodes = {nid: OsmNode(nid, 25.0 + nid * 1e-4, -80.0)
             for nid in range(-6, 14)}
    for trial in range(40):
        ways = []
        for wid in range(rng.randint(0, 12)):
            refs = tuple(rng.choice([*nodes, 99])
                         for _ in range(rng.randint(1, 7)))
            tags = {"highway": rng.choice(["residential", "footway",
                                           "motorway"])}
            oneway = rng.choice([None, "yes", "-1", "true", "no"])
            if oneway:
                tags["oneway"] = oneway
            ways.append(OsmWay(wid, refs, tags))
        expected = _reference_edges(nodes, ways)
        graph = build_nav_graph(nodes, ways)
        assert list(graph.edges) == expected, trial
        assert list(graph.nodes) == sorted({n for e in expected for n in e})
